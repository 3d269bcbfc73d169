(* The real-domain workloads (list-read, hash-write, kv-zipf): one busy
   worker (the main domain) replays a pre-generated stream against five
   rows — schemes none, qsbr, hp and qsense, plus qsense with a stalled
   registered peer — and the benchmark's own reference row, interleaved
   slice by slice. *)

module S_ = Qs_smr.Scheme

type spec = {
  gen : seed:int -> Streams.t * int array;  (** stream, initial contents *)
  name_base : int;  (** span name id of kind 0 *)
  oracle_ops : int;  (** untimed oracle-on ops per scheme *)
  reference : int array -> Timing.target;  (** reference stack on the fill *)
  nominal : float;  (** the reference's ops/s on the reference machine *)
}

let rows = [ "none", S_.None_, false; "qsbr", S_.Qsbr, false; "hp", S_.Hp, false;
             "qsense", S_.Qsense, false; "qsense_stalled", S_.Qsense, true ]

(* Short slices: the host's speed moves within tens of milliseconds, and
   the reference cancels only what its neighbouring slices share. *)
let slice_ns = 5e6

let lat_capacity = 1 lsl 20
let span_every = 16

type ctx = {
  out : Out.t;
  checks : Out.checks;
  seconds : float;
  trace : bool;
  setup_reps : int;
  roosters : Qs_real.Roosters.t;
}

module Make (S : Stacks.STACK) = struct
  type inst = {
    name : string;
    scheme : S_.kind;
    t : S.t;
    c : S.ctx;
    peer_c : S.ctx option;
    size0 : int;
    row : Timing.row;
    mutable peer : Stacks.peer option;
    peak_out : int ref;
  }

  let build ~oracle ~fill (name, scheme, stalled) =
    let cfg =
      Stacks.config ~scheme
        ~n_processes:(if stalled then 2 else 1)
        ~oracle
        ~switch:(if stalled then Stacks.stalled_switch else 0)
    in
    let t = S.create cfg in
    let c = S.register t ~pid:0 in
    let peer_c = if stalled then Some (S.register t ~pid:1) else None in
    Array.iter (fun k -> ignore (S.apply c 1 k 0)) fill;
    let peak_out = ref 0 in
    { name;
      scheme;
      t;
      c;
      peer_c;
      size0 = S.size c;
      row =
        Timing.make_row
          ~probe:(fun () -> peak_out := max !peak_out (S.outstanding t))
          name
          { Timing.apply = (fun k a b -> S.apply c k a b) };
      peer = None;
      peak_out }

  (* The stalled peer searches a few stream keys (so it has run and holds
     an epoch), then sleeps without quiescing. *)
  let start_peer (s : Streams.t) i =
    match i.peer_c with
    | None -> ()
    | Some pc ->
      i.peer <-
        Some
          (Stacks.spawn_peer ~pid:1 (fun () ->
               for j = 0 to 15 do ignore (S.apply pc 0 s.a.(j) 0) done))

  let stop_peer (ck : Out.checks) i =
    match i.peer with
    | None -> ()
    | Some p ->
      i.peer <- None;
      (match Stacks.stop_peer p with
      | None -> ()
      | Some e -> Out.check ck false "%s: stalled peer raised %s" i.name e)

  let settled i =
    let last = ref (-1) and quiet = ref 0 in
    fun () ->
      let r = S.report i.t in
      if r.fresh_nodes = !last then incr quiet else quiet := 0;
      last := r.fresh_nodes;
      let fallback_ok = i.peer_c = None || r.smr.fallback_entries >= 1 in
      fallback_ok && (!quiet >= 8 || (i.scheme = S_.None_ && !quiet = 0 && r.allocations > 4096))

  (* Final-state checks: size accounting, structure, memory safety. *)
  let verify (ck : Out.checks) ~label i =
    let inserted = i.row.ok.(1) and deleted = i.row.ok.(2) in
    let size = S.size i.c in
    Out.check ck (size = i.size0 + inserted - deleted)
      "%s %s: size %d <> %d + %d inserted - %d deleted" label i.name size i.size0
      inserted deleted;
    (try S.validate i.c
     with e -> Out.check ck false "%s %s: validate: %s" label i.name (Printexc.to_string e));
    let r = S.report i.t in
    Out.check ck (r.double_frees = 0) "%s %s: %d double frees" label i.name r.double_frees;
    Out.check ck (r.violations = 0) "%s %s: %d use-after-free violations" label i.name
      r.violations;
    (match i.row.broken with
    | Some e -> Out.check ck false "%s %s: op raised %s" label i.name e
    | None -> ());
    if i.peer_c <> None then
      Out.check ck (r.smr.fallback_entries >= 1) "%s %s: fallback never entered" label
        i.name

  (* Untimed oracle-on pass per row configuration. *)
  let oracle_pass (ck : Out.checks) spec (s : Streams.t) fill =
    List.fold_left
      (fun attempted cfg ->
        let i = build ~oracle:true ~fill cfg in
        start_peer s i;
        Timing.advance i.row s spec.oracle_ops;
        (* the stalled configuration is checked in fallback mode too *)
        let deadline = Clock.now () + 5_000_000_000 in
        while
          i.peer_c <> None
          && (S.report i.t).smr.fallback_entries = 0
          && i.row.broken = None
          && Clock.now () < deadline
        do
          Timing.advance i.row s 4096
        done;
        stop_peer ck i;
        verify ck ~label:"oracle pass" i;
        attempted + i.row.attempted)
      0 rows

  type snap = { reports : Qs_ds.Set_intf.report list; attempted : int list; gc : Gc.stat; wakeups : int }

  let snap ctx insts =
    { reports = List.map (fun i -> S.report i.t) insts;
      attempted = List.map (fun i -> i.row.attempted) insts;
      gc = Gc.quick_stat ();
      wakeups = Qs_real.Roosters.wakeups ctx.roosters }

  (* Per-layer counts of the measurement window [a, b]. *)
  let layer_counts ctx insts a b =
    let o = ctx.out in
    let total_ops = ref 0 in
    List.iteri
      (fun k i ->
        let ra = List.nth a.reports k and rb = List.nth b.reports k in
        let ops = List.nth b.attempted k - List.nth a.attempted k in
        total_ops := !total_ops + ops;
        let sa = ra.Qs_ds.Set_intf.smr and sb = rb.Qs_ds.Set_intf.smr in
        let d =
          { sb with
            retires = sb.retires - sa.retires;
            scans = sb.scans - sa.scans;
            epoch_advances = sb.epoch_advances - sa.epoch_advances;
            frees = sb.frees - sa.frees }
        in
        Out.core_counts o ~row:i.name ~ops ~d ~peak:(float_of_int sb.retired_peak);
        if i.peer_c <> None then begin
          Out.addi o "core.qsense_stalled.fallback_entries" "count" sb.fallback_entries;
          let dwell =
            sb.fallback_ticks
            + (match sb.fallback_since with Some t0 -> Stacks.R.now () - t0 | None -> 0)
          in
          Out.add o "core.qsense_stalled.fallback_dwell_ms" "ms" (float_of_int dwell /. 1e6)
        end;
        if i.name = "qsense" then
          Out.arena_counts o ~ops ~allocs:(rb.allocations - ra.allocations)
            ~fresh:(rb.fresh_nodes - ra.fresh_nodes) ~peak_outstanding:!(i.peak_out))
      insts;
    Out.gc_counts o ~ops:!total_ops a.gc b.gc;
    Out.addi o "real.rooster_wakeups" "count" (b.wakeups - a.wakeups)

  (* Per-op latency percentiles of the qsense row, scaled by the run's
     speed factor: the median over rounds of the reference's. (Scaling
     each sample by its own round's factor would add that factor's
     round-to-round noise to every sample and widen the tail.) *)
  let latency_metrics o (lat : Timing.lat) ~factor =
    let all = Timing.lat_sorted lat ~kind:(-1) in
    let n = Array.length all in
    let p bp = if n = 0 then nan else float_of_int (Pctl.percentile all ~n bp) *. factor in
    Out.add o "lat.p50_ns" "ns" (p 5000);
    Out.add o "lat.tail_ns" "ns" (p 9900)

  let run ctx spec ~seed =
    (* set-up: stream generation, create, register, fill — repeated from
       a compacted heap, each time scaled by the mean speed factor of
       reference probes right before and right after it, the median
       reported, the last one kept *)
    let probe =
      let s, fill = spec.gen ~seed in
      Reference.prober (spec.reference fill) s ~nominal:spec.nominal
    in
    ignore (probe ());
    let totals = ref [] and raws = ref [] and gens = ref [] and last = ref None in
    for _ = 1 to ctx.setup_reps do
      last := None;
      Gc.compact ();
      let f0 = probe () in
      let t0 = Clock.now () in
      let s, fill = spec.gen ~seed in
      let t1 = Clock.now () in
      let insts = List.map (build ~oracle:false ~fill) rows in
      let t2 = Clock.now () in
      let f = (f0 +. probe ()) /. 2. in
      let raw = float_of_int (t2 - t0) /. 1e9 in
      totals := (raw *. f) :: !totals;
      raws := raw :: !raws;
      gens := (float_of_int (t1 - t0) *. f /. 1e9) :: !gens;
      last := Some (s, fill, insts)
    done;
    let setup_s = Pctl.median_float !totals and gen_s = Pctl.median_float !gens in
    let s, fill, insts = Option.get !last in
    let reference = Timing.make_row "reference" (spec.reference fill) in
    (* start every run from the same compacted heap *)
    Gc.compact ();
    List.iter (start_peer s) insts;
    Timing.warm_up reference s ~settled:(fun () -> false) ~max_s:0.5 ~slice_ns;
    List.iter
      (fun i ->
        (* the stalled row must fill its limbo lists past C first *)
        let max_s = if i.peer_c = None then 1.0 else 3.0 in
        Timing.warm_up i.row s ~settled:(settled i) ~max_s ~slice_ns)
      insts;
    let q = List.find (fun i -> i.name = "qsense") insts in
    let lat_q = Timing.lat_create lat_capacity in
    (* latency slices sized so the samples of every round fit *)
    let rounds_est =
      1 + int_of_float (ctx.seconds *. 1e9 /. (float_of_int (List.length insts + 2) *. slice_ns))
    in
    let lat_extra () =
      let n = q.row.slice in
      q.row.slice <- max 16 (min n (lat_capacity / rounds_est));
      Timing.lat_slice q.row s lat_q;
      q.row.slice <- n
    in
    let a = snap ctx insts in
    let t_start = Clock.now () in
    let row_list = List.map (fun i -> i.row) insts in
    let rounds_rows = reference :: row_list in
    let o = ctx.out in
    if not ctx.trace then
      ignore
        (Timing.rounds
           ~deadline:(t_start + int_of_float (ctx.seconds *. 1e9))
           ~min_rounds:3 rounds_rows
           ~slice:(fun r -> Timing.timed_slice r s)
           ~extra:lat_extra)
    else begin
      let half = t_start + int_of_float (ctx.seconds *. 0.5e9) in
      ignore
        (Timing.rounds ~deadline:half ~min_rounds:3 rounds_rows
           ~slice:(fun r -> Timing.timed_slice r s)
           ~extra:ignore);
      let untraced = List.map (fun r -> 1e9 /. Timing.ops_per_s r) row_list in
      List.iter
        (fun (r : Timing.row) ->
          r.timed_ops <- 0;
          r.timed_ns <- 0;
          r.rates <- [])
        row_list;
      let ev = Events.create ~n_processes:2 in
      let sp = Timing.spans_create ~every:span_every (1 lsl 18) in
      Stacks.R.set_sink (Some ev.sink);
      ignore
        (Timing.rounds
           ~deadline:(half + int_of_float (ctx.seconds *. 0.5e9))
           ~min_rounds:3 rounds_rows
           ~slice:(fun r ->
             if r == reference then Timing.timed_slice r s
             else Timing.traced_slice r s sp ~name_base:spec.name_base)
           ~extra:ignore);
      Stacks.R.set_sink None;
      let traced = List.map (fun r -> 1e9 /. Timing.ops_per_s r) row_list in
      let sum = List.fold_left ( +. ) 0. in
      Out.add o "obs.trace_overhead_pct" "%" (100. *. ((sum traced /. sum untraced) -. 1.));
      Events.report o ev;
      Spans.report o sp
    end;
    let b = snap ctx insts in
    List.iter (stop_peer ctx.checks) insts;
    List.iter (verify ctx.checks ~label:"timed pass") insts;
    let oracle_attempted = oracle_pass ctx.checks spec s fill in
    if ctx.trace then begin
      layer_counts ctx insts a b;
      Out.add o "workload.gen_s" "s" gen_s
    end
    else begin
      List.iter
        (fun i ->
          Out.add o ("ops_per_s." ^ i.name) "ops/s"
            (spec.nominal *. Timing.rel i.row ~base:reference))
        insts;
      let st = List.find (fun i -> i.peer_c <> None) insts in
      Out.addi o "peak_unreclaimed.qsense_stalled" "count" (S.report st.t).smr.retired_peak;
      latency_metrics o lat_q
        ~factor:(Reference.factor ~nominal:spec.nominal (Pctl.median_float reference.rates));
      Out.add o "setup_s" "s" setup_s
    end;
    let attempted = List.fold_left (fun acc i -> acc + i.row.attempted) oracle_attempted insts in
    let failed = List.fold_left (fun acc i -> acc + i.row.failed) 0 insts in
    ( attempted,
      failed,
      List.map (fun (r : Timing.row) -> r.name, r.timed_ops, r.timed_ns) rounds_rows,
      Pctl.median_float !raws )
end
