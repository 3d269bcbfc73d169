(* explore-corpus: the simulator, harness and verify layers, reached
   through Qs_harness.Explorer.run_one on one domain. The committed corpus
   (a copy kept in this directory, so the inputs stay fixed while the
   program changes) is replayed cyclically, one case per step of a round,
   in an order shuffled by the seed, one case per timed latency sample.
   Beside it,
   seeded default cases per scheme give the per-scheme rows: simulated
   operations per wall second, and a victim-stall row that must reach
   QSense's fallback. The benchmark's reference list runs a slice beside
   every step and gives each round's speed factor (reference.ml). *)

module E = Qs_harness.Explorer
module S_ = Qs_smr.Scheme

let corpus_path = ref "perfbench/explorer.corpus"

(* Each round runs the next [cases_per_round] cases of a row's seeded pool
   of [pool_size], so a run covers many seeds' worth of schedules and the
   per-seed cost of any one schedule averages out. A round takes about two
   seconds on the reference machine: the five rows' cases and the corpus
   cases each get about half of it. *)
let cases_per_round = 50
let pool_size = 512

(* Reference time per step. *)
let ref_step_ns = 4e6

type row = {
  name : string;
  cases : E.case array;
  mutable next : int;  (** pool cursor *)
  mutable ns : int;  (** wall time of [ops] *)
  mutable rates : float list;  (** simulated ops/s of each round *)
  mutable attempted : int;
  mutable stats : Qs_smr.Smr_intf.stats list;  (** of the last round *)
  mutable ops : int;  (** simulated ops in the measurement window *)
  mutable acc : Qs_smr.Smr_intf.stats;  (** summed over the window *)
  mutable peaks : int list;  (** retired_peak of each case in the window *)
  mutable peak_outstanding : int;
  mutable allocs : int;
  mutable fresh : int;
}

let make_rows ~seed =
  let prng = Qs_util.Prng.create ~seed in
  let seeded scheme ~stall =
    Array.init pool_size (fun _ ->
        let seed = Qs_util.Prng.int prng 1_000_000 in
        let c = E.default_case ~ds:Qs_harness.Cset.List ~scheme ~seed in
        if stall then
          (* long enough for the survivors' limbo lists to pass C = 48 *)
          let c = { c with ops_per_proc = 600; duration = 2_000_000 } in
          { c with faults = E.plan E.Victim_stall ~n:c.n_processes ~duration:c.duration ~seed }
        else c)
  in
  List.map
    (fun (name, scheme, stall) ->
      { name;
        cases = seeded scheme ~stall;
        next = 0;
        ns = 0;
        rates = [];
        attempted = 0;
        stats = [];
        ops = 0;
        acc = Qs_smr.Smr_intf.zero_stats;
        peaks = [];
        peak_outstanding = 0;
        allocs = 0;
        fresh = 0 })
    [ "none", S_.None_, false; "qsbr", S_.Qsbr, false; "hp", S_.Hp, false;
      "qsense", S_.Qsense, false; "qsense_stalled", S_.Qsense, true ]

let load_corpus ~seed =
  let cases = Array.of_list (E.load_corpus !corpus_path) in
  Qs_util.Prng.shuffle (Qs_util.Prng.create ~seed) cases;
  cases

let add_stats (a : Qs_smr.Smr_intf.stats) (b : Qs_smr.Smr_intf.stats) =
  { a with
    retires = a.retires + b.retires;
    frees = a.frees + b.frees;
    scans = a.scans + b.scans;
    epoch_advances = a.epoch_advances + b.epoch_advances;
    fallback_entries = a.fallback_entries + b.fallback_entries;
    fallback_ticks = a.fallback_ticks + b.fallback_ticks }

type ctx = {
  out : Out.t;
  checks : Out.checks;
  seconds : float;
  trace : bool;
  setup_reps : int;
  nominal : float;  (** the reference's ops/s on the reference machine *)
  roosters : Qs_real.Roosters.t;
}

let run (ctx : ctx) ~seed =
  let ck = ctx.checks and o = ctx.out in
  let ref_stream, ref_fill = Workloads.gen_list ~seed in
  let reference = Reference.set ~n_buckets:1 ref_fill in
  (* probes about as long as one set-up, which takes ~1 ms *)
  let probe = Reference.prober ~probe_s:0.002 reference ref_stream ~nominal:ctx.nominal in
  ignore (probe ());
  (* set-up: load the corpus, make the rows — repeated, each time scaled
     by the mean speed factor of reference probes right before and right
     after it *)
  let setups =
    List.init ctx.setup_reps (fun _ ->
        let f0 = probe () in
        let t0 = Clock.now () in
        let corpus = load_corpus ~seed in
        let rows = make_rows ~seed in
        let raw = float_of_int (Clock.now () - t0) /. 1e9 in
        (raw *. (f0 +. probe ()) /. 2., raw, (corpus, rows)))
  in
  let setup_s = Pctl.median_float (List.map (fun (s, _, _) -> s) setups) in
  let setup_raw_s = Pctl.median_float (List.map (fun (_, r, _) -> r) setups) in
  let _, _, (corpus, rows) = List.nth setups (ctx.setup_reps - 1) in
  Out.check ck (Array.length corpus = 100) "corpus has %d cases, expected 100"
    (Array.length corpus);
  let lat = Timing.lat_create 65536 in
  let sp = Timing.spans_create ~every:1 65536 in
  let ev = Events.create ~n_processes:4 in
  let sink = ref None and tracing = ref false in
  let verdict_failures = ref 0 in
  let run_case c =
    let t0 = Clock.now () in
    let r = E.run_one ?sink:!sink c in
    let t1 = Clock.now () in
    if !tracing then
      ignore (Timing.span_add sp ~name:Spans.explore_case ~start:t0 ~stop:t1 ~parent:(-1) ~req:c.seed);
    if r.verdict <> E.Pass then begin
      incr verdict_failures;
      Out.check ck false "case %s: verdict %s" (E.to_string c) (E.verdict_to_string r.verdict)
    end;
    (r, t1 - t0)
  in
  let measuring = ref false in
  let row_case row =
    let c = row.cases.(row.next) in
    row.next <- (row.next + 1) mod pool_size;
    let r, dt = run_case c in
    row.attempted <- row.attempted + 1;
    row.stats <- r.stats :: row.stats;
    if !measuring then begin
      row.ops <- row.ops + r.ops;
      row.ns <- row.ns + dt;
      row.acc <- add_stats row.acc r.stats;
      row.peaks <- r.stats.retired_peak :: row.peaks;
      row.peak_outstanding <- max row.peak_outstanding r.report.outstanding;
      row.allocs <- row.allocs + r.report.allocations;
      row.fresh <- row.fresh + r.report.fresh_nodes
    end
  in
  let replayed = ref 0 and corpus_next = ref 0 in
  (* corpus latency samples are tagged with the case's index *)
  let n_rows = List.length rows and n_corpus = Array.length corpus in
  let ref_cursor = ref 0 and ref_count = ref 1024 and ref_rates = ref [] in
  let ref_timed_ops = ref 0 and ref_timed_ns = ref 0 in
  let ref_ok = Array.make 4 0 in
  let ref_slice () =
    let t0 = Clock.now () in
    Timing.run_slice reference ref_stream ~cursor:!ref_cursor ~count:!ref_count ref_ok;
    ref_cursor := !ref_cursor + !ref_count;
    Clock.now () - t0
  in
  (* One round: [cases_per_round] steps, each running one case of every
     row (in rotating order), a reference slice, and the next corpus case,
     so the rows, the reference and the corpus replay spread evenly over
     the round and share the host's speed phases. *)
  let round_once () =
    List.iter (fun r -> r.stats <- []) rows;
    let before = List.map (fun r -> (r.ops, r.ns)) rows in
    let ref_ns = ref 0 in
    for step = 0 to cases_per_round - 1 do
      for i = 0 to n_rows - 1 do
        row_case (List.nth rows ((i + step) mod n_rows))
      done;
      ref_ns := !ref_ns + ref_slice ();
      let _, dt = run_case corpus.(!corpus_next) in
      if !measuring then Timing.lat_add lat !corpus_next dt;
      corpus_next := (!corpus_next + 1) mod n_corpus;
      incr replayed
    done;
    let ref_rate = float_of_int (cases_per_round * !ref_count) *. 1e9 /. float_of_int (max 1 !ref_ns) in
    if !measuring then begin
      ref_rates := ref_rate :: !ref_rates;
      ref_timed_ops := !ref_timed_ops + (cases_per_round * !ref_count);
      ref_timed_ns := !ref_timed_ns + !ref_ns;
      List.iter2
        (fun r (ops0, ns0) ->
          r.rates <-
            (float_of_int (r.ops - ops0) *. 1e9 /. float_of_int (max 1 (r.ns - ns0))) :: r.rates)
        rows before
    end
    else ref_count := max 64 (int_of_float (ref_step_ns *. ref_rate /. 1e9))
  in
  (* warm-up: one round, which also sizes the reference slices *)
  round_once ();
  Gc.compact ();
  measuring := true;
  let gc0 = Gc.quick_stat () and wakeups0 = Qs_real.Roosters.wakeups ctx.roosters in
  let t_start = Clock.now () in
  let round ~deadline =
    ignore (Timing.rounds ~deadline ~min_rounds:3 [ () ] ~slice:round_once ~extra:ignore)
  in
  if not ctx.trace then round ~deadline:(t_start + int_of_float (ctx.seconds *. 1e9))
  else begin
    let half = t_start + int_of_float (ctx.seconds *. 0.5e9) in
    round ~deadline:half;
    let ns () = List.fold_left (fun acc r -> acc + r.ns) 0 rows in
    let ops () = List.fold_left (fun acc r -> acc + r.ops) 0 rows in
    let ns0 = ns () and ops0 = ops () in
    let untraced = float_of_int ns0 /. float_of_int (max 1 ops0) in
    sink := Some ev.sink;
    tracing := true;
    round ~deadline:(half + int_of_float (ctx.seconds *. 0.5e9));
    sink := None;
    tracing := false;
    let traced = float_of_int (ns () - ns0) /. float_of_int (max 1 (ops () - ops0)) in
    Out.add o "obs.trace_overhead_pct" "%" (100. *. ((traced /. untraced) -. 1.))
  end;
  let gc1 = Gc.quick_stat () and wakeups1 = Qs_real.Roosters.wakeups ctx.roosters in
  List.iter
    (fun row ->
      if row.name = "qsense_stalled" then
        Out.check ck
          (List.exists (fun (s : Qs_smr.Smr_intf.stats) -> s.fallback_entries >= 1) row.stats)
          "explore qsense_stalled: no case of the last round entered the fallback")
    rows;
  let all_ops = List.fold_left (fun a r -> a + r.ops) 0 rows in
  if not ctx.trace then begin
    List.iter
      (fun r ->
        Out.add o ("ops_per_s." ^ r.name) "ops/s"
          (ctx.nominal *. Pctl.median_float (List.map2 ( /. ) r.rates !ref_rates)))
      rows;
    let st = List.find (fun r -> r.name = "qsense_stalled") rows in
    (* median over cases: a max would grow with the number of cases run *)
    Out.add o "peak_unreclaimed.qsense_stalled" "count"
      (Pctl.median_float (List.map float_of_int st.peaks));
    (* corpus case replay times: each case's median over its replays in
       the run, so every case counts once however often the run reached
       it (a run ends part-way through a replay of the corpus), scaled by
       the run's speed factor *)
    let factor = Reference.factor ~nominal:ctx.nominal (Pctl.median_float !ref_rates) in
    let per_case = Array.make n_corpus [] in
    for i = 0 to lat.n - 1 do
      let c = lat.lkinds.(i) in
      per_case.(c) <- float_of_int lat.durs.(i) :: per_case.(c)
    done;
    let meds = Array.of_list (List.map Pctl.median_float (Array.to_list per_case)) in
    Array.sort compare meds;
    let p bp = Pctl.percentile meds ~n:n_corpus bp *. factor in
    Out.add o "lat.p50_ns" "ns" (p 5000);
    (* the tail is p90 here: 100 cases leave exactly ten beyond it *)
    Out.add o "lat.tail_ns" "ns" (p 9000);
    Out.add o "setup_s" "s" setup_s
  end
  else begin
    List.iter
      (fun r ->
        Out.core_counts o ~row:r.name ~ops:r.ops ~d:r.acc
          ~peak:(Pctl.median_float (List.map float_of_int r.peaks));
        if r.name = "qsense_stalled" then begin
          Out.addi o "core.qsense_stalled.fallback_entries" "count" r.acc.fallback_entries;
          (* simulated ticks, reported per 10^6 like the real runtime's ns *)
          Out.add o "core.qsense_stalled.fallback_dwell_ms" "ms"
            (float_of_int r.acc.fallback_ticks /. 1e6)
        end;
        if r.name = "qsense" then
          Out.arena_counts o ~ops:r.ops ~allocs:r.allocs ~fresh:r.fresh
            ~peak_outstanding:r.peak_outstanding)
      rows;
    Out.gc_counts o ~ops:all_ops gc0 gc1;
    Out.addi o "real.rooster_wakeups" "count" (wakeups1 - wakeups0);
    Out.add o "workload.gen_s" "s" setup_s;
    Events.report o ev;
    Spans.report o sp
  end;
  let attempted = List.fold_left (fun a r -> a + r.attempted) !replayed rows in
  let corpus_ns = Array.fold_left ( + ) 0 (Array.sub lat.durs 0 lat.n) in
  let timed =
    List.map (fun r -> r.name, r.ops, r.ns) rows
    @ [ "corpus_cases", lat.n, corpus_ns; "reference", !ref_timed_ops, !ref_timed_ns ]
  in
  (attempted, !verdict_failures, timed, setup_raw_s)
