(* The per-layer battery of a traced run: the same in every traced
   invocation, so every per-layer metric is measured whatever the workload.

   - Cost ladder on the list-read and hash-write streams: rungs that
     differ by one layer each, as ns per op of the same stream, interleaved
     trial by trial. Self time of a layer = its rung minus the rung below.
   - glue.hop_ns: an Smr_glue closure call against a direct call into the
     scheme module.
   - service: K.get against Hashtable.search_ro on the same keys (routing
     cost), and per-kind request latency percentiles.
   - sim/verify: one replay of the explorer corpus. *)

module R = Stacks.R
module HF = Hm_functor.Make (R)
module S_ = Qs_smr.Scheme

let trials = 5
let slice_ns = 30e6

module Rungs (S : Stacks.STACK) = struct
  let lib ~scheme ~oracle fill =
    let t = S.create (Stacks.config ~scheme ~n_processes:1 ~oracle ~switch:0) in
    let c = S.register t ~pid:0 in
    Array.iter (fun k -> ignore (S.apply c 1 k 0)) fill;
    (t, c)

  let target c = { Timing.apply = (fun k a b -> S.apply c k a b) }

  (* qsense plus the observatory: a latency recorder fed from the coarse
     clock on every op, and a Tracer sink installed around the rung. *)
  let obs fill =
    let _, c = lib ~scheme:S_.Qsense ~oracle:false fill in
    let recorder = Qs_obs.Latency.recorder ~n_processes:1 ~n_kinds:4 () in
    let ev = Events.create ~n_processes:1 in
    ( { Timing.apply =
          (fun k a b ->
            let t0 = R.now_coarse () in
            let r = S.apply c k a b in
            Qs_obs.Latency.observe recorder ~pid:0 ~kind:k ~start:t0
              ~dur:(R.now_coarse () - t0);
            r) },
      ev.sink )

  let library_rungs fill =
    let l scheme oracle = (None, target (snd (lib ~scheme ~oracle fill))) in
    let obs_target, sink = obs fill in
    [ "leaky", l S_.None_ false;
      "oracle", l S_.None_ true;
      "qsbr", l S_.Qsbr false;
      "hp", l S_.Hp false;
      "qsense", l S_.Qsense false;
      "obs", (Some sink, obs_target) ]
end

module LR = Rungs (Stacks.List_stack)
module HR = Rungs (Stacks.Hash_stack)

let list_bottom fill =
  let d = Reference.filled Hm_direct.create Hm_direct.insert fill in
  let f = Reference.filled HF.create HF.insert fill in
  [ "atomic",
    (None, Reference.set_target ~search:(Hm_direct.search d) ~insert:(Hm_direct.insert d)
             ~delete:(Hm_direct.delete d));
    "runtime",
    (None, Reference.set_target ~search:(HF.search f) ~insert:(HF.insert f) ~delete:(HF.delete f)) ]

let hash_bottom fill =
  let table create = Reference.filled (fun () -> create ~n_buckets:256) in
  let d = table Hm_direct.create_table Hm_direct.tinsert fill in
  let f = table HF.create_table HF.tinsert fill in
  [ "atomic",
    (None, Reference.set_target ~search:(Hm_direct.tsearch d) ~insert:(Hm_direct.tinsert d)
             ~delete:(Hm_direct.tdelete d));
    "runtime",
    (None, Reference.set_target ~search:(HF.tsearch f) ~insert:(HF.tinsert f)
             ~delete:(HF.tdelete f)) ]

let ladder o ~prefix (s : Streams.t) rungs =
  let rows =
    List.map (fun (name, (sink, target)) -> (name, sink, Timing.make_row name target)) rungs
  in
  let with_sink sink f =
    R.set_sink sink;
    Fun.protect ~finally:(fun () -> R.set_sink None) f
  in
  List.iter
    (fun (_, sink, row) ->
      with_sink sink (fun () ->
          Timing.warm_up row s ~settled:(fun () -> false) ~max_s:0.15 ~slice_ns))
    rows;
  for _ = 1 to trials do
    List.iter (fun (_, sink, row) -> with_sink sink (fun () -> Timing.timed_slice row s)) rows
  done;
  let ns = Hashtbl.create 8 in
  List.iter
    (fun (name, _, row) ->
      let v = 1e9 /. Timing.ops_per_s row in
      Hashtbl.replace ns name v;
      Out.add o (Printf.sprintf "ladder.%s.%s_ns" prefix name) "ns" v)
    rows;
  let d a b = Hashtbl.find ns a -. Hashtbl.find ns b in
  let delta name a b = Out.add o (prefix ^ "." ^ name) "ns" (d a b) in
  delta "real.accessor_ns_per_op" "runtime" "atomic";
  delta "arena.ns_per_op" "leaky" "runtime";
  delta "arena.oracle_ns_per_op" "oracle" "leaky";
  delta "core.qsbr.ns_per_op" "qsbr" "leaky";
  delta "core.hp.ns_per_op" "hp" "leaky";
  delta "core.qsense.ns_per_op" "qsense" "leaky";
  delta "obs.ns_per_op" "obs" "qsense";
  List.fold_left (fun acc (_, _, row) -> acc + row.Timing.attempted) 0 rows

(* One Smr_glue closure hop: the record call the structures make against
   a direct call into the first-class scheme module it wraps. *)
module Hop_node = struct
  type t = { id : int }

  let id n = n.id
end

module D = S_.Dispatch (R) (Hop_node)
module G = Qs_ds.Smr_glue.Make (R) (Hop_node)

let glue_hop o =
  let cfg = (Stacks.config ~scheme:S_.Qsense ~n_processes:1 ~oracle:false ~switch:0).smr in
  let dummy = { Hop_node.id = -1 } and node = { Hop_node.id = 7 } in
  let (module Sc) = D.make S_.Qsense in
  let h = Sc.register (Sc.create cfg ~dummy ~free:ignore) ~pid:0 in
  let g = (G.make S_.Qsense cfg ~dummy ~free:ignore).register ~pid:0 in
  let n = 1 lsl 21 in
  let time f =
    let t0 = Clock.now () in
    for i = 1 to n do f (i land 1) done;
    float_of_int (Clock.now () - t0) /. float_of_int n
  in
  let direct = ref [] and glued = ref [] in
  for _ = 1 to trials do
    direct := time (fun slot -> Sc.assign_hp h ~slot node) :: !direct;
    glued := time (fun slot -> g.assign_hp ~slot node) :: !glued
  done;
  Out.add o "glue.hop_ns" "ns" (Pctl.median_float !glued -. Pctl.median_float !direct)

let service o (s : Streams.t) fill =
  let cfg = Stacks.config ~scheme:S_.Qsense ~n_processes:1 ~oracle:false ~switch:0 in
  let k = Stacks.Kv_stack.create cfg in
  let kc = Stacks.K.register k ~pid:0 in
  Array.iter (fun key -> ignore (Stacks.K.put kc key)) fill;
  (* 4 shards x 256 buckets against one 1024-bucket table: same chains *)
  let hc = Stacks.H.register (Stacks.H.create_sized ~n_buckets:1024 cfg) ~pid:0 in
  Array.iter (fun key -> ignore (Stacks.H.insert hc key)) fill;
  let gets =
    let out = Array.make 65536 0 and m = ref 0 in
    for i = 0 to Streams.length s - 1 do
      if s.kinds.(i) = 0 && !m < Array.length out then begin
        out.(!m) <- s.a.(i);
        incr m
      end
    done;
    Array.sub out 0 !m
  in
  let time f =
    let t0 = Clock.now () in
    let hits = ref 0 in
    Array.iter (fun key -> if f key then incr hits) gets;
    (float_of_int (Clock.now () - t0) /. float_of_int (Array.length gets), !hits)
  in
  let kv = ref [] and tb = ref [] and agree = ref true in
  for _ = 1 to trials + 1 do
    let a, ha = time (Stacks.K.get kc) in
    let b, hb = time (Stacks.H.search_ro hc) in
    if ha <> hb then agree := false;
    kv := a :: !kv;
    tb := b :: !tb
  done;
  Out.add o "service.route_ns_per_op" "ns" (Pctl.median_float !kv -. Pctl.median_float !tb);
  (* per-kind latency on the full request mix *)
  let row = Timing.make_row "kv" { Timing.apply = (fun k a b -> Stacks.Kv_stack.apply kc k a b) } in
  Timing.warm_up row s ~settled:(fun () -> false) ~max_s:0.1 ~slice_ns;
  let lat = Timing.lat_create (1 lsl 19) in
  row.slice <- 1 lsl 19;
  Timing.lat_slice row s lat;
  List.iteri
    (fun kind name ->
      let sorted = Timing.lat_sorted lat ~kind in
      let n = Array.length sorted in
      let p = "service." ^ name in
      Out.addi o (p ^ "_samples") "count" n;
      Out.addi o (p ^ "_ns_p50") "ns" (if n = 0 then 0 else Pctl.percentile sorted ~n 5000);
      match Pctl.highest_reportable ~n with
      | Some bp ->
        Out.add o (p ^ "_tail_pct") "%" (float_of_int bp /. 100.);
        Out.addi o (p ^ "_ns_tail") "ns" (Pctl.percentile sorted ~n bp)
      | None ->
        Out.add o (p ^ "_tail_pct") "%" 0.;
        Out.addi o (p ^ "_ns_tail") "ns" 0)
    [ "get"; "put"; "del"; "scan" ];
  (!agree, row.attempted + (2 * (trials + 1) * Array.length gets))

let sim o =
  let corpus = Qs_harness.Explorer.load_corpus !Wl_explore.corpus_path in
  let g0 = Gc.quick_stat () in
  let t0 = Clock.now () in
  let steps = ref 0 and lin = ref 0 and pass = ref 0 in
  List.iter
    (fun c ->
      let r = Qs_harness.Explorer.run_one c in
      steps := !steps + r.steps;
      if r.lin = Qs_harness.Explorer.Lin_ok then incr lin;
      if r.verdict = Qs_harness.Explorer.Pass then incr pass)
    corpus;
  let dt = Clock.now () - t0 in
  let g1 = Gc.quick_stat () in
  let n = List.length corpus in
  Out.addi o "sim.steps" "count" !steps;
  Out.add o "sim.ns_per_step" "ns" (float_of_int dt /. float_of_int (max 1 !steps));
  Out.add o "sim.minor_words_per_step" "words"
    ((g1.minor_words -. g0.minor_words) /. float_of_int (max 1 !steps));
  Out.addi o "verify.lin_checked_cases" "count" !lin;
  Out.add o "explore.cases_per_s" "1/s" (float_of_int n *. 1e9 /. float_of_int dt);
  (!pass = n, n)

let run o (ck : Out.checks) ~seed =
  let ls, lfill = Workloads.gen_list ~seed in
  let a1 = ladder o ~prefix:"list" ls (list_bottom lfill @ LR.library_rungs lfill) in
  let hs, hfill = Workloads.gen_hash ~seed in
  let a2 = ladder o ~prefix:"hash" hs (hash_bottom hfill @ HR.library_rungs hfill) in
  glue_hop o;
  let ks, kfill = Workloads.gen_kv ~seed in
  let agree, a3 = service o ks kfill in
  Out.check ck agree "battery: K.get and Hashtable.search_ro disagree on the same keys";
  let all_pass, a4 = sim o in
  Out.check ck all_pass "battery: corpus replay had a non-Pass verdict";
  a1 + a2 + a3 + a4
