(* Self-tests of the benchmark itself. Run with
   `python3 perfbench/run.py --selftest`. Exits 1 on the first failure. *)

module R = Stacks.R
module HF = Hm_functor.Make (R)

let failures = ref 0

let check name cond =
  Printf.printf "%s %s\n%!" (if cond then "ok  " else "FAIL") name;
  if not cond then incr failures

(* The reference lists of the two bottom ladder rungs answer every op of
   a seeded stream exactly as the library structures do. *)
let agree_with_library () =
  let cfg = Stacks.config ~scheme:Qs_smr.Scheme.None_ ~n_processes:1 ~oracle:true ~switch:0 in
  let run_set name (s : Streams.t) fill lib_apply ref_apply =
    List.iter (fun k -> ignore (lib_apply 1 k); ignore (ref_apply 1 k)) (Array.to_list fill);
    let mismatch = ref 0 in
    for i = 0 to (1 lsl 16) - 1 do
      let k = s.kinds.(i) and a = s.a.(i) in
      if lib_apply k a <> ref_apply k a then incr mismatch
    done;
    check (name ^ ": op-for-op agreement on 65536 seeded ops") (!mismatch = 0)
  in
  let ls, lfill = Workloads.gen_list ~seed:3 in
  let l = Stacks.L.register (Stacks.L.create cfg) ~pid:0 in
  let d = Hm_direct.create () and f = HF.create () in
  let lib k a = Stacks.List_stack.apply l k a 0 in
  let direct k a =
    match k with 0 -> Hm_direct.search d a | 1 -> Hm_direct.insert d a | _ -> Hm_direct.delete d a
  in
  run_set "atomic list vs Linked_list" ls lfill lib direct;
  check "atomic list contents = Linked_list contents" (Hm_direct.to_list d = Stacks.L.to_list l);
  let l2 = Stacks.L.register (Stacks.L.create cfg) ~pid:0 in
  run_set "functor list vs Linked_list" ls lfill
    (fun k a -> Stacks.List_stack.apply l2 k a 0)
    (fun k a -> match k with 0 -> HF.search f a | 1 -> HF.insert f a | _ -> HF.delete f a);
  let hs, hfill = Workloads.gen_hash ~seed:4 in
  let h = Stacks.Hash_stack.register (Stacks.Hash_stack.create cfg) ~pid:0 in
  let t = Hm_direct.create_table ~n_buckets:256 in
  run_set "atomic hash vs Hashtable" hs hfill
    (fun k a -> Stacks.Hash_stack.apply h k a 0)
    (fun k a ->
      match k with 0 -> Hm_direct.tsearch t a | 1 -> Hm_direct.tinsert t a | _ -> Hm_direct.tdelete t a);
  (* the flat reference sets of the timed rounds answer alike too (filled
     here, so they start empty) *)
  let flat n_buckets =
    let r = Reference.set ~n_buckets [||] in
    fun k a -> r.Timing.apply k a 0
  in
  let l3 = Stacks.L.register (Stacks.L.create cfg) ~pid:0 in
  run_set "flat list reference vs Linked_list" ls lfill
    (fun k a -> Stacks.List_stack.apply l3 k a 0)
    (flat 1);
  let h2 = Stacks.Hash_stack.register (Stacks.Hash_stack.create cfg) ~pid:0 in
  run_set "flat hash reference vs Hashtable" hs hfill
    (fun k a -> Stacks.Hash_stack.apply h2 k a 0)
    (flat 256);
  let ks, kfill = Workloads.gen_kv ~seed:5 in
  let kv = Stacks.Kv_stack.create cfg in
  let kc = Stacks.K.register kv ~pid:0 in
  let kref = Reference.kv [||] in
  let mismatch = ref 0 in
  Array.iter (fun k -> ignore (Stacks.K.put kc k); ignore (kref.apply 1 k 0)) kfill;
  for i = 0 to (1 lsl 16) - 1 do
    let k = ks.kinds.(i) and a = ks.a.(i) and b = ks.b.(i) in
    if Stacks.Kv_stack.apply kc k a b <> kref.apply k a b then incr mismatch
  done;
  check "flat kv reference vs Service_real.K: op-for-op agreement on 65536 seeded ops"
    (!mismatch = 0)

let percentiles () =
  let a = Array.init 100 (fun i -> i + 1) in
  check "p50 of 1..100 = 50" (Pctl.percentile a ~n:100 5000 = 50);
  check "p99 of 1..100 = 99" (Pctl.percentile a ~n:100 9900 = 99);
  check "p90 of 1..100 = 90" (Pctl.percentile a ~n:100 9000 = 90);
  check "p100 of 1..100 = 100" (Pctl.percentile a ~n:100 10000 = 100);
  check "p50 of [7] = 7" (Pctl.percentile [| 7 |] ~n:1 5000 = 7);
  let b = Array.init 1000 (fun i -> i + 1) in
  check "p99 of 1..1000 = 990" (Pctl.percentile b ~n:1000 9900 = 990);
  check "p99.9 of 1..1000 = 999" (Pctl.percentile b ~n:1000 9990 = 999);
  check "10 beyond p99 at n=1000" (Pctl.beyond ~n:1000 9900 = 10);
  check "highest reportable n=1000 is p99" (Pctl.highest_reportable ~n:1000 = Some 9900);
  check "highest reportable n=999 is p90" (Pctl.highest_reportable ~n:999 = Some 9000);
  check "highest reportable n=100 is p90" (Pctl.highest_reportable ~n:100 = Some 9000);
  check "highest reportable n=99 is p50" (Pctl.highest_reportable ~n:99 = Some 5000);
  check "highest reportable n=19 is none" (Pctl.highest_reportable ~n:19 = None);
  check "highest reportable n=100000 is p99.99" (Pctl.highest_reportable ~n:100000 = Some 9999);
  check "median of [3;1;2] = 2" (Pctl.median_float [ 3.; 1.; 2. ] = 2.);
  check "median of [4;1;2;3] = 2.5" (Pctl.median_float [ 4.; 1.; 2.; 3. ] = 2.5)

(* Allocation of the timed path, measured as the difference between a
   slice of 2N ops and one of N ops: per-slice bookkeeping cancels, any
   per-op allocation would not. The target itself allocates nothing. *)
let zero_alloc () =
  let s, _ = Workloads.gen_hash ~seed:5 in
  let sink = ref 0 in
  let target = { Timing.apply = (fun k a b -> sink := !sink + k + a + b; a land 1 = 0) } in
  let words f =
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  let per_op name slice =
    let row = Timing.make_row "t" target in
    row.slice <- 10_000;
    ignore (words (fun () -> slice row));
    let w1 = words (fun () -> slice row) in
    row.slice <- 20_000;
    let w2 = words (fun () -> slice row) in
    check (Printf.sprintf "%s: 0 minor words per timed op (%g vs %g per slice)" name w2 w1)
      (w2 = w1)
  in
  let lat = Timing.lat_create (1 lsl 18) in
  let sp = Timing.spans_create ~every:4 (1 lsl 18) in
  per_op "throughput slice" (fun row -> Timing.timed_slice row s);
  per_op "latency slice" (fun row -> Timing.lat_slice row s lat);
  per_op "traced slice" (fun row -> Timing.traced_slice row s sp ~name_base:0);
  (* the reference set, once its buckets have grown to their steady size *)
  let fill = snd (Workloads.gen_hash ~seed:5) in
  let reference = Reference.set ~n_buckets:256 fill in
  let row = Timing.make_row "reference" reference in
  row.slice <- 1 lsl 16;
  Timing.timed_slice row s;
  let w1 = words (fun () -> Timing.timed_slice row s) in
  row.slice <- 1 lsl 17;
  let w2 = words (fun () -> Timing.timed_slice row s) in
  check (Printf.sprintf "reference set: 0 minor words per op (%g vs %g per slice)" w2 w1) (w2 = w1);
  let w = words (fun () -> for _ = 1 to 1000 do ignore (Clock.now ()) done) in
  check "Clock.now allocates nothing" (w = words (fun () -> ()))

let determinism () =
  let same name gen =
    let a, fa = gen ~seed:11 and b, fb = gen ~seed:11 and c, _ = gen ~seed:12 in
    check (name ^ ": same seed, same stream and fill") (Streams.equal a b && fa = fb);
    check (name ^ ": another seed, another stream") (not (Streams.equal a c))
  in
  same "list-read" Workloads.gen_list;
  same "hash-write" Workloads.gen_hash;
  same "kv-zipf" Workloads.gen_kv;
  let r1 = Wl_explore.make_rows ~seed:11 and r2 = Wl_explore.make_rows ~seed:11 in
  check "explore-corpus: same seed, same cases"
    (List.for_all2 (fun (a : Wl_explore.row) (b : Wl_explore.row) -> a.cases = b.cases) r1 r2)

let () =
  R.register_self 0;
  agree_with_library ();
  percentiles ();
  zero_alloc ();
  determinism ();
  if !failures > 0 then begin
    Printf.printf "%d self-test(s) failed\n" !failures;
    exit 1
  end;
  print_endline "all self-tests passed"
