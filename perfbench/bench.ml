(* The benchmark program. Usage (normally through perfbench/run.py):

     bench.exe --workload W --seed N --seconds S --trace 0|1
               [--revision REV] [--nproc N] [--spans-out FILE]

   Prints a manifest line, then as its last line one JSON object
   {correct, attempted, failed, metrics}: the end-to-end metrics with
   --trace 0, the per-layer metrics with --trace 1. Exits 1 if any
   correctness check failed. *)

let workloads = [ "list-read"; "hash-write"; "kv-zipf"; "explore-corpus" ]

(* Every workload drives exactly one busy worker domain: the main domain.
   Two busy domains on a 2-vCPU VM gave bimodal throughput (see
   README.md); peers and roosters sleep. *)
let busy_workers = 1

module LW = Wl_real.Make (Stacks.List_stack)
module HW = Wl_real.Make (Stacks.Hash_stack)
module KW = Wl_real.Make (Stacks.Kv_stack)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let revision = ref "unknown" and nproc = ref 0 in
  Arg.parse
    [ "--workload", Arg.Set_string workload, " one of " ^ String.concat ", " workloads;
      "--seed", Arg.Set_int seed, " workload seed";
      "--seconds", Arg.Set_float seconds, " measured seconds";
      "--trace", Arg.Set_int trace, " 1 = traced per-layer run";
      "--revision", Arg.Set_string revision, " revision under test (manifest)";
      "--nproc", Arg.Set_int nproc, " online CPUs (manifest)";
      "--spans-out", Arg.String (fun p -> Spans.out_path := Some p), " span dump file";
      "--corpus", Arg.Set_string Wl_explore.corpus_path, " explorer corpus file" ]
    (fun a -> raise (Arg.Bad a))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("unknown workload: " ^ !workload);
    exit 2
  end;
  if busy_workers > Domain.recommended_domain_count () then begin
    Printf.eprintf "refusing: %d busy worker domains > recommended_domain_count %d\n"
      busy_workers (Domain.recommended_domain_count ());
    exit 2
  end;
  let traced = !trace = 1 in
  let out = Out.create () and checks = Out.checks () in
  Stacks.R.register_self 0;
  let roosters = Qs_real.Roosters.start ~interval_ns:Stacks.rooster_interval_ns ~n:1 in
  let real ?(setup_reps = 15) spec run =
    let ctx = { Wl_real.out; checks; seconds = !seconds; trace = traced; setup_reps; roosters } in
    run ctx spec ~seed:!seed
  in
  let spec gen name_base oracle_ops reference nominal =
    { Wl_real.gen; name_base; oracle_ops; reference; nominal }
  in
  let attempted, failed, timed, setup_raw_s =
    match !workload with
    | "list-read" ->
      real
        (spec Workloads.gen_list Spans.base_set 20_000 (Reference.set ~n_buckets:1) Workloads.list_nominal)
        LW.run
    | "hash-write" ->
      real
        (spec Workloads.gen_hash Spans.base_set 200_000 (Reference.set ~n_buckets:256)
           Workloads.hash_nominal)
        HW.run
    | "kv-zipf" ->
      (* a kv set-up takes ~0.6 s *)
      real ~setup_reps:9
        (spec Workloads.gen_kv Spans.base_kv 100_000 Reference.kv Workloads.kv_nominal)
        KW.run
    | _ ->
      Wl_explore.run
        { Wl_explore.out;
          checks;
          seconds = !seconds;
          trace = traced;
          setup_reps = 201;
          nominal = Workloads.explore_nominal;
          roosters }
        ~seed:!seed
  in
  let attempted =
    if traced then attempted + Battery.run out checks ~seed:!seed else attempted
  in
  Qs_real.Roosters.stop roosters;
  List.iter
    (fun n -> Out.check checks false "metric %s is not a finite number" n)
    (Out.non_finite out);
  let correct = checks.failures = [] in
  List.iter (fun m -> prerr_endline ("CHECK FAILED: " ^ m)) (List.rev checks.failures);
  let js = Out.json_string in
  let rows =
    List.map
      (fun (n, ops, ns) ->
        Printf.sprintf "%s: {\"timed_ops\": %d, \"ops_per_s\": %.1f}" (js n) ops
          (float_of_int ops *. 1e9 /. float_of_int (max 1 ns)))
      timed
  in
  let manifest =
    Printf.sprintf
      "{\"revision\": %s, \"ocaml\": %s, \"flambda\": %b, \"nproc\": %d, \
       \"recommended_domain_count\": %d, \"busy_worker_domains\": %d, \"workload\": %s, \
       \"seed\": %d, \"seconds\": %g, \"trace\": %b, \"ocamlrunparam\": %s, \"setup_raw_s\": %.6f, \"rows\": {%s}}"
      (js !revision) (js Sys.ocaml_version) Build_info.flambda !nproc
      (Domain.recommended_domain_count ())
      busy_workers (js !workload) !seed !seconds traced
      (js (Option.value ~default:"" (Sys.getenv_opt "OCAMLRUNPARAM")))
      setup_raw_s (String.concat ", " rows)
  in
  print_endline ("manifest " ^ manifest);
  let failed = if correct then failed else attempted in
  print_endline (Out.to_json ~correct ~attempted:(max 1 attempted) ~failed out);
  exit (if correct then 0 else 1)
