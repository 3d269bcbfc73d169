(** The KV service on real OCaml 5 domains: the instantiation shared with
    callers (bench pins and tests drive the same one), and the default
    {!Qs_harness.Real_exp} setup that replays a {!Qs_workload.Kv_gen}
    trace against it, closed loop, for wall-clock Mops numbers. *)

module K : module type of Kv.Make (Qs_real.Real_runtime)

val default_setup :
  scheme:Qs_smr.Scheme.kind ->
  n_domains:int ->
  gen:Qs_workload.Kv_gen.t ->
  Qs_workload.Kv_spec.op Qs_harness.Real_exp.setup
(** A 4-shard service driven by [gen]; otherwise
    {!Qs_harness.Real_exp.make_setup}'s defaults. *)
