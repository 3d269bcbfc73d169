(** The KV service on the deterministic simulator: the instantiation
    shared with tests, and the default {!Qs_harness.Sim_exp} setup that
    replays a {!Qs_workload.Kv_gen} trace against it (open-loop arrivals:
    a request's latency runs from its scheduled arrival to completion, so
    queueing behind a reclamation pause lands in the tail percentiles). *)

module K : module type of Kv.Make (Qs_sim.Sim_runtime)

val default_setup :
  scheme:Qs_smr.Scheme.kind ->
  n_processes:int ->
  gen:Qs_workload.Kv_gen.t ->
  Qs_workload.Kv_spec.op Qs_harness.Sim_exp.setup
(** A 4-shard service driven by [gen]; otherwise
    {!Qs_harness.Sim_exp.make_setup}'s defaults. *)
