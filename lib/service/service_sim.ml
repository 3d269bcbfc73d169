module K = Kv.Make (Qs_sim.Sim_runtime)

let default_setup ~scheme ~n_processes ~gen =
  Qs_harness.Sim_exp.make_setup ~target:(K.target ~n_shards:4)
    ~stream:(Qs_harness.Target.Trace gen) ~scheme ~n_processes
