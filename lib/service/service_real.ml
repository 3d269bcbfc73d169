module K = Kv.Make (Qs_real.Real_runtime)

let default_setup ~scheme ~n_domains ~gen =
  Qs_harness.Real_exp.make_setup ~target:(K.target ~n_shards:4)
    ~stream:(Qs_harness.Target.Trace gen) ~scheme ~n_domains
