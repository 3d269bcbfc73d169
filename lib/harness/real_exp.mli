(** The experiment driver over real OCaml 5 domains — the {!Sim_exp} shape
    on {!Qs_real.Real_runtime}: N worker domains replay a request stream
    against one target for a wall-clock duration, with an optional stalled
    victim and worker churn. Pre-generated streams and KV traces are
    replayed closed loop (as fast as the machine allows; the simulator owns
    exact open-loop latency). On a machine with enough cores this
    reproduces the paper's curves natively; on fewer cores domains
    timeshare, so use the simulator for scalability shapes and this driver
    for real-fence smoke tests and demos. Roosters are started
    automatically for schemes that need them. *)

type churn = {
  generations : int;  (** worker generations per pid slot; 1 = no churn *)
  downtime_ms : int;  (** slot left empty between generations *)
}

type 'op setup = {
  target : 'op Target.t;
  stream : 'op Target.stream;
  scheme : Qs_smr.Scheme.kind;
  n_domains : int;
  duration_ms : int;
  seed : int;
  capacity : int option;
  stall_victim_after_ms : int option;
      (** the highest-pid domain stops working (without quiescing) at this
          instant and resumes at twice it *)
  churn : churn option;
      (** worker churn via {!Qs_real.Domain_pool.run_generations}: each pid
          slot runs [generations] successive worker domains over the
          duration; every generation but the last unregisters its SMR slot
          on exit (limbo lists donated to the orphan pool), and the next
          generation re-registers under the same pid after [downtime_ms] *)
  latency : Qs_obs.Latency.recorder option;
      (** per-{pid × op-kind} latency histograms + top-K outliers, timed
          with the allocation-free coarse clock
          ({!Qs_real.Real_runtime.now_coarse}: one atomic load) so the
          recording path stays at 0 minor words per op. Durations are
          quantized to the rooster interval — use the simulator for exact
          percentiles; this measures recording overhead and catches
          rooster-interval-scale stalls. Forces roosters on (they feed
          the coarse clock). *)
  sink : Qs_intf.Runtime_intf.sink option;
      (** trace sink (e.g. [Qs_obs.Tracer.sink]) installed for the worker
          phase and removed before return; [None] = tracing off. Event
          timestamps are coarse-clock nanoseconds. *)
  smr_tweak : Qs_smr.Smr_intf.config -> Qs_smr.Smr_intf.config;
}

val make_setup :
  target:'op Target.t ->
  stream:'op Target.stream ->
  scheme:Qs_smr.Scheme.kind ->
  n_domains:int ->
  'op setup
(** 200 ms, seed 1, no cap, no stall, no churn, no recorder, no sink. *)

val default_setup :
  ds:Cset.kind ->
  scheme:Qs_smr.Scheme.kind ->
  n_domains:int ->
  workload:Qs_workload.Spec.t ->
  Qs_workload.Spec.op setup
(** {!make_setup} on the real-runtime instantiation of [ds], drawing
    operations on-line from [workload]. *)

type result = {
  ops_total : int;
  per_kind_ops : int array;  (** indexed by the stream's op-kind index *)
  throughput_mops : float;
  violations : int;
  failed : bool;  (** some domain hit the arena capacity *)
  churn_events : int;
      (** completed leave/rejoin cycles across all slots (0 without churn) *)
  final_size : int;
  report : Qs_ds.Set_intf.report;  (** captured before the teardown flush *)
  leak_check : [ `Ok | `Leaked of int | `Skipped ];
      (** after the workers join and every context is flushed:
          outstanding nodes vs live nodes *)
}

val rooster_interval_ns : int

val cset_of : Cset.kind -> (module Cset.S)
(** The real-runtime instantiation of each structure. *)

val run : 'op setup -> result
(** Fill from the main domain (shuffled), run the workers to the deadline,
    then collect statistics and perform the teardown leak check. Per-run
    request totals and throughput also go to {!Qs_obs.Registry.global}
    ([service_*] names for a KV trace, [set_*] otherwise). *)
