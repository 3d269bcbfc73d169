(** Pre-generated deterministic operation streams: the same logical
    sequence of operations, replayable against different schemes or
    structures (needed when comparing per-operation latencies, where the
    i-th operation must be identical across runs). *)

type t

val make : Spec.t -> n_processes:int -> ops_per_process:int -> seed:int -> t

val spec : t -> Spec.t

val stream : t -> pid:int -> Spec.op array
(** Process [pid]'s operations, in execution order. *)

val op : t -> pid:int -> i:int -> Spec.op
(** The [i]-th operation of process [pid], cycling past the end of the
    pre-generated stream (workers that outlive it stay deterministic). *)

val length : t -> int
val n_processes : t -> int

val census : Spec.op array -> int * int * int
(** (searches, inserts, deletes) in a stream. *)
