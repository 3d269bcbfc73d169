(** What an experiment driver runs: a target (a concurrent set or the KV
    service, instantiated on one runtime) and the request stream its
    workers replay against it. {!Sim_exp} and {!Real_exp} are each one
    worker loop over these two. *)

module Spec = Qs_workload.Spec
module Kv_spec = Qs_workload.Kv_spec

module type S = sig
  type t
  type ctx
  type op

  val create : Qs_ds.Set_intf.config -> t
  val register : t -> pid:int -> ctx
  val unregister : ctx -> unit

  val fill : ctx -> int -> unit
  (** Insert one initial key (the pre-fill). *)

  val apply : ctx -> op -> unit
  val flush : ctx -> unit

  val contents : ctx -> int list
  (** Final keys, sorted (sequential context). *)

  val live_nodes : ctx -> int
  (** Arena nodes the final contents account for: the teardown leak
      baseline (sequential context). *)

  val report : t -> Qs_ds.Set_intf.report
  val violations : t -> int
  val outstanding : t -> int
end

type 'op t = (module S with type op = 'op)

let of_set (module C : Cset.S) : Spec.op t =
  (module struct
    include C

    type op = Spec.op

    let fill ctx k = ignore (C.insert ctx k)

    let apply ctx = function
      | Spec.Search k -> ignore (C.search ctx k)
      | Spec.Insert k -> ignore (C.insert ctx k)
      | Spec.Delete k -> ignore (C.delete ctx k)

    let contents = C.to_list
    let live_nodes ctx = C.nodes_per_key * C.size ctx
  end)

(** The request stream. Pre-generated streams are indexed by the worker's
    completed-request count, so a neutralized (aborted) request is retried
    and every scheme replays the same logical sequence. *)
type _ stream =
  | Pick : Spec.t -> Spec.op stream  (** on-line [Spec.pick] draws *)
  | Pregen : Qs_workload.Generator.t -> Spec.op stream
  | Trace : Qs_workload.Kv_gen.t -> Kv_spec.op stream
      (** KV requests with open-loop arrival times *)

let initial_keys : type op. op stream -> int list = function
  | Pick spec -> Spec.initial_keys spec
  | Pregen g -> Spec.initial_keys (Qs_workload.Generator.spec g)
  | Trace g -> Kv_spec.initial_keys (Qs_workload.Kv_gen.spec g)

let op : type op. op stream -> Qs_util.Prng.t -> pid:int -> i:int -> op =
 fun stream prng ~pid ~i ->
  match stream with
  | Pick spec -> Spec.pick prng spec
  | Pregen g -> Qs_workload.Generator.op g ~pid ~i
  | Trace g -> Qs_workload.Kv_gen.op g ~pid ~i

let n_kinds : type op. op stream -> int = function
  | Pick _ | Pregen _ -> Spec.n_kinds
  | Trace _ -> Kv_spec.n_kinds

let kind_index : type op. op stream -> op -> int =
 fun stream op ->
  match stream with
  | Pick _ -> Spec.kind_index op
  | Pregen _ -> Spec.kind_index op
  | Trace _ -> Kv_spec.kind_index op

let kind_name : type op. op stream -> int -> string = function
  | Pick _ | Pregen _ -> Spec.kind_name
  | Trace _ -> Kv_spec.kind_name
