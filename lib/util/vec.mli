(** Growable vectors for the arena's per-process free lists. [push] is an
    amortised allocation-free array store; [pop] is LIFO. Capacity doubles
    on demand, so a steady-state workload performs no heap allocation at
    all. Single-owner: not thread-safe. *)

type 'a t

val create : 'a -> 'a t
(** [create dummy] — [dummy] blanks vacated slots so the vector
    never keeps dropped elements alive for the GC. *)

val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit
(** Amortised O(1), allocation-free once capacity has been reached. *)

val pop : 'a t -> 'a
(** Remove and return the last element (LIFO), blanking its slot.
    Allocation-free. Raises [Invalid_argument] on an empty vector. *)
