(* Growable vectors: the arena's per-process free lists.

   [push] is an amortised allocation-free array store and [pop] takes the
   most recently pushed element, blanking its slot. The vector is
   parameterised by a [dummy] element used to blank vacated slots (so it
   never keeps dropped elements alive for the GC).

   Capacity only grows (doubling), so a steady-state workload stops
   allocating entirely. Not thread-safe: every vector is owned by exactly
   one process. *)

type 'a t = { mutable data : 'a array; mutable len : int; dummy : 'a }

let create dummy = { data = Array.make 16 dummy; len = 0; dummy }

let is_empty t = t.len = 0

let grow t =
  let data = Array.make (2 * Array.length t.data) t.dummy in
  Array.blit t.data 0 data 0 t.len;
  t.data <- data

let push t x =
  if t.len = Array.length t.data then grow t;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

(* LIFO pop, blanking the vacated slot: the arena's free lists want the
   most-recently-freed (cache-warm) node first, with no cons per free. *)
let pop t =
  if t.len = 0 then invalid_arg "Vec.pop";
  t.len <- t.len - 1;
  let x = t.data.(t.len) in
  t.data.(t.len) <- t.dummy;
  x
