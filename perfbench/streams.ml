(* Pre-generated operation streams. Every timed loop replays one of these
   flat arrays cyclically; no PRNG or generator code runs while timing.
   Lengths are powers of two so the cursor wraps with a mask. *)

type t = {
  kinds : int array;  (** set: 0 search, 1 insert, 2 delete; kv: 0 get, 1 put, 2 del, 3 scan *)
  a : int array;  (** key (scan: low end) *)
  b : int array;  (** scan: high end; 0 otherwise *)
}

let length s = Array.length s.kinds

type set_shape = { key_range : int; insert_pct : int; delete_pct : int }

let gen_set ~seed ~log_len sh =
  let prng = Qs_util.Prng.create ~seed in
  let n = 1 lsl log_len in
  let kinds = Array.make n 0 and a = Array.make n 0 in
  for i = 0 to n - 1 do
    let pct = Qs_util.Prng.percent prng in
    kinds.(i) <-
      (if pct < sh.insert_pct then 1
       else if pct < sh.insert_pct + sh.delete_pct then 2
       else 0);
    a.(i) <- Qs_util.Prng.int prng sh.key_range
  done;
  { kinds; a; b = Array.make n 0 }

(* A seeded half of the key range: the initial contents of a set. *)
let set_fill ~seed sh =
  let keys = Array.init sh.key_range Fun.id in
  Qs_util.Prng.shuffle (Qs_util.Prng.create ~seed:(seed lxor 0x5eed)) keys;
  Array.sub keys 0 (sh.key_range / 2)

let gen_kv ~seed ~log_len spec =
  let prng = Qs_util.Prng.create ~seed in
  let n = 1 lsl log_len in
  let kinds = Array.make n 0 and a = Array.make n 0 and b = Array.make n 0 in
  for i = 0 to n - 1 do
    let op = Qs_workload.Kv_spec.pick prng spec in
    kinds.(i) <- Qs_workload.Kv_spec.kind_index op;
    match op with
    | Get k | Put k | Del k -> a.(i) <- k
    | Scan (lo, hi) ->
      a.(i) <- lo;
      b.(i) <- hi
  done;
  { kinds; a; b }

let equal s1 s2 = s1.kinds = s2.kinds && s1.a = s2.a && s1.b = s2.b
