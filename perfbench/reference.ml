(* The benchmark's own reference stacks. A reference row replays the
   workload's stream in every round beside the rows under test; its
   throughput in a round measures the host's speed at that moment, and
   time metrics are reported at the reference's nominal speed. The
   reference uses no library code, so a program change cannot move it,
   and a speedup of any library layer, shared by every row or not, shows
   in the gated metrics the right way round.

   The reference set keeps each bucket's keys sorted in a slice of one
   flat int array and searches it linearly. It allocates nothing per
   operation, and its memory layout stops changing once its buckets have
   grown to their largest, during the fill or soon after. (A linked
   reference such as Hm_direct gets a fresh heap layout in every run,
   and its speed relative to the library rows then moved by 10% from run
   to run on the reference machine.) *)

let set_target ~search ~insert ~delete =
  { Timing.apply = (fun k a _ -> match k with 0 -> search a | 1 -> insert a | _ -> delete a) }

let filled create insert fill =
  let t = create () in
  Array.iter (fun k -> ignore (insert t k)) fill;
  t

module Flat = struct
  type t = {
    mutable keys : int array;  (** bucket [i] holds [keys.(i * cap) ..] *)
    counts : int array;
    mutable cap : int;
    bits : int;
  }

  let create ~n_buckets ~cap =
    let bits = ref 0 in
    while 1 lsl !bits < n_buckets do incr bits done;
    if 1 lsl !bits <> n_buckets then invalid_arg "Flat.create: n_buckets must be a power of two";
    { keys = Array.make (n_buckets * cap) 0; counts = Array.make n_buckets 0; cap; bits = !bits }

  (* multiplicative hashing: the top [bits] bits of the 63-bit product *)
  let bucket t key = if t.bits = 0 then 0 else (key * 0x4F1BBCDCBFA53E0B) lsr (63 - t.bits)

  (* index of the first key >= [key] in bucket [b] *)
  let find t b key =
    let base = b * t.cap in
    let stop = base + Array.unsafe_get t.counts b in
    let i = ref base in
    while !i < stop && Array.unsafe_get t.keys !i < key do incr i done;
    !i

  let search t key =
    let b = bucket t key in
    let i = find t b key in
    i < (b * t.cap) + t.counts.(b) && t.keys.(i) = key

  let grow t =
    let cap = 2 * t.cap in
    let keys = Array.make (Array.length t.counts * cap) 0 in
    Array.iteri (fun b n -> Array.blit t.keys (b * t.cap) keys (b * cap) n) t.counts;
    t.keys <- keys;
    t.cap <- cap

  let rec insert t key =
    let b = bucket t key in
    let i = find t b key in
    let stop = (b * t.cap) + t.counts.(b) in
    if i < stop && t.keys.(i) = key then false
    else if t.counts.(b) = t.cap then begin
      grow t;
      insert t key
    end
    else begin
      Array.blit t.keys i t.keys (i + 1) (stop - i);
      t.keys.(i) <- key;
      t.counts.(b) <- t.counts.(b) + 1;
      true
    end

  let delete t key =
    let b = bucket t key in
    let i = find t b key in
    let stop = (b * t.cap) + t.counts.(b) in
    if i < stop && t.keys.(i) = key then begin
      Array.blit t.keys (i + 1) t.keys i (stop - i - 1);
      t.counts.(b) <- t.counts.(b) - 1;
      true
    end
    else false
end

let flat ~n_buckets fill =
  filled (fun () -> Flat.create ~n_buckets ~cap:16) Flat.insert fill

(* set streams (search/insert/delete): a list is one bucket *)
let set ~n_buckets fill =
  let d = flat ~n_buckets fill in
  set_target ~search:(Flat.search d) ~insert:(Flat.insert d) ~delete:(Flat.delete d)

(* kv streams: get/put/del as search/insert/delete on as many buckets as
   the four shards have; a scan searches every key of its range. *)
let kv fill =
  let d = flat ~n_buckets:1024 fill in
  { Timing.apply =
      (fun k a b ->
        match k with
        | 0 -> Flat.search d a
        | 1 -> Flat.insert d a
        | 2 -> Flat.delete d a
        | _ ->
          for key = a to b do ignore (Flat.search d key) done;
          true) }

(* The host's speed relative to the reference's nominal rate: above 1 on
   a faster host or phase. Normalised throughput = measured / factor;
   normalised time = measured * factor. *)
let factor ~nominal rate = rate /. nominal

(* A set-up probe: times about [probe_s] seconds' worth (at nominal
   speed) of the next operations of [s] on [target], continuing from the
   previous probe, and returns the speed factor they show. *)
let prober ?(probe_s = 0.01) target (s : Streams.t) ~nominal =
  let ok = Array.make 4 0 and cursor = ref 0 in
  let ops = max 64 (int_of_float (nominal *. probe_s)) in
  fun () ->
    let t0 = Clock.now () in
    Timing.run_slice target s ~cursor:!cursor ~count:ops ok;
    let dt = Clock.now () - t0 in
    cursor := !cursor + ops;
    factor ~nominal (float_of_int ops *. 1e9 /. float_of_int (max 1 dt))
