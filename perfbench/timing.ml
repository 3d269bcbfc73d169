(* The timed path: slices of a pre-generated stream replayed through one
   closure per stack under test, rows interleaved round by round so that
   machine drift hits every row alike. Nothing here allocates per timed
   operation (selftest.ml pins this): the clock is an unboxed noalloc
   external, samples and spans go into preallocated int arrays. *)

(* One stack under test: [apply kind a b] performs one stream operation and
   returns its boolean outcome (set/put/del succeeded, key found; scans
   return [true]). *)
type target = { apply : int -> int -> int -> bool }

(* Per-operation latencies, one sample per timed op of a latency slice. *)
type lat = { durs : int array; lkinds : int array; mutable n : int }

let lat_create cap = { durs = Array.make cap 0; lkinds = Array.make cap 0; n = 0 }

let lat_add l kind d =
  if l.n < Array.length l.durs then begin
    Array.unsafe_set l.durs l.n d;
    Array.unsafe_set l.lkinds l.n kind;
    l.n <- l.n + 1
  end

(* Sorted durations of one kind ([-1] = all kinds). *)
let lat_sorted l ~kind =
  let out = Array.make l.n 0 and m = ref 0 in
  for i = 0 to l.n - 1 do
    if kind < 0 || l.lkinds.(i) = kind then begin
      out.(!m) <- l.durs.(i);
      incr m
    end
  done;
  Pctl.sort_prefix out !m

(* Spans around calls into a layer's public functions: name id, start,
   end, parent span index ([-1] = none) and request id. One op in
   [every] is recorded (every is a power of two). *)
type spans = {
  every : int;
  sname : int array;
  sstart : int array;
  sstop : int array;
  sparent : int array;
  sreq : int array;
  mutable m : int;
}

let spans_create ~every cap =
  { every;
    sname = Array.make cap 0;
    sstart = Array.make cap 0;
    sstop = Array.make cap 0;
    sparent = Array.make cap 0;
    sreq = Array.make cap 0;
    m = 0 }

let span_add sp ~name ~start ~stop ~parent ~req =
  let i = sp.m in
  if i < Array.length sp.sname then begin
    Array.unsafe_set sp.sname i name;
    Array.unsafe_set sp.sstart i start;
    Array.unsafe_set sp.sstop i stop;
    Array.unsafe_set sp.sparent i parent;
    Array.unsafe_set sp.sreq i req;
    sp.m <- i + 1
  end;
  i

let run_slice t (s : Streams.t) ~cursor ~count ok =
  let mask = Streams.length s - 1 in
  for i = cursor to cursor + count - 1 do
    let j = i land mask in
    let k = Array.unsafe_get s.kinds j in
    if t.apply k (Array.unsafe_get s.a j) (Array.unsafe_get s.b j) then
      Array.unsafe_set ok k (Array.unsafe_get ok k + 1)
  done

(* One clock read per op: each op's duration is the gap between
   consecutive reads, so the loop and the recording are charged too (a
   few ns), but no second read per op is. *)
let run_slice_lat t (s : Streams.t) ~cursor ~count ok lat =
  let mask = Streams.length s - 1 in
  let prev = ref (Clock.now ()) in
  for i = cursor to cursor + count - 1 do
    let j = i land mask in
    let k = Array.unsafe_get s.kinds j in
    if t.apply k (Array.unsafe_get s.a j) (Array.unsafe_get s.b j) then
      Array.unsafe_set ok k (Array.unsafe_get ok k + 1);
    let now = Clock.now () in
    lat_add lat k (now - !prev);
    prev := now
  done

(* Traced slice: a span around one op in [sp.every]; span names are
   [name_base + kind]. *)
let run_slice_traced t (s : Streams.t) ~cursor ~count ok sp ~name_base =
  let mask = Streams.length s - 1 in
  let sample = sp.every - 1 in
  for i = cursor to cursor + count - 1 do
    let j = i land mask in
    let k = Array.unsafe_get s.kinds j in
    let a = Array.unsafe_get s.a j and b = Array.unsafe_get s.b j in
    if i land sample = 0 then begin
      let start = Clock.now () in
      let r = t.apply k a b in
      let stop = Clock.now () in
      ignore (span_add sp ~name:(name_base + k) ~start ~stop ~parent:(-1) ~req:i);
      if r then Array.unsafe_set ok k (Array.unsafe_get ok k + 1)
    end
    else if t.apply k a b then Array.unsafe_set ok k (Array.unsafe_get ok k + 1)
  done

type row = {
  name : string;
  target : target;
  mutable cursor : int;
  ok : int array;  (** successful ops per kind, timed and untimed *)
  mutable attempted : int;
  mutable timed_ops : int;
  mutable timed_ns : int;
  mutable rates : float list;  (** ops/s of each timed slice, newest first *)
  mutable slice : int;  (** ops per slice, calibrated in warm-up *)
  mutable failed : int;
  mutable broken : string option;
  probe : unit -> unit;  (** called between slices (occupancy sampling) *)
}

let make_row ?(probe = ignore) name target =
  { name;
    target;
    cursor = 0;
    ok = Array.make 4 0;
    attempted = 0;
    timed_ops = 0;
    timed_ns = 0;
    rates = [];
    slice = 1024;
    failed = 0;
    broken = None;
    probe }

let guarded row f =
  match row.broken with
  | Some _ -> ()
  | None -> (
    try f ()
    with e ->
      row.failed <- row.failed + 1;
      row.broken <- Some (Printexc.to_string e))

(* Untimed ops on a row (warm-up, fill-adjacent passes). *)
let advance row s count =
  guarded row (fun () ->
      run_slice row.target s ~cursor:row.cursor ~count row.ok;
      row.cursor <- row.cursor + count;
      row.attempted <- row.attempted + count)

(* Warm up until [settled ()] holds after a chunk (or [max_s] seconds
   pass), then size slices to about [slice_ns] of work each. *)
let warm_up row s ~settled ~max_s ~slice_ns =
  let chunk = 256 in
  let t0 = Clock.now () in
  let deadline = t0 + int_of_float (max_s *. 1e9) in
  let ops = ref 0 in
  let continue = ref true in
  while !continue do
    advance row s chunk;
    ops := !ops + chunk;
    let now = Clock.now () in
    if row.broken <> None || now >= deadline || (!ops >= 4 * chunk && settled ())
    then continue := false
  done;
  let ns_per_op = float_of_int (Clock.now () - t0) /. float_of_int (max 1 !ops) in
  row.slice <- max 64 (int_of_float (slice_ns /. Float.max 1. ns_per_op))

let measured row run =
  guarded row (fun () ->
      let count = row.slice in
      let t0 = Clock.now () in
      run count;
      let dt = Clock.now () - t0 in
      row.cursor <- row.cursor + count;
      row.attempted <- row.attempted + count;
      row.timed_ops <- row.timed_ops + count;
      row.timed_ns <- row.timed_ns + dt;
      row.rates <- (float_of_int count *. 1e9 /. float_of_int (max 1 dt)) :: row.rates);
  row.probe ()

let timed_slice row s =
  measured row (fun count -> run_slice row.target s ~cursor:row.cursor ~count row.ok)

let traced_slice row s sp ~name_base =
  measured row (fun count ->
      run_slice_traced row.target s ~cursor:row.cursor ~count row.ok sp ~name_base)

let lat_slice row s lat =
  guarded row (fun () ->
      let count = row.slice in
      run_slice_lat row.target s ~cursor:row.cursor ~count row.ok lat;
      row.cursor <- row.cursor + count;
      row.attempted <- row.attempted + count)

(* Rounds until [deadline] (and at least [min_rounds]): every row runs one
   timed slice per round, in a rotating order, then [extra] runs (latency
   slices). *)
let rounds ~deadline ~min_rounds rows ~slice ~extra =
  let rows = Array.of_list rows in
  let n = Array.length rows in
  let r = ref 0 in
  while !r < min_rounds || Clock.now () < deadline do
    for i = 0 to n - 1 do
      slice rows.((i + !r) mod n)
    done;
    extra ();
    incr r
  done;
  !r

let ops_per_s row = float_of_int row.timed_ops *. 1e9 /. float_of_int (max 1 row.timed_ns)

(* Throughput of [row] relative to [base]: the median over rounds of the
   ratio of their slices in the same round. The host's speed drifts (a
   pure integer loop on the reference VM swings by 25% within a minute);
   rows that ran within the same round share the phase, so the per-round
   ratio cancels it. *)
let rel row ~base =
  if List.length row.rates <> List.length base.rates then nan
  else Pctl.median_float (List.map2 (fun r b -> r /. b) row.rates base.rates)
