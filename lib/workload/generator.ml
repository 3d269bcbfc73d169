(* Pre-generated deterministic operation streams.

   Drawing operations lazily from a per-process PRNG (as Spec.pick does) is
   enough for throughput runs, but some experiments want the *same* logical
   operation sequence replayed against different schemes or structures —
   e.g. per-operation latency comparisons, where the i-th operation must be
   identical across runs. A generator materialises those streams up front. *)

type t = { spec : Spec.t; streams : Spec.op array array }

let make spec ~n_processes ~ops_per_process ~seed =
  if n_processes <= 0 then invalid_arg "Generator.make: n_processes";
  (* 0 would make the cyclic [op] accessor divide by zero ([i mod 0]). *)
  if ops_per_process <= 0 then
    invalid_arg "Generator.make: ops_per_process must be positive";
  let master = Qs_util.Prng.create ~seed in
  let streams =
    Array.init n_processes (fun _ ->
        let prng = Qs_util.Prng.split master in
        Array.init ops_per_process (fun _ -> Spec.pick prng spec))
  in
  { spec; streams }

let spec t = t.spec

let stream t ~pid = t.streams.(pid)

(* Cyclic access: workers that outlive their pre-generated stream wrap
   around, keeping the sequence deterministic without bounding the run. *)
let op t ~pid ~i =
  let s = t.streams.(pid) in
  s.(i mod Array.length s)

let length t = Array.length t.streams.(0)

let n_processes t = Array.length t.streams

(* Mix statistics of one stream — used by tests to sanity-check that the
   generator honours the spec's distribution. *)
let census ops =
  Array.fold_left
    (fun (s, i, d) op ->
      match op with
      | Spec.Search _ -> (s + 1, i, d)
      | Spec.Insert _ -> (s, i + 1, d)
      | Spec.Delete _ -> (s, i, d + 1))
    (0, 0, 0) ops
