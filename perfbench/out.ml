(* Metric collection and the result line. *)

type t = { mutable items : (string * float * string) list }

let create () = { items = [] }
let add o name unit v = o.items <- (name, v, unit) :: o.items
let addi o name unit v = add o name unit (float_of_int v)

let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "null"

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' | '\\' -> Buffer.add_char b '\\'; Buffer.add_char b c
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let to_json ~correct ~attempted ~failed o =
  let metrics =
    List.rev_map
      (fun (name, v, unit) ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string name)
          (number v) (json_string unit))
      o.items
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " metrics)

let non_finite o = List.filter_map (fun (n, v, _) -> if Float.is_finite v then None else Some n) o.items

(* Per-layer counts of a traced pass, shared by the real-domain and the
   simulator engines so both print the same names. [d] holds the scheme's
   counters accumulated over the measurement window. *)
let per_kop n ops = if ops = 0 then 0. else 1000. *. float_of_int n /. float_of_int ops

let core_counts o ~row ~ops ~(d : Qs_smr.Smr_intf.stats) ~peak =
  let p = "core." ^ row ^ "." in
  add o (p ^ "retires_per_kop") "1/kop" (per_kop d.retires ops);
  add o (p ^ "scans_per_kop") "1/kop" (per_kop d.scans ops);
  add o (p ^ "epoch_advances_per_kop") "1/kop" (per_kop d.epoch_advances ops);
  add o (p ^ "frees_per_scan") "count"
    (if d.scans = 0 then 0. else float_of_int d.frees /. float_of_int d.scans);
  add o (p ^ "peak_retired") "count" peak

let arena_counts o ~ops ~allocs ~fresh ~peak_outstanding =
  add o "arena.allocs_per_kop" "1/kop" (per_kop allocs ops);
  add o "arena.reuse_ratio" "ratio"
    (if allocs = 0 then 0. else float_of_int (allocs - fresh) /. float_of_int allocs);
  addi o "arena.peak_outstanding" "count" peak_outstanding

let gc_counts o ~ops (a : Gc.stat) (b : Gc.stat) =
  let ops = float_of_int (max 1 ops) in
  add o "gc.minor_words_per_op" "words" ((b.minor_words -. a.minor_words) /. ops);
  add o "gc.minor_collections_per_mop" "1/Mop"
    (1e6 *. float_of_int (b.minor_collections - a.minor_collections) /. ops);
  addi o "gc.major_collections" "count" (b.major_collections - a.major_collections)

(* Checks: each failed check is reported on stderr and fails the run. *)
type checks = { mutable failures : string list }

let checks () = { failures = [] }

let check c cond fmt =
  Printf.ksprintf (fun msg -> if not cond then c.failures <- msg :: c.failures) fmt
