(* Properties of the hot-path machinery introduced for allocation-free
   publication, retire and scan:

   - the production id scan set ([Hp_array.snapshot_into] /
     [protects_set]) agrees with a list-based model of the slots on random
     hazard-pointer assignments and clears;
   - [Qs_util.Int_set] agrees with a [Set.Make(Int)] model under random
     add/mem/reset sequences, including negative keys and growth;
   - retire is allocation-free in steady state for all five schemes, and
     so is the scan membership path (snapshot + probes), both measured
     with [Gc.minor_words] on the real runtime after a warm-up;
   - publication and clearing through [Smr_glue] handles allocate exactly
     nothing, for every scheme. *)

module R = Qs_real.Real_runtime

type fake = { fid : int; mutable freed : int }

module N = struct
  type t = fake

  let id n = n.fid
end

module Hp = Qs_smr.Hp_array.Make (R) (N)

(* --- membership set vs list model ----------------------------------------- *)

(* The seed's hazard-pointer array, kept as the model: node-valued slots,
   a snapshot that conses every non-dummy slot, and [List.memq]
   membership by physical identity. *)
module Model = struct
  type t = { slots : fake array array; dummy : fake }

  let create ~n ~k ~dummy = { slots = Array.init n (fun _ -> Array.make k dummy); dummy }
  let assign t ~pid ~slot n = t.slots.(pid).(slot) <- n
  let clear t ~pid = Array.fill t.slots.(pid) 0 (Array.length t.slots.(pid)) t.dummy

  let snapshot t =
    Array.fold_left
      (Array.fold_left (fun acc n -> if n != t.dummy then n :: acc else acc))
      [] t.slots

  let protects snapshot n = List.memq n snapshot
end

let publishers hp ~n = Array.init n (fun pid -> Hp.publisher hp ~pid ~fenced:false)

(* Every pool node (and the dummy) gets the same verdict from the id scan
   set as from the list model. *)
let agrees hp model pool =
  let reference = Model.snapshot model in
  let set = Hp.scan_set hp in
  Hp.snapshot_into hp set;
  Array.for_all
    (fun node -> Hp.protects_set set node = Model.protects reference node)
    pool
  && not (Hp.protects_set set model.Model.dummy)

(* A random HP table: n x k slots, each either the dummy or a pool node
   (duplicates across slots allowed). The hash set and the list model are
   both snapshotted and compared on every pool node. *)
let prop_scan_set_matches_reference =
  let gen =
    QCheck.Gen.(
      triple (int_range 1 8) (int_range 1 8)
        (list_size (int_range 0 80) (int_range (-1) 31)))
  in
  QCheck.Test.make ~name:"scan set agrees with list snapshot/protects"
    ~count:500
    (QCheck.make gen)
    (fun (n, k, assignments) ->
      let dummy = { fid = -42; freed = 0 } in
      let pool = Array.init 32 (fun i -> { fid = 100 + i; freed = 0 }) in
      let hp = Hp.create ~n ~k ~dummy in
      let model = Model.create ~n ~k ~dummy in
      let pub = publishers hp ~n in
      List.iteri
        (fun i choice ->
          let pid = i mod n and slot = i / n mod k in
          let node = if choice < 0 then dummy else pool.(choice) in
          pub.(pid) ~slot node;
          Model.assign model ~pid ~slot node)
        assignments;
      agrees hp model pool)

(* Random interleavings of publications and row clears: the scan set
   agrees with the model after every step, and right after a clear no
   slot of the cleared row protects anything. *)
let prop_assign_clear_matches_model =
  let cmd n k =
    QCheck.Gen.(
      frequency
        [ (5,
           map3
             (fun pid slot c -> `Assign (pid, slot, c))
             (int_bound (n - 1)) (int_bound (k - 1)) (int_range (-1) 15));
          (1, map (fun pid -> `Clear pid) (int_bound (n - 1))) ])
  in
  let gen =
    QCheck.Gen.(
      pair (int_range 1 6) (int_range 1 6) >>= fun (n, k) ->
      map (fun cmds -> (n, k, cmds)) (list_size (int_range 0 60) (cmd n k)))
  in
  QCheck.Test.make ~name:"scan set tracks the model under assign/clear"
    ~count:300 (QCheck.make gen)
    (fun (n, k, cmds) ->
      let dummy = { fid = -42; freed = 0 } in
      let pool = Array.init 16 (fun i -> { fid = 100 + i; freed = 0 }) in
      let hp = Hp.create ~n ~k ~dummy in
      let model = Model.create ~n ~k ~dummy in
      let pub = publishers hp ~n in
      List.for_all
        (fun c ->
          match c with
          | `Assign (pid, slot, choice) ->
            let node = if choice < 0 then dummy else pool.(choice) in
            pub.(pid) ~slot node;
            Model.assign model ~pid ~slot node;
            agrees hp model pool
          | `Clear pid ->
            let row = Array.copy model.Model.slots.(pid) in
            Hp.clear hp ~pid;
            Model.clear model ~pid;
            let others = Model.snapshot model in
            let set = Hp.scan_set hp in
            Hp.snapshot_into hp set;
            agrees hp model pool
            && Array.for_all
                 (fun node ->
                   Model.protects others node || not (Hp.protects_set set node))
                 row)
        cmds)

(* Clearing a process's row removes its nodes from the next snapshot. *)
let prop_clear_removes_from_set =
  QCheck.Test.make ~name:"scan set after clear drops the cleared row"
    ~count:200
    QCheck.(pair (int_range 1 8) (int_range 1 8))
    (fun (n, k) ->
      let dummy = { fid = -42; freed = 0 } in
      let hp = Hp.create ~n ~k ~dummy in
      let node = { fid = 7; freed = 0 } in
      let pub = publishers hp ~n in
      for pid = 0 to n - 1 do
        for slot = 0 to k - 1 do
          pub.(pid) ~slot node
        done
      done;
      for pid = 0 to n - 1 do
        Hp.clear hp ~pid
      done;
      let set = Hp.scan_set hp in
      Hp.snapshot_into hp set;
      not (Hp.protects_set set node))

(* --- Int_set vs a Set.Make(Int) model ------------------------------------ *)

module IS = Set.Make (Int)

(* Random command sequences over one reusable set: Add k, Mem k (checked
   against the model), Reset. Keys span negatives and a range wide enough
   to force growth past the initial capacity. *)
let prop_int_set_matches_model =
  let cmd_gen =
    QCheck.Gen.(
      frequency
        [ (6, map (fun k -> `Add k) (int_range (-50) 200));
          (6, map (fun k -> `Mem k) (int_range (-50) 200));
          (1, return `Reset) ])
  in
  QCheck.Test.make ~name:"Int_set agrees with Set.Make(Int) model" ~count:500
    (QCheck.make QCheck.Gen.(list_size (int_range 0 300) cmd_gen))
    (fun cmds ->
      let s = Qs_util.Int_set.create ~capacity:4 () in
      let model = ref IS.empty in
      List.for_all
        (fun cmd ->
          match cmd with
          | `Add k ->
            Qs_util.Int_set.add s k;
            model := IS.add k !model;
            Qs_util.Int_set.length s = IS.cardinal !model
          | `Mem k -> Qs_util.Int_set.mem s k = IS.mem k !model
          | `Reset ->
            Qs_util.Int_set.reset s;
            model := IS.empty;
            Qs_util.Int_set.length s = 0)
        cmds
      && Qs_util.Int_set.to_list s = IS.elements !model)

(* Reset must actually forget: stale generations never resurface, even
   after a growth rehash in a later generation. *)
let prop_int_set_reset_forgets =
  QCheck.Test.make ~name:"Int_set reset forgets across generations" ~count:200
    QCheck.(pair (small_list small_int) (small_list small_int))
    (fun (first, second) ->
      let s = Qs_util.Int_set.create ~capacity:4 () in
      List.iter (Qs_util.Int_set.add s) first;
      Qs_util.Int_set.reset s;
      List.iter (Qs_util.Int_set.add s) second;
      List.for_all
        (fun k -> List.mem k second || not (Qs_util.Int_set.mem s k))
        first)

(* --- steady-state allocation-freedom of retire ---------------------------- *)

module Hp_s = Qs_smr.Hazard_pointers.Make (R) (N)
module Qsbr_s = Qs_smr.Qsbr.Make (R) (N)
module Ebr_s = Qs_smr.Ebr.Make (R) (N)
module Cadence_s = Qs_smr.Cadence.Make (R) (N)
module Qsense_s = Qs_smr.Qsense.Make (R) (N)

(* Thresholds far above the retire counts below: no scan, no epoch flip and
   no fallback switch fires mid-measurement, so the measured loop is pure
   retire hot path. *)
let alloc_cfg =
  { (Qs_smr.Smr_intf.default_config ~n_processes:2 ~hp_per_process:2) with
    quiescence_threshold = 1_000_000;
    scan_threshold = 1_000_000;
    switch_threshold = 1_000_000;
    rooster_interval = max_int;
    epsilon = 0 }

let warmup = 20_000
let count = 10_000

(* Words of minor-heap allocation during [count] retires, measured after a
   warm-up that stocks the limbo bags' block cache past [count] retires
   and a flush that returns the blocks to it. *)
let measure_retire ~retire ~flush =
  let node = { fid = 1; freed = 0 } in
  for _ = 1 to warmup do
    retire node
  done;
  flush ();
  Gc.minor ();
  let before = Gc.minor_words () in
  for _ = 1 to count do
    retire node
  done;
  let after = Gc.minor_words () in
  after -. before

let check_alloc_free name words =
  (* [Gc.minor_words] itself boxes its float result; anything under a few
     hundred words across 10k retires means the loop body is
     allocation-free. The seed's cons-per-retire would show >= 3 words per
     retire (30k+). *)
  Alcotest.(check bool)
    (Printf.sprintf "%s: retire allocates (%.0f words / %d retires)" name
       words count)
    true (words < 1_000.)

let test_retire_alloc_free () =
  let dummy = { fid = -1; freed = 0 } in
  let free n = n.freed <- n.freed + 1 in
  (let t = Qsbr_s.create alloc_cfg ~dummy ~free in
   let h = Qsbr_s.register t ~pid:0 in
   check_alloc_free "qsbr"
     (measure_retire ~retire:(Qsbr_s.retire h) ~flush:(fun () -> Qsbr_s.flush h)));
  (let t = Ebr_s.create alloc_cfg ~dummy ~free in
   let h = Ebr_s.register t ~pid:0 in
   check_alloc_free "ebr"
     (measure_retire ~retire:(Ebr_s.retire h) ~flush:(fun () -> Ebr_s.flush h)));
  (let t = Hp_s.create alloc_cfg ~dummy ~free in
   let h = Hp_s.register t ~pid:0 in
   check_alloc_free "hp"
     (measure_retire ~retire:(Hp_s.retire h) ~flush:(fun () -> Hp_s.flush h)));
  (let t = Cadence_s.create alloc_cfg ~dummy ~free in
   let h = Cadence_s.register t ~pid:0 in
   check_alloc_free "cadence"
     (measure_retire ~retire:(Cadence_s.retire h)
        ~flush:(fun () -> Cadence_s.flush h)));
  let t = Qsense_s.create alloc_cfg ~dummy ~free in
  let h = Qsense_s.register t ~pid:0 in
  check_alloc_free "qsense"
    (measure_retire ~retire:(Qsense_s.retire h)
       ~flush:(fun () -> Qsense_s.flush h))

(* The scan membership path itself — snapshot the N×K slots into the hash
   set, then probe it — performs zero allocation once the set exists. This
   pins the Int_set fast path: [reset] is a generation bump, [add]/[mem]
   probe preallocated arrays, and the preallocation covers the full N·K
   population so no rehash can fire. *)
let test_scan_set_alloc_free () =
  let n = 8 and k = 8 in
  let dummy = { fid = -1; freed = 0 } in
  let hp = Hp.create ~n ~k ~dummy in
  let nodes = Array.init (n * k) (fun i -> { fid = i; freed = 0 }) in
  let pub = publishers hp ~n in
  for pid = 0 to n - 1 do
    for slot = 0 to k - 1 do
      pub.(pid) ~slot nodes.((pid * k) + slot)
    done
  done;
  let set = Hp.scan_set hp in
  let hits = ref 0 in
  let round () =
    Hp.snapshot_into hp set;
    for i = 0 to Array.length nodes - 1 do
      if Hp.protects_set set nodes.(i) then incr hits
    done
  in
  round () (* warm-up *);
  Gc.minor ();
  let rounds = 1_000 in
  let before = Gc.minor_words () in
  for _ = 1 to rounds do
    round ()
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf
       "snapshot_into + protects_set allocates (%.0f words / %d rounds)"
       words rounds)
    true (words < 1_000.);
  Alcotest.(check int) "every probe hits" (rounds + 1) (!hits / (n * k))

(* --- publication through Smr_glue ----------------------------------------- *)

module Glue = Qs_ds.Smr_glue.Make (R) (N)

(* The path every data structure takes per traversed node: the handle's
   [assign_hp] field is the scheme's own publisher, so publishing (and the
   end-of-operation clear) must allocate exactly nothing — no closure
   built per call, no boxed argument, for every scheme. Thresholds are out
   of reach: nothing here retires. *)
let test_glue_publication_alloc_free () =
  let dummy = { fid = -1; freed = 0 } in
  let node = { fid = 5; freed = 0 } in
  let calls = 100_000 in
  List.iter
    (fun kind ->
      let ops =
        Glue.make kind alloc_cfg ~dummy ~free:(fun n -> n.freed <- n.freed + 1)
      in
      let h = ops.Glue.register ~pid:0 in
      let round () =
        for i = 1 to calls do
          h.Glue.assign_hp ~slot:(i land 1) node;
          h.Glue.clear_hps ()
        done
      in
      round () (* warm-up *);
      let before = Gc.minor_words () in
      round ();
      let words = Gc.minor_words () -. before in
      Alcotest.(check (float 0.))
        (Printf.sprintf "%s: minor words over %d assign_hp + clear_hps"
           (Qs_smr.Scheme.to_string kind) calls)
        0. words)
    Qs_smr.Scheme.all

let suite =
  [ QCheck_alcotest.to_alcotest prop_scan_set_matches_reference;
    QCheck_alcotest.to_alcotest prop_assign_clear_matches_model;
    QCheck_alcotest.to_alcotest prop_clear_removes_from_set;
    QCheck_alcotest.to_alcotest prop_int_set_matches_model;
    QCheck_alcotest.to_alcotest prop_int_set_reset_forgets;
    Alcotest.test_case "retire is allocation-free in steady state" `Quick
      test_retire_alloc_free;
    Alcotest.test_case "scan membership path is allocation-free" `Quick
      test_scan_set_alloc_free;
    Alcotest.test_case "publication through Smr_glue is allocation-free"
      `Quick test_glue_publication_alloc_free
  ]
