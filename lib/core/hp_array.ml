(* The shared hazard-pointer array: N processes × K single-writer
   multi-reader slots, used by classic HP, Cadence and QSense. Slots are TSO
   *plain* integer cells holding the protected node's id
   ({!Smr_intf.NODE.id}) — publishing is a cheap store whose visibility is
   bounded only by fences (classic HP) or rooster context switches
   (Cadence/QSense). An empty slot holds the dummy node's id. Each
   process's row of slots is padded against false sharing: rows are
   written by different processes on every traversal step.

   Publication goes through a per-handle {!publisher}, built once at
   [register] over the owner's row: one closure call and one plain integer
   store ({!Qs_intf.Runtime_intf.RUNTIME.write_int}, no write barrier on
   the real runtime) per traversed node.

   Scans use a reusable {e scan set}: the N×K slot values are added to a
   per-handle open-addressing hash set of node ids ({!Qs_util.Int_set}),
   giving expected-O(1) membership per retired node and zero allocation per
   scan — Michael's original hash-set scan, which together with the
   adaptive scan threshold makes scan work amortised O(1) per retire. *)

module Make (R : Qs_intf.Runtime_intf.RUNTIME) (N : Smr_intf.NODE) = struct
  type t = { slots : int R.plain array array; empty : int; k : int }

  let create ~n ~k ~dummy =
    let empty = N.id dummy in
    { slots = Array.init n (fun _ -> Array.init k (fun _ -> R.plain_padded empty));
      empty;
      k }

  (* Process [pid]'s publisher. The closure holds its row, [R.write_int]
     and [N.id] directly instead of reaching them through the functor
     arguments per call. [~fenced]: classic HP's barrier after the store. *)
  let publisher t ~pid ~fenced =
    let row = t.slots.(pid) and write_int = R.write_int and id = N.id in
    if fenced then
      let fence = R.fence in
      fun ~slot n ->
        write_int row.(slot) (id n);
        fence ()
    else fun ~slot n -> write_int row.(slot) (id n)

  let clear t ~pid =
    let row = t.slots.(pid) in
    for i = 0 to t.k - 1 do
      R.write_int row.(i) t.empty
    done

  (* --- the scan set: reusable id hash set ---------------------------------- *)

  type scan_set = Qs_util.Int_set.t

  (* Preallocated for the full N·K population: at steady state a snapshot
     never triggers a rehash, so the scan path performs zero allocation. *)
  let scan_set t = Qs_util.Int_set.create ~capacity:(Array.length t.slots * t.k) ()

  (* Snapshot all N×K slots into the hash set. Reads are racy by design: a
     hazard pointer whose store is still sitting in its writer's store
     buffer is missed — that is the hole deferred reclamation closes.
     [Int_set.reset] is an O(1) generation bump, so the whole snapshot is
     O(N·K) with no allocation. *)
  let snapshot_into t s =
    Qs_util.Int_set.reset s;
    let empty = t.empty in
    for pid = 0 to Array.length t.slots - 1 do
      let row = t.slots.(pid) in
      for i = 0 to t.k - 1 do
        let id = R.read row.(i) in
        if id <> empty then Qs_util.Int_set.add s id
      done
    done

  (* Expected-O(1) membership by stable node identity. Conservative under
     id collisions (keeps the node), never frees a protected node. *)
  let protects_set s n = Qs_util.Int_set.mem s (N.id n)
end
