(* The shared orphan pool behind dynamic membership (DEBRA+'s "neutralise
   and hand off" idea, Hyaline's transparent join/leave, adapted to this
   repository's per-process limbo lists).

   When a process unregisters — or is evicted by QSense's §5.2 extension —
   its limbo lists can no longer be reclaimed by their owner: QSBR-style
   freeing is driven by the owner's own quiescent states, and before this
   layer existed the lists simply leaked until teardown. Instead, the
   departing (or evicting) process pushes the whole limbo-list batch onto a
   per-scheme orphan pool; survivors pop batches opportunistically and
   reclaim the nodes under their own scheme's filter (grace period for the
   epoch schemes, hazard-pointer [+ age] scan for the others).

   The pool is a Treiber-style CAS list over [Stdlib.Atomic], NOT over the
   simulated runtime's atomics, which is a deliberate choice with three
   consequences:

   - {b meta-safety}: [stats] / [retired_count] / teardown [flush] run
     outside process context on the simulator, where performing runtime
     effects is illegal. A [Stdlib.Atomic] is readable from any context.
   - {b schedule neutrality}: pool operations cost no virtual time and are
     not preemption points, so runs that never exercise churn execute
     bit-identically to the pre-membership scheduler schedules (the same
     argument as [RUNTIME.emit]). The interesting interleavings — between
     adoption and the hazard-pointer filter — still happen, at the
     surrounding simulated-memory effects.
   - {b real-runtime correctness}: [Stdlib.Atomic] is sequentially
     consistent, so the donate/take pair is a release/acquire edge: the
     donor's plain writes into the limbo lists happen-before the
     adopter's reads.

   Every entry counts its nodes so [retired_count] can include orphaned
   nodes without walking payloads (an orphaned node is still
   removed-but-unfreed). *)

type 'a entry = { donor : int; nodes : int; payload : 'a }

type 'a t = {
  pool : 'a entry list Atomic.t;
  node_count : int Atomic.t;  (* total nodes across pooled entries *)
}

let create () = { pool = Atomic.make []; node_count = Atomic.make 0 }

(* Cheap emptiness hint, safe from any context. Used to gate adoption so
   that the no-orphan fast path stays free of even meta-level CAS work. *)
let is_empty t = Atomic.get t.pool == []

let node_count t = Atomic.get t.node_count

let donate t ~donor ~nodes payload =
  if nodes > 0 then begin
    let e = { donor; nodes; payload } in
    let rec push () =
      let cur = Atomic.get t.pool in
      if not (Atomic.compare_and_set t.pool cur (e :: cur)) then push ()
    in
    push ();
    ignore (Atomic.fetch_and_add t.node_count nodes)
  end

let take t =
  let rec pop () =
    match Atomic.get t.pool with
    | [] -> None
    | (e :: rest) as cur ->
      if Atomic.compare_and_set t.pool cur rest then begin
        ignore (Atomic.fetch_and_add t.node_count (-e.nodes));
        Some e
      end
      else pop ()
  in
  pop ()

(* Teardown only: empty the pool in one exchange. Callers free the
   payloads without safety checks, exactly like the schemes' [flush]. *)
let drain t =
  let es = Atomic.exchange t.pool [] in
  List.iter (fun e -> ignore (Atomic.fetch_and_add t.node_count (-e.nodes))) es;
  es
