(* Counts the program's own observatory events per kind while forwarding
   every event to a Qs_obs.Tracer ring, so the traced pass exercises the
   existing sink exactly as a user would install it. Rooster domains emit
   concurrently with the worker; a rare lost increment is accepted, as in
   the tracer's own system ring. *)

module RI = Qs_intf.Runtime_intf

type t = { counts : int array; tracer : Qs_obs.Tracer.t; sink : RI.sink }

let create ~n_processes =
  let counts = Array.make 15 0 in
  let tracer = Qs_obs.Tracer.create ~n_processes ~capacity:4096 () in
  let ts = Qs_obs.Tracer.sink tracer in
  let record ~pid ~time ~ev ~a ~b =
    let i = RI.event_index ev in
    Array.unsafe_set counts i (Array.unsafe_get counts i + 1);
    ts.record ~pid ~time ~ev ~a ~b
  in
  { counts; tracer; sink = { RI.record } }

(* The events named by layer: core (scan, epoch, fallback), util bags, and
   real (rooster). *)
let reported =
  RI.
    [ "scan", Ev_scan_begin;
      "epoch_advance", Ev_epoch_advance;
      "bag_seal", Ev_bag_seal;
      "bag_free", Ev_bag_free;
      "fallback_enter", Ev_fallback_enter;
      "fallback_exit", Ev_fallback_exit;
      "rooster_wake", Ev_rooster_wake ]

let report o t =
  List.iter
    (fun (name, ev) -> Out.addi o ("obs.events." ^ name) "count" t.counts.(RI.event_index ev))
    reported;
  Out.addi o "obs.tracer.retained" "count" (Qs_obs.Tracer.total t.tracer)
