(* The library stacks under test, instantiated on real OCaml 5 domains,
   behind one signature so one workload engine drives them all. *)

module R = Qs_real.Real_runtime
module L = Qs_ds.Linked_list.Make (R)
module H = Qs_ds.Hashtable.Make (R)
module K = Qs_service.Service_real.K

module type STACK = sig
  type t
  type ctx

  val create : Qs_ds.Set_intf.config -> t
  val register : t -> pid:int -> ctx
  val apply : ctx -> int -> int -> int -> bool
  val size : ctx -> int
  val validate : ctx -> unit
  val report : t -> Qs_ds.Set_intf.report
  val outstanding : t -> int
end

module List_stack = struct
  include L

  let apply ctx k a _ =
    match k with 0 -> L.search ctx a | 1 -> L.insert ctx a | _ -> L.delete ctx a
end

module Hash_stack = struct
  include H

  let create cfg = H.create_sized ~n_buckets:256 cfg

  let apply ctx k a _ =
    match k with 0 -> H.search ctx a | 1 -> H.insert ctx a | _ -> H.delete ctx a
end

module Kv_stack = struct
  include K

  let create cfg = K.create ~n_shards:4 cfg

  let apply ctx k a b =
    match k with
    | 0 -> K.get ctx a
    | 1 -> K.put ctx a
    | 2 -> K.del ctx a
    | _ ->
      (* a scan counts at most one key per value of its range; raising
         breaks the row, which its final check reports *)
      let n = K.scan ctx ~lo:a ~hi:b in
      if n < 0 || n > b - a + 1 then
        failwith (Printf.sprintf "scan [%d, %d] counted %d keys" a b n);
      true
end

let rooster_interval_ns = Qs_harness.Real_exp.rooster_interval_ns

(* The explicit QSense switch threshold C of every stalled row. Property
   4's smallest legal C counts the rooster interval T in clock units; on
   real domains T is 2 ms in ns, so that C is about 2,000,005 nodes and
   the fallback would never fire within a run. *)
let stalled_switch = 4096

let config ~scheme ~n_processes ~oracle ~switch =
  let base = Qs_ds.Set_intf.default_config ~n_processes ~scheme in
  { base with
    Qs_ds.Set_intf.debug_checks = oracle;
    smr =
      { base.smr with
        rooster_interval = rooster_interval_ns;
        epsilon = rooster_interval_ns / 2;
        switch_threshold = switch } }

(* A registered peer that runs [work] on its own domain and then sleeps,
   without quiescing, until stopped: the paper's stalled process. It is
   not a busy domain (it wakes every 5 ms to poll its stop flag). *)
type peer = { stop : bool Atomic.t; dom : string option Domain.t }

let spawn_peer ~pid work =
  let stop = Atomic.make false and ready = Atomic.make false in
  let dom =
    Domain.spawn (fun () ->
        R.register_self pid;
        let err = try work (); None with e -> Some (Printexc.to_string e) in
        Atomic.set ready true;
        while not (Atomic.get stop) do Unix.sleepf 0.005 done;
        err)
  in
  while not (Atomic.get ready) do Unix.sleepf 0.0005 done;
  { stop; dom }

let stop_peer p =
  Atomic.set p.stop true;
  Domain.join p.dom
