(* Bridges the first-class SMR modules of {!Qs_smr.Scheme.Dispatch} into
   plain records of closures, so the data structures can hold "whichever
   scheme the experiment picked" without threading module types through
   their own signatures. *)

module Make (R : Qs_intf.Runtime_intf.RUNTIME) (N : Qs_smr.Smr_intf.NODE) = struct
  type handle = {
    manage_state : unit -> unit;
    assign_hp : slot:int -> N.t -> unit;
    clear_hps : unit -> unit;
    retire : N.t -> unit;
    unregister : unit -> unit;
        (* dynamic membership: retire the pid slot, donating limbo lists
           to the scheme's orphan pool (see {!Qs_smr.Smr_intf.S.unregister}) *)
    flush : unit -> unit;
  }

  type ops = {
    scheme_name : string;
    register : pid:int -> handle;
    retired_count : unit -> int;
    stats : unit -> Qs_smr.Smr_intf.stats;
  }

  module D = Qs_smr.Scheme.Dispatch (R) (N)

  let make ?free_bulk kind (cfg : Qs_smr.Smr_intf.config) ~dummy ~free =
    let (module S) = D.make kind in
    let t = S.create ?free_bulk cfg ~dummy ~free in
    { scheme_name = S.name;
      register =
        (fun ~pid ->
          let h = S.register t ~pid in
          { manage_state = (fun () -> S.manage_state h);
            assign_hp = S.assign_hp h;
            clear_hps = (fun () -> S.clear_hps h);
            retire = (fun n -> S.retire h n);
            unregister = (fun () -> S.unregister h);
            flush = (fun () -> S.flush h) });
      retired_count = (fun () -> S.retired_count t);
      stats = (fun () -> S.stats t) }
end
