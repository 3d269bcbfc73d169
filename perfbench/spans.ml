(* Span names and the span report of a traced pass. Spans are kept in
   preallocated arrays while timing and written out as JSON lines when
   the run ends, to the file named by [--spans-out]. *)

let names =
  [| "ds.search"; "ds.insert"; "ds.delete"; "service.get"; "service.put";
     "service.del"; "service.scan"; "explore.case" |]

let base_set = 0
let base_kv = 3
let explore_case = 7
let out_path : string option ref = ref None

let write (sp : Timing.spans) =
  match !out_path with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    Printf.fprintf oc "{\"sample_every\": %d, \"spans\": %d}\n" sp.every sp.m;
    for i = 0 to sp.m - 1 do
      Printf.fprintf oc
        "{\"id\": %d, \"name\": %S, \"start\": %d, \"end\": %d, \"parent\": %d, \"req\": %d}\n"
        i names.(sp.sname.(i)) sp.sstart.(i) sp.sstop.(i) sp.sparent.(i) sp.sreq.(i)
    done;
    close_out oc

(* The sampling rate is stated in the span file's header line and in
   README.md; the metrics are the span count and the median duration. *)
let report o (sp : Timing.spans) =
  write sp;
  Out.addi o "trace.spans" "count" sp.m;
  let n = sp.m in
  let durs = Array.init n (fun i -> sp.sstop.(i) - sp.sstart.(i)) in
  Array.sort compare durs;
  Out.addi o "trace.span_ns_p50" "ns" (if n = 0 then 0 else Pctl.percentile durs ~n 5000)
