(* Percentiles and medians. Percentiles are given in basis points
   (9900 = p99) so that ranks are exact integer arithmetic. *)

(* Nearest rank: the smallest rank r with r / n >= bp / 10000. *)
let rank ~n bp = max 1 (((bp * n) + 9999) / 10000)

(* [sorted] holds [n] ascending samples in its first [n] slots. *)
let percentile sorted ~n bp = sorted.(rank ~n bp - 1)

(* Samples strictly beyond the [bp] percentile's rank. *)
let beyond ~n bp = n - rank ~n bp

let candidates = [ 5000; 9000; 9900; 9990; 9999 ]

(* The highest candidate percentile with at least ten samples beyond it,
   or [None] when even the median has fewer. *)
let highest_reportable ~n =
  List.fold_left
    (fun acc bp -> if beyond ~n bp >= 10 then Some bp else acc)
    None candidates

let sort_prefix a n =
  let s = Array.sub a 0 n in
  Array.sort compare s;
  s

let median_float l =
  match List.sort compare l with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.
