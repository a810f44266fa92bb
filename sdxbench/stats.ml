(* Order statistics over the samples of one run. *)

(* Linear interpolation between closest ranks, like Python's
   statistics.quantiles(method="inclusive"). *)
let quantile q samples =
  let a = Array.of_list samples in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5
let mean = function [] -> nan | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

(* Minor-heap words [f] allocated, on every domain: an exact count for a
   fixed input.  A minor collection stops every domain and adds what each
   allocated to the totals that [Gc.quick_stat] reads. *)
let minor_words f =
  let total () =
    Gc.minor ();
    (Gc.quick_stat ()).minor_words
  in
  let before = total () in
  let v = f () in
  (v, total () -. before)

(* Counts only unmeasured operations: the forced collections would
   perturb the timing of measured ones. *)
let counting ~measured f = if measured then (f (), 0.0) else minor_words f
