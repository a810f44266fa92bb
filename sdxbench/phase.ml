(* The paths a run measures, interleaved.  A shared host's speed can
   drift by tens of percent over seconds, so a path measured in one
   stretch of the run would carry whatever the host did then.  Each path
   instead has a fixed number of operations, and the scheduler always
   steps the path furthest behind in its share of them: every path
   samples the whole run, and every run does the same work. *)

type t = {
  name : string;
  ops : int;  (** operations the run measures *)
  step : unit -> unit;  (** one operation: a burst, a change, a batch... *)
  mutable done_ : int;
  mutable spent : float;  (** seconds in [step] *)
}

let make ~name ~ops step = { name; ops = max 1 ops; step; done_ = 0; spent = 0.0 }

let run phases =
  let progress p = float_of_int p.done_ /. float_of_int p.ops in
  let rec loop () =
    match List.filter (fun p -> p.done_ < p.ops) phases with
    | [] -> ()
    | first :: rest ->
        let p = List.fold_left (fun a b -> if progress b < progress a then b else a) first rest in
        let t0 = Span.now () in
        p.step ();
        p.spent <- p.spent +. (Span.now () -. t0);
        p.done_ <- p.done_ + 1;
        loop ()
  in
  loop ();
  List.iter (fun p -> Printf.printf "# %s: %d operations in %.1f s\n" p.name p.ops p.spent) phases
