(* What one run reports: operations attempted and failed, and the metrics
   the run mode asks for, in the order they were measured. *)

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable metrics : (string * float * string) list;  (** reversed *)
}

let create () = { attempted = 0; failed = 0; metrics = [] }

(* Counts one operation; a wrong output is described on stderr. *)
let attempt t ok what =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    if t.failed <= 20 then prerr_endline ("sdxbench: FAILED: " ^ Lazy.force what)
  end

(* A metric the run could not measure fails the run rather than printing
   a number that means nothing. *)
let metric t name unit value =
  if Float.is_finite value then t.metrics <- (name, value, unit) :: t.metrics
  else attempt t false (lazy (name ^ " was not measured"))

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let to_json t =
  let metrics =
    List.rev_map
      (fun (name, value, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number value) unit)
      t.metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (t.failed = 0) t.attempted t.failed (String.concat ", " metrics)
