(* Spans the benchmark records around its own calls into each layer when
   a run is traced.  They stay in memory until the run ends.  A span's
   self time is its duration minus the time its direct children cover;
   spans of one operation (a burst or a policy change) share its [op] id,
   and the outermost span of an operation is its root. *)

type span = {
  id : int;
  parent : int;  (** [-1] for a root *)
  op : int;
  name : string;
  root : string;  (** name of the outermost span enclosing this one *)
  start : float;
  stop : float;
}

let now = Unix.gettimeofday
let enabled = ref false
let recorded : span list ref = ref []
let open_spans : (int * string) list ref = ref []
let next_id = ref 0

let with_ name ~op f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent, root = match !open_spans with p :: _ -> p | [] -> (-1, name) in
    open_spans := (id, root) :: !open_spans;
    let start = now () in
    let close () =
      recorded := { id; parent; op; name; root; start; stop = now () } :: !recorded;
      open_spans := List.tl !open_spans
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

let duration s = s.stop -. s.start

(* Per span name, over the operations whose root is named [root]: (total
   self time, span count). *)
let self_times ~root =
  let recorded = ref (List.filter (fun s -> s.root = root) !recorded) in
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          (duration s +. Option.value (Hashtbl.find_opt children s.parent) ~default:0.0))
    !recorded;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let self =
        duration s -. Option.value (Hashtbl.find_opt children s.id) ~default:0.0
      in
      let total, n =
        Option.value (Hashtbl.find_opt by_name s.name) ~default:(0.0, 0)
      in
      Hashtbl.replace by_name s.name (total +. self, n + 1))
    !recorded;
  by_name

let self_total tbl name =
  match Hashtbl.find_opt tbl name with Some (t, _) -> t | None -> 0.0

(* Share of the roots named [root] that their direct children cover: the
   stages on the blocking path, summed, against the end-to-end time. *)
let coverage root =
  let roots = Hashtbl.create 1024 in
  List.iter
    (fun s -> if s.parent < 0 && s.name = root then Hashtbl.replace roots s.id (duration s))
    !recorded;
  let covered =
    List.fold_left
      (fun acc s -> if Hashtbl.mem roots s.parent then acc +. duration s else acc)
      0.0 !recorded
  in
  let total = Hashtbl.fold (fun _ d acc -> acc +. d) roots 0.0 in
  if total > 0.0 then covered /. total else 0.0
