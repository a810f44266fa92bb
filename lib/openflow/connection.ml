
type t = {
  switch : Switch.t;
  table_id : int;
  (* Switch-to-controller queue as a two-list FIFO: [front] holds the
     oldest messages in arrival order, [back] the newest in reverse.
     [queue] and [recv] are O(1) amortized — each message is moved from
     [back] to [front] exactly once — where a single reversed list made
     every [recv] reverse the whole queue twice (O(n²) to drain). *)
  mutable front : Message.t list;
  mutable back : Message.t list;
  mutable queued : int;
  mutable applied : int;
  (* Cookie bookkeeping indexed both ways, so every flow-mod costs O(1)
     in it and a cookie delete O(entries it tags). *)
  cookies : (int, unit Flow.Tbl.t) Hashtbl.t;  (* cookie -> slots *)
  cookie_of : int Flow.Tbl.t;  (* slot -> its non-zero cookie *)
  mutable next_buffer : int;
}

let create ?(table = 0) switch =
  {
    switch;
    table_id = table;
    front = [];
    back = [];
    queued = 0;
    applied = 0;
    cookies = Hashtbl.create 16;
    cookie_of = Flow.Tbl.create 64;
    next_buffer = 1;
  }

let queue t msg =
  t.back <- msg :: t.back;
  t.queued <- t.queued + 1

let recv t =
  (match t.front with
  | [] ->
      t.front <- List.rev t.back;
      t.back <- []
  | _ :: _ -> ());
  match t.front with
  | [] -> None
  | msg :: rest ->
      t.front <- rest;
      t.queued <- t.queued - 1;
      Some msg

let pending t = t.queued
let flow_mods_applied t = t.applied
let table t = Switch.table t.switch t.table_id
let installed t = Table.entries (table t)

let forget_cookie t key =
  match Flow.Tbl.find_opt t.cookie_of key with
  | None -> ()
  | Some cookie ->
      Flow.Tbl.remove t.cookie_of key;
      let slots = Hashtbl.find t.cookies cookie in
      Flow.Tbl.remove slots key;
      if Flow.Tbl.length slots = 0 then Hashtbl.remove t.cookies cookie

(* An entry's cookie lives and dies with its slot: an ADD overwriting a
   slot replaces the cookie too, as in OpenFlow. *)
let record_cookie t cookie key =
  forget_cookie t key;
  if cookie <> 0 then begin
    Flow.Tbl.replace t.cookie_of key cookie;
    match Hashtbl.find_opt t.cookies cookie with
    | Some slots -> Flow.Tbl.replace slots key ()
    | None ->
        let slots = Flow.Tbl.create 16 in
        Flow.Tbl.replace slots key ();
        Hashtbl.replace t.cookies cookie slots
  end

let send t (msg : Message.t) =
  match msg with
  | Message.Flow_mod { command = Message.Add; cookie; flow } ->
      Table.install (table t) flow;
      record_cookie t cookie (Flow.key flow);
      t.applied <- t.applied + 1
  | Message.Flow_mod { command = Message.Delete_strict; flow; _ } ->
      Table.remove (table t) ~priority:flow.Flow.priority ~pattern:flow.Flow.pattern;
      forget_cookie t (Flow.key flow);
      t.applied <- t.applied + 1
  | Message.Flow_mod { command = Message.Delete_by_cookie; cookie; _ } -> (
      match Hashtbl.find_opt t.cookies cookie with
      | None -> ()
      | Some slots ->
          Hashtbl.remove t.cookies cookie;
          Flow.Tbl.iter
            (fun ((priority, pattern) as key) () ->
              Flow.Tbl.remove t.cookie_of key;
              Table.remove (table t) ~priority ~pattern)
            slots;
          t.applied <- t.applied + Flow.Tbl.length slots)
  | Message.Barrier_request xid -> queue t (Message.Barrier_reply xid)
  | Message.Echo_request xid -> queue t (Message.Echo_reply xid)
  | Message.Packet_out packet -> ignore (Switch.process t.switch packet)
  | Message.Barrier_reply _ | Message.Echo_reply _ | Message.Packet_in _ ->
      (* switch-to-controller messages are not valid on this side *)
      invalid_arg "Connection.send: not a controller-to-switch message"

let barrier t xid =
  send t (Message.Barrier_request xid);
  (* The in-memory switch answers synchronously: the reply was appended
     at the tail of the queue just now.  Consume it without disturbing
     any earlier messages (packet-ins stay queued for the controller). *)
  match t.back with
  | Message.Barrier_reply x :: rest when x = xid ->
      t.back <- rest;
      t.queued <- t.queued - 1;
      true
  | _ -> false

let process t pkt =
  (* The packet-in decision must not touch hit counters: the real
     (counter-bumping) lookups happen inside [Switch.process], so probing
     with [Table.lookup] here would double-count the winning entry.  The
     RCU snapshot is a pure view of the same table with identical
     first-match semantics. *)
  match Table.snapshot_lookup (Table.snapshot (table t)) pkt with
  | None ->
      let buffer_id = t.next_buffer in
      t.next_buffer <- t.next_buffer + 1;
      queue t (Message.Packet_in { buffer_id; packet = pkt });
      []
  | Some _ -> Switch.process t.switch pkt

(* OpenFlow ADD overwrites on (priority, pattern), so a target listing
   the same slot twice resolves to its last occurrence — the table can
   never hold both, and diffing against the raw multiset would re-add
   the duplicate on every sync, breaking idempotence. *)
let normalize target =
  let seen = Hashtbl.create 64 in
  List.rev
    (List.filter
       (fun (f : Flow.t) ->
         let key = (f.Flow.priority, f.Flow.pattern) in
         if Hashtbl.mem seen key then false
         else begin
           Hashtbl.replace seen key ();
           true
         end)
       (List.rev target))

let sync t target =
  let target = normalize target in
  (* Multiset diff on whole entries: additions first (make-before-break;
     priorities disambiguate during the transition), then strict deletes
     of the leftovers. *)
  let count_map flows =
    let tbl = Hashtbl.create 64 in
    List.iter
      (fun f -> Hashtbl.replace tbl f (1 + Option.value (Hashtbl.find_opt tbl f) ~default:0))
      flows;
    tbl
  in
  let existing = count_map (installed t) in
  let additions =
    List.filter
      (fun f ->
        match Hashtbl.find_opt existing f with
        | Some n when n > 0 ->
            Hashtbl.replace existing f (n - 1);
            false
        | _ -> true)
      target
  in
  (* Whatever count remains in [existing] is surplus — except entries an
     addition overwrites in place (OpenFlow ADD replaces an entry with
     equal priority and match), which need no delete. *)
  let overwritten = Hashtbl.create 16 in
  List.iter
    (fun (f : Flow.t) -> Hashtbl.replace overwritten (f.priority, f.pattern) ())
    additions;
  let removals =
    Hashtbl.fold
      (fun (f : Flow.t) n acc ->
        if n > 0 && not (Hashtbl.mem overwritten (f.priority, f.pattern)) then
          List.init n (fun _ -> f) @ acc
        else acc)
      existing []
  in
  List.iter (fun f -> send t (Message.add f)) additions;
  List.iter (fun f -> send t (Message.delete f)) removals;
  List.length additions + List.length removals
