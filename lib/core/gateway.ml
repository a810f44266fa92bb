open Sdx_net
open Sdx_bgp

type t = {
  runtime : Runtime.t;
  sessions : (Asn.t, Peer.t) Hashtbl.t;
  order : Asn.t list;
}

let create ?(rs_asn = Asn.of_int 65535) ?(rs_id = Ipv4.of_string "172.31.255.1")
    runtime =
  let config = Runtime.config runtime in
  let sessions = Hashtbl.create 32 in
  let order =
    List.map
      (fun (p : Participant.t) ->
        let peer =
          Peer.create
            ~local:{ Wire.asn = rs_asn; hold_time = 90; bgp_id = rs_id }
            ~peer_asn:p.asn
        in
        Hashtbl.replace sessions p.asn peer;
        p.asn)
      (Config.participants config)
  in
  { runtime; sessions; order }

let runtime t = t.runtime

let session t asn =
  match Hashtbl.find_opt t.sessions asn with
  | Some s -> s
  | None -> raise Not_found

let connect_all t = Hashtbl.iter (fun _ s -> Peer.connect s) t.sessions

let established t =
  List.filter (fun asn -> Peer.state (session t asn) = Fsm.Established) t.order

let outbox t asn = Peer.pending_output (session t asn)

(* Re-advertise one prefix's new state (announcement with VNH next hop,
   or withdrawal) to every established session except [skip]. *)
let readvertise ?skip t prefix =
  List.iter
    (fun receiver ->
      if not (Option.fold skip ~none:false ~some:(Asn.equal receiver)) then begin
        let peer = session t receiver in
        match Runtime.announcement t.runtime ~receiver prefix with
        | Some route -> Peer.send_update peer (Update.announce route)
        | None -> Peer.send_update peer (Update.withdraw ~peer:receiver prefix)
      end)
    (established t)

(* Runs one update of [from]'s and re-advertises what it moved.  A moved
   best route goes to every session but [from]'s.  A prefix the fast path
   re-batched under a fresh VNH (an update from a peer some outbound
   policy diverts through can do that without moving any best route)
   goes to every session, [from]'s included: every router holding a
   route for it holds the dead next hop. *)
let apply t ~from prefix handle =
  let vnh = Runtime.group_vnh t.runtime prefix in
  let stats : Runtime.update_stats = handle () in
  if not (Option.equal Ipv4.equal vnh (Runtime.group_vnh t.runtime prefix)) then
    readvertise t prefix
  else if stats.best_changed then readvertise ~skip:from t prefix;
  stats

let flush_if_requested t asn =
  let peer = session t asn in
  if Peer.flush_requested peer then begin
    let server = Config.server (Runtime.config t.runtime) in
    let prefixes = Route_server.prefixes_of server asn in
    List.iter
      (fun prefix ->
        ignore
          (apply t ~from:asn prefix (fun () -> Runtime.withdraw t.runtime ~peer:asn prefix)))
      prefixes
  end

let deliver t ~from data =
  let peer = session t from in
  match Peer.feed peer data with
  | Error _ as e ->
      flush_if_requested t from;
      e
  | Ok updates ->
      let stats =
        List.map
          (fun update ->
            apply t ~from (Update.prefix update) (fun () ->
                Runtime.handle_update t.runtime update))
          updates
      in
      flush_if_requested t from;
      Ok stats

let advertise_table t asn =
  let peer = session t asn in
  let routes =
    Compile.fold_announcements
      (Runtime.compiled t.runtime)
      (Runtime.config t.runtime)
      ~receiver:asn
      (fun _prefix route acc -> route :: acc)
      []
  in
  List.iter (fun route -> Peer.send_update peer (Update.announce route)) routes;
  List.length routes
