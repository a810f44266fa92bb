(* The exchange every workload runs against: a runtime over a generated
   IXP, the sharded 2-edge fabric holding its flows, and one BGP session
   per participant whose far end is a client-side router played by the
   benchmark.  The participants' border routers are not simulated: the
   client router decodes what the route server sends, and probes enter
   the fabric at the participant's port directly. *)

open Sdx_net
open Sdx_bgp
module Runtime = Sdx_core.Runtime
module Config = Sdx_core.Config
module Gateway = Sdx_core.Gateway
module Fabric = Sdx_fabric.Fabric
module Topology = Sdx_fabric.Topology
module Workload = Sdx_ixp.Workload

type t = {
  workload : Workload.t;
  runtime : Runtime.t;
  fabric : Fabric.t;
  gateway : Gateway.t;
  routers : (Asn.t * Peer.t) array;  (** client end of every session *)
  mutable committed : int;  (** {!Runtime.generation} last committed *)
  mutable flows : Sdx_openflow.Flow.t list;  (** the ruleset last committed *)
}

type table_transfer = { routes : int; bytes : int; advertise_s : float }

let rs_asn = Asn.of_int 65535

let router asn =
  let peer =
    Peer.create
      ~local:{ Wire.asn; hold_time = 90; bgp_id = Ipv4.of_string "192.0.2.1" }
      ~peer_asn:rs_asn
  in
  Peer.connect peer;
  peer

(* Feeds [asn]'s pending route-server output to its router; [f] sees every
   update the router decodes.  Returns the bytes moved. *)
let drain_one t (asn, peer) f =
  List.fold_left
    (fun bytes data ->
      (match Peer.feed peer data with
      | Ok updates -> List.iter (f asn) updates
      | Error e -> failwith ("client router rejected the route server: " ^ e));
      bytes + Bytes.length data)
    0
    (Gateway.outbox t.gateway asn)

let drain t f = Array.fold_left (fun b r -> b + drain_one t r f) 0 t.routers

let ignore_update _ _ = ()

(* Session establishment: OPENs and KEEPALIVEs both ways until every
   session is up. *)
let establish t =
  let n = Array.length t.routers in
  let rec go round =
    Array.iter
      (fun (asn, peer) ->
        List.iter
          (fun data ->
            match Gateway.deliver t.gateway ~from:asn data with
            | Ok _ -> ()
            | Error e -> failwith ("session set-up failed: " ^ e))
          (Peer.pending_output peer))
      t.routers;
    ignore (drain t ignore_update);
    if List.length (Gateway.established t.gateway) < n then
      if round >= 8 then failwith "sessions did not establish" else go (round + 1)
  in
  go 0

(* Moves the fabric to the runtime's current flows through the two-phase
   protocol; [on_phase] sees each phase's barriers complete. *)
let commit ?on_phase ?(op = 0) t =
  let flows = Span.with_ "runtime.flows" ~op (fun () -> Runtime.flows t.runtime) in
  let stats =
    Span.with_ "fabric.commit" ~op (fun () -> Fabric.commit ?on_phase t.fabric flows)
  in
  t.committed <- Runtime.generation t.runtime;
  t.flows <- flows;
  stats

let ports_of (w : Workload.t) =
  List.init (Config.port_count w.config) (fun i -> i + 1)

(* Everything from the generated configuration until the exchange is
   ready: initial compilation, the fabric and its first commit, every
   session established, and every participant's table advertised and
   decoded by its router. *)
let create (w : Workload.t) =
  let runtime = Runtime.create w.config in
  let fabric = Fabric.create (Topology.edge_core ~edges:2 ~ports:(ports_of w)) in
  let gateway = Gateway.create ~rs_asn runtime in
  let routers =
    Array.of_list
      (List.map
         (fun (p : Sdx_core.Participant.t) -> (p.asn, router p.asn))
         (Config.participants w.config))
  in
  let t = { workload = w; runtime; fabric; gateway; routers; committed = -1; flows = [] } in
  ignore (commit t);
  Gateway.connect_all gateway;
  establish t;
  let t0 = Unix.gettimeofday () in
  let routes = ref 0 and bytes = ref 0 in
  Array.iter
    (fun ((asn, _) as r) ->
      routes := !routes + Gateway.advertise_table gateway asn;
      bytes := !bytes + drain_one t r ignore_update)
    routers;
  (t, { routes = !routes; bytes = !bytes; advertise_s = Unix.gettimeofday () -. t0 })

let router_of t asn =
  let rec find i =
    if i >= Array.length t.routers then raise Not_found
    else if Asn.equal (fst t.routers.(i)) asn then snd t.routers.(i)
    else find (i + 1)
  in
  find 0
