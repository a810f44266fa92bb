(* Probes: the packet a participant's router sends once it has learned a
   next hop for a prefix, and the verdict on where the fabric delivered
   it. *)

open Sdx_net
open Sdx_bgp
module Runtime = Sdx_core.Runtime
module Config = Sdx_core.Config

(* ICMP from documentation space with both transport ports 0: no clause
   of the generated policy mix matches it, so it follows BGP default
   forwarding. *)
let plain = Packet.make ~proto:1 ~src_ip:(Ipv4.of_string "198.51.100.1") ()

(* Resolves [next_hop] through the SDX's ARP responder and sends [base],
   tagged with the answer and aimed at [dst], into the fabric at
   [sender]'s first port.  [None] when the next hop does not resolve or
   the sender has no port. *)
let send (ex : Exchange.t) ~op ?(base = plain) ~sender ~next_hop dst =
  Span.with_ "probe" ~op (fun () ->
      match
        ( Config.switch_ports_of (Runtime.config ex.runtime) sender,
          Sdx_arp.Responder.query (Runtime.arp ex.runtime) next_hop )
      with
      | port :: _, Some vmac ->
          let pkt = { base with Packet.port; dst_mac = vmac; dst_ip = dst } in
          Some (pkt, Sdx_fabric.Fabric.process ex.fabric pkt)
      | _ -> None)

let owner (ex : Exchange.t) port =
  match Config.owner_of_port (Runtime.config ex.runtime) port with
  | p, _ -> Some p.Sdx_core.Participant.asn
  | exception Not_found -> None

let best (ex : Exchange.t) ~receiver prefix =
  Route_server.best (Config.server (Runtime.config ex.runtime)) ~receiver prefix

(* The fabric delivered the probe somewhere, exactly as the runtime's
   logical single-switch classifier does, and only on ports of the
   participants in [egress]. *)
let delivered_ok (ex : Exchange.t) (pkt, outs) ~egress =
  let canon = List.sort Packet.compare in
  outs <> []
  && canon outs
     = canon (Sdx_policy.Classifier.eval (Runtime.classifier ex.runtime) pkt)
  && List.for_all
       (fun (o : Packet.t) ->
         match owner ex o.port with
         | Some asn -> List.exists (Asn.equal asn) egress
         | None -> false)
       outs
