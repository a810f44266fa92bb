(* Policy-to-forward (Figure 8's path): a participant re-installs its SDX
   application, which recompiles the whole table; the fabric commits it
   in two phases, and a probe must follow the policy now in force.  Each
   participant with an outbound policy turns it off and back on, so the
   exchange ends every pair of changes where it started. *)

open Sdx_net
open Sdx_bgp
open Sdx_policy
module Runtime = Sdx_core.Runtime
module Config = Sdx_core.Config
module Participant = Sdx_core.Participant
module Ppolicy = Sdx_core.Ppolicy
module Compile = Sdx_core.Compile

(* Changes whose allocation is counted, untraced and unmeasured, before
   the phase is measured. *)
let counted_changes = 4

(* [pkt] changed to satisfy [pred]'s first conjunctive branch; [None]
   when that needs a negation. *)
let rec satisfy (pkt : Packet.t) (pred : Pred.t) =
  match pred with
  | True -> Some pkt
  | False | Not _ -> None
  | Or (a, _) -> satisfy pkt a
  | And (a, b) -> Option.bind (satisfy pkt a) (fun pkt -> satisfy pkt b)
  | Test (p : Pattern.t) ->
      let inside o v =
        match o with
        | Some pfx when Prefix.length pfx < 31 -> Prefix.host pfx 1
        | Some pfx -> Prefix.first pfx
        | None -> v
      in
      Some
        {
          pkt with
          src_ip = inside p.src_ip pkt.src_ip;
          dst_ip = inside p.dst_ip pkt.dst_ip;
          proto = Option.value p.proto ~default:pkt.proto;
          src_port = Option.value p.src_port ~default:pkt.src_port;
          dst_port = Option.value p.dst_port ~default:pkt.dst_port;
        }

type subject = {
  asn : Asn.t;
  inbound : Ppolicy.t;
  outbound : Ppolicy.t;
  base : Packet.t;  (** probe headers; the port and VMAC come per change *)
  prefix : Prefix.t;  (** the routed prefix holding [base.dst_ip] *)
}

(* A probe matching one of the participant's own outbound clauses toward
   a peer that can carry it, so turning the policy off moves it; else a
   plain probe. *)
let subject (ex : Exchange.t) (p : Participant.t) =
  let server = Config.server (Runtime.config ex.runtime) in
  let routed (pkt : Packet.t) =
    Option.map (fun (prefix, _) -> (pkt, prefix))
      (Route_server.lookup_best server ~receiver:p.asn pkt.dst_ip)
  in
  let steered (c : Ppolicy.clause) =
    match c.target with
    | Peer via ->
        Option.bind (satisfy Probe.plain c.pred) (fun pkt ->
            let pkt =
              if Ipv4.equal pkt.Packet.dst_ip Ipv4.zero then
                match Route_server.reachable_prefixes server ~receiver:p.asn ~via with
                | prefix :: _ -> { pkt with dst_ip = Prefix.first prefix }
                | [] -> pkt
              else pkt
            in
            if Pred.eval c.pred pkt then routed pkt else None)
    | _ -> None
  in
  let fallback () =
    List.find_map
      (fun prefix -> routed { Probe.plain with dst_ip = Prefix.first prefix })
      ex.workload.universe
  in
  match
    match List.find_map steered p.outbound with Some x -> Some x | None -> fallback ()
  with
  | Some (base, prefix) ->
      Some { asn = p.asn; inbound = p.inbound; outbound = p.outbound; base; prefix }
  | None -> None

(* Where the probe may leave: the peers of the clauses in force that
   match it and can carry its prefix, else the BGP best route's
   announcer.  [None] when a matching clause does not target a peer. *)
let egress (ex : Exchange.t) s ~policy (pkt : Packet.t) =
  let feasible =
    Route_server.feasible (Config.server (Runtime.config ex.runtime)) ~receiver:s.asn s.prefix
  in
  let matching = List.filter (fun (c : Ppolicy.clause) -> Pred.eval c.pred pkt) policy in
  if List.exists (fun (c : Ppolicy.clause) -> match c.target with Peer _ -> false | _ -> true) matching
  then None
  else
    let peers =
      List.filter_map
        (fun (c : Ppolicy.clause) ->
          match c.target with
          | Peer via when List.exists (fun (r : Route.t) -> Asn.equal r.learned_from via) feasible ->
              Some via
          | _ -> None)
        matching
    in
    if peers <> [] then Some peers
    else Option.map (fun (b : Route.t) -> [ b.learned_from ]) (Probe.best ex ~receiver:s.asn s.prefix)

(* The policy phase: [cycles] times, every participant with an outbound
   policy turns it off and back on, one change per step, starting from
   the participant --seed picks.  [counted_changes] run first, on the
   first participants, untraced and unmeasured, and have their allocation
   counted exactly. *)
let phase (ex : Exchange.t) ~seed ~cycles ~traced (report : Report.t) =
  let rt = ex.runtime in
  let subjects =
    List.filter_map
      (fun (p : Participant.t) -> if p.outbound = [] || p.ports = [] then None else subject ex p)
      (Config.participants (Runtime.config rt))
    |> Array.of_list
  in
  let n = Array.length subjects in
  if n = 0 then failwith "no participant has an outbound policy";
  let set_up = (Runtime.rule_count rt, Runtime.group_count rt) in
  let plain_ms = ref [] and traced_ms = ref [] in
  let compile_stats = ref [] and commits = ref [] in
  let changes = ref 0 in
  (* One change; returns its minor words. *)
  let change ~measured =
    let op = !changes in
    incr changes;
    let first = if measured then seed else 0 in
    let s = subjects.((((op / 2) + first) mod n + n) mod n) in
    let policy = if op land 1 = 0 then [] else s.outbound in
    let trace_this = traced && measured && (op / 2) land 1 = 1 in
    Span.enabled := trace_this;
    let t0 = Span.now () in
    let (stats, commit, probe), words =
      Stats.counting ~measured (fun () ->
          Span.with_ "change" ~op (fun () ->
              let stats =
                Span.with_ "runtime.set_policies" ~op (fun () ->
                    Runtime.set_policies rt s.asn ~inbound:s.inbound ~outbound:policy)
              in
              let commit = Exchange.commit ex ~op in
              let probe =
                Option.bind (Runtime.announcement rt ~receiver:s.asn s.prefix)
                  (fun (r : Route.t) ->
                    Probe.send ex ~op ~base:s.base ~sender:s.asn ~next_hop:r.next_hop
                      s.base.dst_ip)
              in
              (stats, commit, probe)))
    in
    let latency_ms = 1000.0 *. (Span.now () -. t0) in
    Span.enabled := false;
    if trace_this then begin
      traced_ms := latency_ms :: !traced_ms;
      compile_stats := stats :: !compile_stats;
      commits := commit :: !commits
    end
    else if measured then plain_ms := latency_ms :: !plain_ms;
    let delivered =
      match probe with
      | None -> false
      | Some ((pkt, _) as p) ->
          let anyone = List.map fst (Array.to_list ex.routers) in
          Probe.delivered_ok ex p
            ~egress:(Option.value (egress ex s ~policy pkt) ~default:anyone)
    in
    (* Turning the policy back on restores the table as set up. *)
    let shape = (Runtime.rule_count rt, Runtime.group_count rt) in
    let drifted = policy != [] && shape <> set_up in
    Report.attempt report (delivered && not drifted)
      (lazy
        (Printf.sprintf "change %d (%s, outbound %s): probe delivered=%b, %d rules in %d groups"
           op (Asn.to_string s.asn) (if policy = [] then "off" else "on") delivered (fst shape)
           (snd shape)));
    words
  in
  let counted_words =
    List.fold_left (fun w _ -> w +. change ~measured:false) 0.0 (List.init counted_changes Fun.id)
  in
  let finish () =
    let m = Report.metric report in
    let all_ms = !plain_ms @ !traced_ms in
    if not traced then begin
      m "policy_to_forward_p50_ms" "ms" (Stats.median all_ms);
      m "policy_to_forward_p90_ms" "ms" (Stats.quantile 0.9 all_ms)
    end
    else begin
      let self = Span.self_times ~root:"change" in
      let n = float_of_int (List.length !traced_ms) in
      let per_change name = 1000.0 *. Span.self_total self name /. n in
      let stats = !compile_stats in
      let last = List.hd stats in
      let mean f = Stats.mean (List.map f stats) in
      m "runtime.set_policies_ms" "ms" (per_change "runtime.set_policies");
      m "compile.reachability_s" "s" (mean (fun (s : Compile.stats) -> s.reachability_s));
      m "compile.group_s" "s" (mean (fun (s : Compile.stats) -> s.group_s));
      m "compile.compose_s" "s" (mean (fun (s : Compile.stats) -> s.compose_s));
      m "compile.fdd_build_s" "s" (mean (fun (s : Compile.stats) -> s.fdd_build_s));
      m "compile.fdd_merge_s" "s" (mean (fun (s : Compile.stats) -> s.fdd_merge_s));
      m "compile.fdd_extract_s" "s" (mean (fun (s : Compile.stats) -> s.fdd_extract_s));
      m "compile.rules" "count" (float_of_int last.rule_count);
      m "compile.groups" "count" (float_of_int last.group_count);
      m "fdd.nodes" "count" (mean (fun (s : Compile.stats) -> float_of_int s.fdd_nodes));
      m "fdd.memo_hits" "count/change" (mean (fun (s : Compile.stats) -> float_of_int s.fdd_memo_hits));
      m "runtime.policy_flows_ms" "ms" (per_change "runtime.flows");
      m "fabric.policy_commit_ms" "ms" (per_change "fabric.commit");
      m "fabric.policy_flow_mods" "count/commit"
        (Stats.mean (List.map (fun c -> float_of_int (Sdx_fabric.Fabric.total_mods c)) !commits));
      m "probe.policy_walk_ms" "ms" (per_change "probe");
      let coverage = Span.coverage "change" in
      (* The stages on the blocking path must account for the latency. *)
      Report.attempt report (coverage >= 0.9)
        (lazy (Printf.sprintf "stages cover %.0f%% of change latency" (100.0 *. coverage)));
      m "stage_coverage.policy" "ratio" coverage;
      m "trace_overhead.policy_ms" "ms" (Stats.median !traced_ms -. Stats.median !plain_ms);
      m "gc.minor_words_per_change" "words/change" (counted_words /. float_of_int counted_changes)
    end
  in
  (Phase.make ~name:"policy" ~ops:(2 * n * cycles) (fun () -> ignore (change ~measured:true)), finish)
