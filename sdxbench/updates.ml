(* Update-to-forward (§4.3.2, Figure 10): bursts from an AMS-IX-shaped
   trace travel as UPDATE bytes from the participants' routers through
   the gateway and the fast path, the fabric commits the new flows in
   two phases, the re-advertisements reach the routers, and a probe sent
   on the newly learned path must arrive where BGP says.  Quiet gaps in
   the trace run the background stage, as Replay.run does. *)

open Sdx_net
open Sdx_bgp
open Sdx_ixp
module Runtime = Sdx_core.Runtime
module Gateway = Sdx_core.Gateway
module Fabric = Sdx_fabric.Fabric

let profile = Trace.scale Trace.ams_ix 0.002

(* Table 1's collection window, January 1-6, which the scaled update
   count is spread over: bursts of about three updates. *)
let trace_window_s = 6.0 *. 86_400.0
let quiet_gap_s = 60.0

(* Bursts whose allocation is counted, untraced and unmeasured, before the
   phase is measured. *)
let counted_bursts = 16

(* One trace after another, each from its own seed, so a run never runs
   out of bursts. *)
let bursts ~seed w =
  let rec chunk k () =
    let rng = Rng.create ~seed:(seed + (k * 7919)) in
    let trace = Replay.trace_for_workload rng w ~profile ~duration_s:trace_window_s in
    Seq.append (List.to_seq trace) (chunk (k + 1)) ()
  in
  chunk 0

(* The first [counted_bursts] bursts of the trace drawn from [trace_seed]
   warm the exchange up; the [n] after them are measured, with --seed
   shuffling which burst's updates arrive in which slot: every run handles
   the same updates, in its own order. *)
let schedule ~trace_seed ~seed w n =
  let all = List.of_seq (Seq.take (counted_bursts + n) (bursts ~seed:trace_seed w)) in
  let warm = List.filteri (fun i _ -> i < counted_bursts) all in
  let measured = List.filteri (fun i _ -> i >= counted_bursts) all in
  let updates = Rng.shuffle (Rng.create ~seed) (List.map (fun (b : Trace.burst) -> b.updates) measured) in
  (warm, List.map2 (fun (b : Trace.burst) updates -> { b with updates }) measured updates)

(* Consecutive updates from one peer travel as one delivery. *)
let runs updates =
  List.fold_right
    (fun u acc ->
      match acc with
      | (peer, us) :: rest when Asn.equal peer (Update.peer u) -> (peer, u :: us) :: rest
      | _ -> (Update.peer u, [ u ]) :: acc)
    updates []

(* What each participant's router puts on the wire for the burst. *)
let encode (ex : Exchange.t) updates =
  List.map
    (fun (peer, us) ->
      let router = Exchange.router_of ex peer in
      List.iter (Peer.send_update router) us;
      (peer, Bytes.concat Bytes.empty (Peer.pending_output router)))
    (runs updates)

(* Rules whose (priority, match) appeared, disappeared or changed actions
   between two committed rulesets. *)
let changed_rules (before : Sdx_openflow.Flow.t list) after =
  let key (f : Sdx_openflow.Flow.t) = (f.priority, f.pattern) in
  let old = Hashtbl.create 4096 in
  List.iter (fun f -> Hashtbl.replace old (key f) f.Sdx_openflow.Flow.actions) before;
  let changed =
    List.fold_left
      (fun n (f : Sdx_openflow.Flow.t) ->
        match Hashtbl.find_opt old (key f) with
        | Some actions ->
            Hashtbl.remove old (key f);
            if actions = f.actions then n else n + 1
        | None -> n + 1)
      0 after
  in
  changed + Hashtbl.length old

(* The probe the burst's receivers make possible: the latest route some
   router learned for one of the burst's prefixes in this burst, or,
   when no best route moved, the route the SDX currently advertises. *)
let probe_target (ex : Exchange.t) ~learned updates =
  let seen = Hashtbl.create 16 in
  let fresh =
    List.find_map
      (fun (receiver, u) ->
        let key = (receiver, Update.prefix u) in
        if Hashtbl.mem seen key then None
        else begin
          Hashtbl.add seen key ();
          match u with
          | Update.Announce (r : Route.t) -> Some (receiver, r)
          | Update.Withdraw _ -> None
        end)
      learned
  in
  match fresh with
  | Some _ -> fresh
  | None ->
      List.find_map
        (fun u ->
          Array.to_seq ex.routers
          |> Seq.find_map (fun (receiver, _) ->
                 if Asn.equal receiver (Update.peer u) then None
                 else
                   Option.map
                     (fun r -> (receiver, r))
                     (Runtime.announcement ex.runtime ~receiver (Update.prefix u))))
        (List.rev updates)

(* The next hop a probe toward [r] takes: the one the SDX announces to
   [receiver] now.  Gateway.deliver re-advertises a prefix only when a
   best route moved, but an update from a peer that some outbound policy
   diverts through re-batches the prefix under a fresh VNH without moving
   a best route, so the router can hold a next hop whose ARP binding is
   gone; [stale_routes] counts those.  The policy phase probes along the
   announcement too. *)
let next_hop (ex : Exchange.t) ~receiver (r : Route.t) =
  match Runtime.announcement ex.runtime ~receiver r.prefix with
  | Some now -> now.next_hop
  | None -> r.next_hop

(* Routes the routers learned in this burst, latest per router and
   prefix, whose next hop the SDX no longer announces. *)
let stale_routes (ex : Exchange.t) learned =
  let seen = Hashtbl.create 64 in
  List.fold_left
    (fun n (receiver, u) ->
      let key = (receiver, Update.prefix u) in
      if Hashtbl.mem seen key then n
      else begin
        Hashtbl.add seen key ();
        match u with
        | Update.Announce (r : Route.t)
          when not (Ipv4.equal (next_hop ex ~receiver r) r.next_hop) ->
            n + 1
        | _ -> n
      end)
    0 learned

type traced = {
  mutable bursts : int;
  mutable fast_path_s : float;
  mutable best_changed : int;
  mutable extra_rules : int;
  mutable migrated : int;
  mutable bytes : int;
  mutable commits : int;
  mutable flow_mods : int;
  mutable barriers : int;
  mutable changed : int;
  mutable flip_s : float;
  mutable gc_s : float;
  mutable flip_gc_s : float;  (** from Installed to Collected *)
}

(* The update phase: [bursts] bursts, one per step, after the warm-up
   bursts, which run untraced and unmeasured and have their allocation
   counted exactly.  [finish] checks the fast path against a fresh compile
   and reports. *)
let phase (ex : Exchange.t) ~trace_seed ~seed ~bursts ~traced (report : Report.t) =
  let rt = ex.runtime in
  let tr =
    {
      bursts = 0; fast_path_s = 0.0; best_changed = 0; extra_rules = 0;
      migrated = 0; bytes = 0; commits = 0; flow_mods = 0; barriers = 0;
      changed = 0; flip_s = 0.0; gc_s = 0.0; flip_gc_s = 0.0;
    }
  in
  let plain_ms = ref [] and traced_ms = ref [] in
  let updates = ref 0 and bursts_done = ref 0 and busy_s = ref 0.0 in
  let reopt_s = ref [] and stale_total = ref 0 in
  let last_at = ref neg_infinity in
  let warm, measured = schedule ~trace_seed ~seed ex.workload bursts in
  let pending = ref (warm @ measured) in
  (* One burst; returns its update count and minor words. *)
  let burst ~measured =
    let b : Trace.burst = List.hd !pending in
    pending := List.tl !pending;
    let op = !bursts_done in
    incr bursts_done;
    let started = Span.now () in
    Span.enabled := false;
    (* The background stage: a quiet gap re-optimizes and commits. *)
    if b.at_s -. !last_at >= quiet_gap_s && Runtime.extra_rule_count rt > 0 then begin
      let t0 = Span.now () in
      ignore (Runtime.reoptimize rt);
      if measured then reopt_s := (Span.now () -. t0) :: !reopt_s;
      ignore (Exchange.commit ex)
    end;
    last_at := b.at_s;
    let trace_this = traced && measured && op land 1 = 1 in
    Span.enabled := trace_this;
    let wire = encode ex b.updates in
    let burst_prefixes = List.map Update.prefix b.updates in
    let flows_before = ex.flows in
    let mixed_before = Fabric.mixed_version_packets ex.fabric in
    let migrated_before = (Runtime.churn rt).churn_prefixes_migrated in
    let marks = ref [] in
    let on_phase ph = marks := (ph, Span.now ()) :: !marks in
    let errors = ref [] and stats = ref [] and commit = ref None in
    let learned = ref [] and bytes = ref 0 in
    let t0 = Span.now () in
    let (target, probe), words =
      Stats.counting ~measured (fun () ->
          Span.with_ "burst" ~op (fun () ->
              List.iter
                (fun (peer, data) ->
                  match
                    Span.with_ "gateway.deliver" ~op (fun () ->
                        Gateway.deliver ex.gateway ~from:peer data)
                  with
                  | Ok s -> stats := s @ !stats
                  | Error e -> errors := e :: !errors)
                wire;
              if Runtime.generation rt <> ex.committed then
                commit := Some (Exchange.commit ex ~on_phase ~op);
              bytes :=
                Span.with_ "gateway.readvertise" ~op (fun () ->
                    Exchange.drain ex (fun receiver u ->
                        if List.exists (Prefix.equal (Update.prefix u)) burst_prefixes
                        then learned := (receiver, u) :: !learned));
              let target = probe_target ex ~learned:!learned b.updates in
              let probe =
                Option.bind target (fun (sender, (r : Route.t)) ->
                    Probe.send ex ~op ~sender ~next_hop:(next_hop ex ~receiver:sender r)
                      (Prefix.first r.prefix))
              in
              (target, probe)))
    in
    let latency_ms = 1000.0 *. (Span.now () -. t0) in
    Span.enabled := false;
    let delivered =
      match (target, probe) with
      | Some (receiver, r), Some p -> (
          match Probe.best ex ~receiver r.prefix with
          | Some best -> Probe.delivered_ok ex p ~egress:[ best.learned_from ]
          | None -> false)
      | Some _, None -> false
      | None, _ ->
          (* Nothing to probe: correct only if no router may reach any of
             the burst's prefixes. *)
          Array.for_all
            (fun (receiver, _) ->
              List.for_all (fun p -> Probe.best ex ~receiver p = None) burst_prefixes)
            ex.routers
    in
    let mixed = Fabric.mixed_version_packets ex.fabric - mixed_before in
    if measured then stale_total := !stale_total + stale_routes ex !learned;
    Report.attempt report
      (!errors = [] && delivered && mixed = 0)
      (lazy
        (Printf.sprintf
           "burst %d: %d delivery errors (%s), probe delivered=%b, %d mixed-version packets" op
           (List.length !errors) (String.concat "; " !errors) delivered mixed));
    if measured then begin
      updates := !updates + List.length b.updates;
      busy_s := !busy_s +. (Span.now () -. started);
      if trace_this then traced_ms := latency_ms :: !traced_ms
      else plain_ms := latency_ms :: !plain_ms
    end;
    (if trace_this then begin
       tr.bursts <- tr.bursts + 1;
       tr.bytes <- tr.bytes + !bytes;
       List.iter
         (fun (s : Runtime.update_stats) ->
           tr.fast_path_s <- tr.fast_path_s +. s.processing_s;
           if s.best_changed then tr.best_changed <- tr.best_changed + 1;
           tr.extra_rules <- tr.extra_rules + s.extra_rules)
         !stats;
       tr.migrated <- tr.migrated + (Runtime.churn rt).churn_prefixes_migrated - migrated_before;
       match !commit with
       | None -> ()
       | Some c ->
           let at phase =
             Option.get (List.find_map (fun (ph, t) -> if phase ph then Some t else None) !marks)
           in
           let installed = at (function Fabric.Installed _ -> true | _ -> false)
           and flipped = at (function Fabric.Flipped _ -> true | _ -> false)
           and collected = at (function Fabric.Collected _ -> true | _ -> false) in
           tr.commits <- tr.commits + 1;
           tr.flow_mods <- tr.flow_mods + Fabric.total_mods c;
           tr.barriers <- tr.barriers + c.barriers;
           tr.changed <- tr.changed + changed_rules flows_before ex.flows;
           tr.flip_s <- tr.flip_s +. (flipped -. installed);
           tr.gc_s <- tr.gc_s +. (collected -. flipped);
           tr.flip_gc_s <- tr.flip_gc_s +. (collected -. installed)
     end);
    (List.length b.updates, words)
  in
  let counted_updates, counted_words =
    List.fold_left
      (fun (u, w) _ ->
        let u', w' = burst ~measured:false in
        (u + u', w +. w'))
      (0, 0.0)
      warm
  in
  let finish () =
    (* The fast path must forward exactly like a from-scratch compile. *)
    let reference = Runtime.create (Runtime.config rt) in
    let divergences = Replay.forwarding_divergences rt ~reference in
    Printf.printf "# updates: %d learned routes kept a next hop the gateway never re-advertised\n"
      !stale_total;
    Report.attempt report (divergences = [])
      (lazy
        (Printf.sprintf "%d (participant, prefix) pairs forward differently from a fresh compile"
           (List.length divergences)));
    let m = Report.metric report in
    let all_ms = !plain_ms @ !traced_ms in
    if not traced then begin
      m "update_to_forward_p50_ms" "ms" (Stats.median all_ms);
      m "update_to_forward_p90_ms" "ms" (Stats.quantile 0.9 all_ms);
      m "updates_per_s" "updates/s" (float_of_int !updates /. !busy_s)
    end
    else begin
      let self = Span.self_times ~root:"burst" in
      let bursts = float_of_int tr.bursts in
      let per_burst name = 1000.0 *. Span.self_total self name /. bursts in
      let per_burst_count n = float_of_int n /. bursts in
      let deliver_ms = per_burst "gateway.deliver" in
      let fast_path_ms = 1000.0 *. tr.fast_path_s /. bursts in
      let commit_ms = per_burst "fabric.commit" in
      m "gateway.deliver_ms" "ms" deliver_ms;
      m "gateway.wire_ms" "ms" (deliver_ms -. fast_path_ms);
      m "gateway.bytes_out" "bytes/burst" (per_burst_count tr.bytes);
      m "gateway.readvertise_ms" "ms" (per_burst "gateway.readvertise");
      m "runtime.fast_path_ms" "ms" fast_path_ms;
      m "runtime.best_changed" "count/burst" (per_burst_count tr.best_changed);
      m "runtime.extra_rules" "count/burst" (per_burst_count tr.extra_rules);
      m "compile.groups_migrated" "count/burst" (per_burst_count tr.migrated);
      m "runtime.flows_ms" "ms" (per_burst "runtime.flows");
      m "fabric.commit_ms" "ms" commit_ms;
      m "fabric.install_ms" "ms" (commit_ms -. (1000.0 *. tr.flip_gc_s /. bursts));
      m "fabric.flip_ms" "ms" (1000.0 *. tr.flip_s /. bursts);
      m "fabric.gc_ms" "ms" (1000.0 *. tr.gc_s /. bursts);
      m "fabric.flow_mods" "count/commit" (float_of_int tr.flow_mods /. float_of_int tr.commits);
      m "fabric.barriers" "count/commit" (float_of_int tr.barriers /. float_of_int tr.commits);
      m "fabric.useful_mod_ratio" "ratio" (float_of_int tr.changed /. float_of_int tr.flow_mods);
      m "probe.walk_ms" "ms" (per_burst "probe");
      m "gateway.stale_routes" "count/burst"
        (float_of_int !stale_total /. float_of_int (List.length all_ms));
      m "runtime.reoptimize_ms" "ms" (1000.0 *. Stats.mean !reopt_s);
      m "runtime.reoptimizations" "1/burst"
        (float_of_int (List.length !reopt_s) /. float_of_int (List.length all_ms));
      let coverage = Span.coverage "burst" in
      (* The stages on the blocking path must account for the latency. *)
      Report.attempt report (coverage >= 0.9)
        (lazy (Printf.sprintf "stages cover %.0f%% of burst latency" (100.0 *. coverage)));
      m "stage_coverage.update" "ratio" coverage;
      m "trace_overhead.update_ms" "ms" (Stats.median !traced_ms -. Stats.median !plain_ms);
      m "gc.minor_words_per_update" "words/update" (counted_words /. float_of_int counted_updates)
    end
  in
  (Phase.make ~name:"updates" ~ops:bursts (fun () -> ignore (burst ~measured:true)), finish)
