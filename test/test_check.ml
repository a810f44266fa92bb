(* The sdx_check static analyzer: clean artifacts verify clean, and each
   seeded violation class is caught by the matching pass. *)

open Sdx_net
open Sdx_policy
open Sdx_bgp
open Sdx_core
open Sdx_fabric
open Sdx_ixp
module Check = Sdx_check.Check

let check_bool = Alcotest.(check bool)

let has_code code (findings : Check.finding list) =
  List.exists (fun (f : Check.finding) -> f.Check.code = code) findings

let error_with_code code report =
  has_code code (Check.errors report)

let pp_errors r =
  Format.asprintf "%a" Check.pp_report
    { r with Check.findings = Check.errors r }

(* ------------------------------------------------------------------ *)
(* Clean artifacts.                                                    *)

let test_fig1_clean () =
  let runtime = Fig1.make_runtime () in
  let report = Check.runtime runtime in
  check_bool
    (Format.asprintf "figure 1 verifies clean: %s" (pp_errors report))
    false (Check.has_errors report);
  check_bool "checked the whole classifier" true
    (report.Check.rules_checked > 0)

let test_fig1_clean_after_updates () =
  let runtime = Fig1.make_runtime () in
  ignore
    (Runtime.announce runtime ~peer:Fig1.asn_d ~port:0
       (Prefix.of_string "50.0.0.0/8"));
  ignore (Runtime.withdraw runtime ~peer:Fig1.asn_b Fig1.p3);
  let report = Check.runtime runtime in
  check_bool
    (Format.asprintf "fast-path blocks verify clean: %s" (pp_errors report))
    false (Check.has_errors report)

let test_workload_clean () =
  let w = Workload.build (Rng.create ~seed:7) ~participants:15 ~prefixes:120 () in
  let runtime = Workload.runtime w in
  let report = Check.runtime runtime in
  check_bool
    (Format.asprintf "workload verifies clean: %s" (pp_errors report))
    false (Check.has_errors report)

let prop_generated_workloads_clean =
  QCheck.Test.make ~count:8 ~name:"generated workloads verify clean"
    QCheck.(pair (int_range 1 1000) (int_range 4 14))
    (fun (seed, participants) ->
      let w =
        Workload.build (Rng.create ~seed) ~participants
          ~prefixes:(participants * 6) ()
      in
      let runtime = Workload.runtime w in
      let report = Check.runtime runtime in
      if Check.has_errors report then
        QCheck.Test.fail_reportf "seed %d: %s" seed (pp_errors report)
      else true)

let prop_bursts_stay_clean =
  QCheck.Test.make ~count:6 ~name:"fast-path bursts stay clean"
    QCheck.(int_range 1 1000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let w = Workload.build rng ~participants:10 ~prefixes:80 () in
      let runtime = Workload.runtime w in
      ignore (Runtime.handle_burst runtime (Workload.burst rng w ~size:5));
      ignore (Runtime.handle_burst runtime (Workload.burst rng w ~size:3));
      let report = Check.runtime runtime in
      if Check.has_errors report then
        QCheck.Test.fail_reportf "seed %d: %s" seed (pp_errors report)
      else true)

(* A 2-switch fabric over the Figure 1 ports: A and B1 on switch 1,
   B2/C/D on switch 2. *)
let two_switch_fabric runtime =
  let topo =
    Topology.create ~switches:[ 1; 2 ]
      ~links:[ (1, 2) ]
      ~port_home:[ (1, 1); (2, 1); (3, 2); (4, 2); (5, 2) ]
  in
  Topology.build topo (Runtime.classifier runtime)

let test_fabric_clean () =
  let runtime = Fig1.make_runtime () in
  let fab = two_switch_fabric runtime in
  let findings = Check.fabric_loops fab in
  check_bool "tree-trunked fabric has no cycles" false
    (has_code "fabric-cycle" findings
    || has_code "hop-bound-exceeded" findings)

(* ------------------------------------------------------------------ *)
(* Seeded mutations: each violation class is caught by its pass.       *)

(* Mutation 1: strip the in-port pinning from a policy rule — the §4.1
   isolation augmentation — and the isolation pass must object. *)
let test_mutation_unpinned_rule () =
  let runtime = Fig1.make_runtime () in
  let subject = Check.subject_of_runtime runtime in
  let dropped = ref false in
  let rules =
    List.map
      (fun ((r : Classifier.rule), prov) ->
        match prov with
        | Compile.Outbound { via = Some _; _ } when not !dropped ->
            dropped := true;
            ({ r with Classifier.pattern = { r.pattern with Pattern.port = None } }, prov)
        | _ -> (r, prov))
      (Check.rules subject)
  in
  check_bool "found a policy rule to mutate" true !dropped;
  let report = Check.run (Check.with_rules subject rules) in
  check_bool "unpinned rule caught" true
    (error_with_code "unpinned-policy-rule" report);
  let witness =
    List.find_map
      (fun (f : Check.finding) ->
        if f.Check.code = "unpinned-policy-rule" then f.Check.witness else None)
      (Check.errors report)
  in
  check_bool "witness packet provided" true (witness <> None)

(* Mutation 2: re-pin a policy rule to another participant's port. *)
let test_mutation_foreign_ingress () =
  let runtime = Fig1.make_runtime () in
  let config = Runtime.config runtime in
  let subject = Check.subject_of_runtime runtime in
  let mutated = ref false in
  let rules =
    List.map
      (fun ((r : Classifier.rule), prov) ->
        match prov with
        | Compile.Outbound { sender; via = Some _; _ } when not !mutated ->
            let foreign =
              List.concat_map
                (fun (p : Participant.t) ->
                  if Asn.equal p.asn sender then []
                  else Config.switch_ports_of config p.asn)
                (Config.participants config)
            in
            mutated := true;
            ( {
                r with
                Classifier.pattern =
                  { r.pattern with Pattern.port = Some (List.hd foreign) };
              },
              prov )
        | _ -> (r, prov))
      (Check.rules subject)
  in
  check_bool "found a policy rule to mutate" true !mutated;
  let report = Check.run (Check.with_rules subject rules) in
  check_bool "foreign in-port caught" true
    (error_with_code "foreign-ingress" report)

(* Mutation 3: forward toward a prefix the route server no longer
   exports — withdraw behind the runtime's back so the classifier goes
   stale, the situation the BGP pass exists to catch. *)
let test_mutation_stale_export () =
  let runtime = Fig1.make_runtime () in
  let config = Runtime.config runtime in
  (* Both announcers of p3 withdraw directly on the route server; no
     recompilation happens, so every p3 rule is now stale. *)
  ignore (Config.withdraw config ~peer:Fig1.asn_b Fig1.p3);
  ignore (Config.withdraw config ~peer:Fig1.asn_c Fig1.p3);
  let report = Check.runtime runtime in
  check_bool "stale diversion caught" true
    (error_with_code "forward-beyond-export" report);
  check_bool "stale default forwarding caught" true
    (error_with_code "stale-default-forward" report)

(* Mutation 4: splice a forwarding cycle across the two-switch fabric's
   trunk; the symbolic walk must find it. *)
let test_mutation_spliced_cycle () =
  let runtime = Fig1.make_runtime () in
  let fab = two_switch_fabric runtime in
  let topo = Topology.topo fab in
  let p1t = Topology.trunk_port topo ~from:1 ~toward_neighbor:2 in
  let p2t = Topology.trunk_port topo ~from:2 ~toward_neighbor:1 in
  let rule ~in_port ~out =
    {
      Classifier.pattern = Pattern.make ~port:in_port ~dst_port:9999 ();
      action = [ Mods.make ~port:out () ];
    }
  in
  let table s = Option.get (Topology.table fab s) in
  (* Physical ingress on switch 1 enters the bounce; each trunk side
     reflects the packet back across the link. *)
  Topology.set_table fab 1
    (rule ~in_port:1 ~out:p1t :: rule ~in_port:p1t ~out:p1t :: table 1);
  Topology.set_table fab 2 (rule ~in_port:p2t ~out:p2t :: table 2);
  let findings = Check.fabric_loops fab in
  check_bool "spliced cycle caught" true (has_code "fabric-cycle" findings);
  let witness =
    List.find_map
      (fun (f : Check.finding) ->
        if f.Check.code = "fabric-cycle" then f.Check.witness else None)
      findings
  in
  check_bool "cycle witness provided" true (witness <> None)

(* Mutation 5: a middlebox service chain that bites its own tail — the
   Prelude failure mode. *)
let test_mutation_redirect_cycle () =
  let mac = Mac.of_string and ip = Ipv4.of_string in
  let m1 =
    Participant.make ~asn:(Asn.of_int 65101)
      ~ports:[ (mac "0a:00:00:00:00:01", ip "172.1.0.1") ]
      ~outbound:[ Ppolicy.steer (Pred.dst_port 80) (Asn.of_int 65102) ]
      ()
  in
  let m2 =
    Participant.make ~asn:(Asn.of_int 65102)
      ~ports:[ (mac "0a:00:00:00:00:02", ip "172.1.0.2") ]
      ~outbound:[ Ppolicy.steer (Pred.dst_port 80) (Asn.of_int 65101) ]
      ()
  in
  let runtime = Runtime.create (Config.make [ m1; m2 ]) in
  let report = Check.runtime runtime in
  check_bool "redirect cycle caught" true
    (error_with_code "redirect-cycle" report)

(* Disjoint steering predicates break the cycle: structural cycle only,
   no error. *)
let test_redirect_cycle_unsatisfiable () =
  let mac = Mac.of_string and ip = Ipv4.of_string in
  let m1 =
    Participant.make ~asn:(Asn.of_int 65101)
      ~ports:[ (mac "0a:00:00:00:00:01", ip "172.1.0.1") ]
      ~outbound:[ Ppolicy.steer (Pred.dst_port 80) (Asn.of_int 65102) ]
      ()
  in
  let m2 =
    Participant.make ~asn:(Asn.of_int 65102)
      ~ports:[ (mac "0a:00:00:00:00:02", ip "172.1.0.2") ]
      ~outbound:[ Ppolicy.steer (Pred.dst_port 443) (Asn.of_int 65101) ]
      ()
  in
  let runtime = Runtime.create (Config.make [ m1; m2 ]) in
  let report = Check.runtime runtime in
  check_bool "no satisfiable cycle" false (error_with_code "redirect-cycle" report);
  check_bool "structural cycle still noted" true
    (has_code "redirect-cycle-unsatisfiable" report.Check.findings)

(* Mutation 6: delete a prefix group's stage-2 handler rules; the
   tagging table still writes its VMAC, so the lint pass must flag the
   blackhole. *)
let test_mutation_unhandled_vmac () =
  let runtime = Fig1.make_runtime () in
  let subject = Check.subject_of_runtime runtime in
  let victim =
    match Compile.groups (Runtime.compiled runtime) with
    | g :: _ -> g
    | [] -> Alcotest.fail "no prefix groups"
  in
  let rules =
    List.filter
      (fun ((r : Classifier.rule), _) ->
        match r.Classifier.pattern.Pattern.dst_mac with
        | Some m -> not (Mac.equal m victim.Compile.vmac)
        | None -> true)
      (Check.rules subject)
  in
  let report = Check.run (Check.with_rules subject rules) in
  check_bool "unhandled stage-1 tag caught" true
    (error_with_code "stage1-tag-unhandled" report)

(* Mutation 7: send a group's default traffic out of a port no feasible
   route's next hop justifies.  Only the per-(sender, group) trace
   through the witness index can see it: the rule is well-formed in
   isolation, but the delivery disagrees with BGP. *)
let test_mutation_default_divergence () =
  let runtime = Fig1.make_runtime () in
  let config = Runtime.config runtime in
  let subject = Check.subject_of_runtime runtime in
  let unjustified =
    1
    + List.fold_left max 0
        (List.concat_map
           (fun (p : Participant.t) -> Config.switch_ports_of config p.asn)
           (Config.participants config))
  in
  let forwards (r : Classifier.rule) =
    List.exists
      (fun (m : Mods.t) ->
        match m.port with
        | Some o -> o <> Compile.blackhole_port
        | None -> false)
      r.action
  in
  let mutated = ref None in
  let rules =
    List.mapi
      (fun i ((r : Classifier.rule), prov) ->
        match prov with
        | Compile.Group_default _ when !mutated = None && forwards r ->
            mutated := Some i;
            ({ r with Classifier.action = [ Mods.make ~port:unjustified () ] }, prov)
        | _ -> (r, prov))
      (Check.rules subject)
  in
  check_bool "found a forwarding default rule to mutate" true (!mutated <> None);
  let report = Check.run ~passes:[ "bgp" ] (Check.with_rules subject rules) in
  let hits =
    List.filter
      (fun (f : Check.finding) -> f.Check.code = "default-route-divergence")
      (Check.errors report)
  in
  check_bool "divergent default delivery caught" true (hits <> []);
  let i = Option.get !mutated in
  let pattern = (fst (List.nth rules i)).Classifier.pattern in
  check_bool "every hit names the mutated rule with a witness it matches" true
    (List.for_all
       (fun (f : Check.finding) ->
         f.Check.rules = [ i ]
         &&
         match f.Check.witness with
         | Some w -> Pattern.matches pattern w
         | None -> false)
       hits)

(* Mutation 8: retag a BGP-diverting policy rule with a destination MAC
   that is not its group's VMAC, so it would match (or miss) traffic
   announced for another group. *)
let test_mutation_vmac_mismatch () =
  let runtime = Fig1.make_runtime () in
  let subject = Check.subject_of_runtime runtime in
  let foreign = Mac.of_string "0e:00:00:00:ff:ff" in
  let mutated = ref None in
  let rules =
    List.mapi
      (fun i ((r : Classifier.rule), prov) ->
        match prov with
        | Compile.Outbound { via = Some _; group = Some _; _ }
          when !mutated = None ->
            mutated := Some i;
            ( {
                r with
                Classifier.pattern =
                  { r.pattern with Pattern.dst_mac = Some foreign };
              },
              prov )
        | _ -> (r, prov))
      (Check.rules subject)
  in
  check_bool "found a diverting rule to mutate" true (!mutated <> None);
  let report = Check.run ~passes:[ "bgp" ] (Check.with_rules subject rules) in
  check_bool "retagged rule caught" true
    (List.exists
       (fun (f : Check.finding) ->
         f.Check.code = "vmac-mismatch" && f.Check.rules = [ Option.get !mutated ])
       (Check.errors report))

(* Shadowed rules surface as warnings with both rule indices. *)
let test_shadow_lint () =
  let runtime = Fig1.make_runtime () in
  let subject = Check.subject_of_runtime runtime in
  let rules = Check.rules subject in
  let shadowed =
    (* Appended after the catch-all, so the catch-all covers it with a
       different action. *)
    ( {
        Classifier.pattern = Pattern.make ~dst_port:8080 ();
        action = [ Mods.make ~port:1 () ];
      },
      Compile.Unattributed )
  in
  let report =
    Check.run ~passes:[ "lints" ] (Check.with_rules subject (rules @ [ shadowed ]))
  in
  check_bool "shadowed rule reported" true
    (has_code "shadowed-rule" (Check.warnings report))

(* ------------------------------------------------------------------ *)
(* Incremental checking: the dirty-set protocol cross-validated against
   the full pass.                                                       *)

let test_incremental_after_burst () =
  let runtime = Fig1.make_runtime () in
  (* Creation rebuilds the whole table, so the first consumer must fall
     back to a full pass. *)
  check_bool "fresh runtime reports a rebuild" true
    (Runtime.consume_dirty runtime = None);
  let stats =
    Runtime.announce runtime ~peer:Fig1.asn_d ~port:0
      (Prefix.of_string "50.0.0.0/8")
  in
  check_bool "fast path installed rules" true (stats.Runtime.extra_rules > 0);
  (match Runtime.last_dirty runtime with
  | None -> Alcotest.fail "expected a dirty-set after a fast-path burst"
  | Some d ->
      check_bool "dirty rules recorded" true (d.Runtime.dirty_rules <> []);
      check_bool "dirty groups recorded" true (d.Runtime.dirty_groups <> []);
      let subject = Check.subject_of_runtime runtime in
      let report = Check.run_incremental ~dirty:d subject in
      check_bool
        (Format.asprintf "incremental verifies clean: %s" (pp_errors report))
        false (Check.has_errors report);
      check_bool "scoped to the dirty rules" true
        (report.Check.rules_checked > 0
        && report.Check.rules_checked <= List.length d.Runtime.dirty_rules);
      check_bool "loop pass skipped" false
        (List.mem "loops" report.Check.passes_run));
  ignore (Runtime.consume_dirty runtime);
  (* Consuming resets the accumulator to the empty dirty-set... *)
  (match Runtime.consume_dirty runtime with
  | Some d -> check_bool "empty after consume" true (d.Runtime.dirty_rules = [])
  | None -> Alcotest.fail "expected the empty dirty-set after consuming");
  (* ...and a re-optimization invalidates it outright, forcing the
     runtime_incremental entry point into its full-pass fallback. *)
  ignore (Runtime.reoptimize runtime);
  let report = Check.runtime_incremental runtime in
  check_bool "fallback ran the full pass" true
    (List.mem "loops" report.Check.passes_run);
  check_bool
    (Format.asprintf "fallback verifies clean: %s" (pp_errors report))
    false (Check.has_errors report)

(* Staleness seeded into the dirty rules themselves must be caught by the
   inline incremental check — the per-burst always-on mode. *)
let test_incremental_catches_stale_burst () =
  let runtime = Fig1.make_runtime () in
  ignore (Runtime.consume_dirty runtime);
  let p_new = Prefix.of_string "50.0.0.0/8" in
  ignore (Runtime.announce runtime ~peer:Fig1.asn_d ~port:0 p_new);
  (* Withdraw behind the runtime's back: the just-installed fast-path
     block goes stale, and its rules are exactly the dirty ones. *)
  ignore (Config.withdraw (Runtime.config runtime) ~peer:Fig1.asn_d p_new);
  let report = Check.runtime_incremental runtime in
  check_bool "incremental passes only" false
    (List.mem "loops" report.Check.passes_run);
  check_bool "stale dirty rules caught incrementally" true
    (error_with_code "forward-beyond-export" report
    || error_with_code "stale-default-forward" report)

(* Precision: a violation seeded OUTSIDE the dirty-set is skipped by the
   incremental pass (that is the whole point — the periodic full
   checkpoints cover untouched rules) while the full pass still sees it. *)
let test_incremental_scopes_to_dirty () =
  let runtime = Fig1.make_runtime () in
  ignore (Runtime.consume_dirty runtime);
  ignore
    (Runtime.announce runtime ~peer:Fig1.asn_d ~port:0
       (Prefix.of_string "50.0.0.0/8"));
  let dirty =
    match Runtime.consume_dirty runtime with
    | Some d -> d
    | None -> Alcotest.fail "expected a dirty-set"
  in
  let subject = Check.subject_of_runtime runtime in
  let mutated = ref None in
  let rules =
    List.mapi
      (fun i ((r : Classifier.rule), prov) ->
        match prov with
        | Compile.Outbound { via = Some _; _ }
          when !mutated = None && not (List.mem i dirty.Runtime.dirty_rules) ->
            mutated := Some i;
            ( {
                r with
                Classifier.pattern = { r.pattern with Pattern.port = None };
              },
              prov )
        | _ -> (r, prov))
      (Check.rules subject)
  in
  check_bool "found an untouched policy rule to mutate" true (!mutated <> None);
  let mutated_subject = Check.with_rules subject rules in
  let full = Check.run mutated_subject in
  check_bool "full pass catches the mutation" true
    (error_with_code "unpinned-policy-rule" full);
  let inc = Check.run_incremental ~dirty mutated_subject in
  check_bool "incremental skips the untouched rule" false
    (error_with_code "unpinned-policy-rule" inc)

let prop_incremental_cross_validates =
  QCheck.Test.make ~count:6
    ~name:"incremental findings cross-validate against the full pass"
    QCheck.(int_range 1 1000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let w = Workload.build rng ~participants:10 ~prefixes:80 () in
      let runtime = Workload.runtime w in
      ignore (Runtime.consume_dirty runtime);
      ignore (Runtime.handle_burst runtime (Workload.burst rng w ~size:5));
      ignore (Runtime.handle_burst runtime (Workload.burst rng w ~size:3));
      match Runtime.consume_dirty runtime with
      | None -> true (* a burst fell forward into a rebuild; full pass covers it *)
      | Some dirty ->
          let subject = Check.subject_of_runtime runtime in
          let inc = Check.run_incremental ~dirty subject in
          let full = Check.run ~passes:Check.incremental_passes subject in
          let key (f : Check.finding) =
            (f.Check.pass, f.Check.code, f.Check.rules)
          in
          let full_keys = List.map key full.Check.findings in
          let missing =
            List.filter
              (fun f -> not (List.mem (key f) full_keys))
              inc.Check.findings
          in
          if missing <> [] then
            QCheck.Test.fail_reportf
              "seed %d: incremental-only finding(s) absent from the full \
               pass: %s"
              seed
              (pp_errors { inc with Check.findings = missing })
          else if Check.has_errors inc then
            QCheck.Test.fail_reportf "seed %d: %s" seed (pp_errors inc)
          else true)

(* ------------------------------------------------------------------ *)
(* The witness index against the linear first-match oracle.           *)

(* A reference BGP pass: the straightforward formulation the production
   pass is an optimization of.  Part (b) finds each traced packet's
   first matching rule by a linear scan of the ruleset, part (a)
   materializes every prefix [via] exports to [sender], and the route
   server and configuration are re-queried per (sender, group).
   Findings must agree exactly: order, codes, details, rule indices and
   witnesses. *)
let reference_bgp ?(only = fun _ -> true) ?(only_group = fun _ -> true) config
    compiled (rules : (Classifier.rule * Compile.provenance) array) =
  let server = Config.server config in
  let findings = ref [] in
  let add code i detail witness =
    findings :=
      {
        Check.pass = "bgp";
        code;
        severity = Check.Error;
        detail;
        rules = [ i ];
        witness = Some witness;
      }
      :: !findings
  in
  let group_by_id id =
    List.find_opt
      (fun (g : Compile.group) -> g.id = id)
      (Compile.all_groups compiled)
  in
  let live_prefixes (g : Compile.group) =
    List.filter
      (fun p ->
        match Compile.group_of_prefix compiled p with
        | Some g' -> g'.Compile.id = g.Compile.id
        | None -> false)
      g.Compile.prefixes
  in
  let originator_of prefix =
    List.find_opt
      (fun (p : Participant.t) -> List.exists (Prefix.equal prefix) p.originated)
      (Config.participants config)
  in
  let inbound_delivery_ports (p : Participant.t) =
    let of_clause (c : Ppolicy.clause) =
      match c.target with
      | Ppolicy.Redirect m -> Config.switch_ports_of config m
      | Ppolicy.Default -> (
          match c.mods.Mods.dst_ip with
          | None -> []
          | Some addr -> (
              match
                Route_server.lookup_best server ~receiver:p.asn addr
              with
              | None -> []
              | Some (_, route) -> (
                  match Config.port_of_next_hop config route.next_hop with
                  | None -> []
                  | Some (_, _, n) -> [ n ])))
      | Ppolicy.Peer _ | Ppolicy.Phys _ | Ppolicy.Drop -> []
    in
    Config.switch_ports_of config p.asn @ List.concat_map of_clause p.inbound
  in
  let output_ports (r : Classifier.rule) =
    List.filter_map (fun (m : Mods.t) -> m.port) r.action
  in
  Array.iteri
    (fun i ((r : Classifier.rule), prov) ->
      if only i then
        match prov with
        | Compile.Outbound { sender; via = Some via; group = Some gid } -> (
            match group_by_id gid with
            | None -> ()
            | Some g -> (
                (match r.pattern.Pattern.dst_mac with
                | Some m when Mac.equal m g.Compile.vmac -> ()
                | _ ->
                    add "vmac-mismatch" i
                      (Format.asprintf
                         "rule %d compiled for group %d does not match the \
                          group's VMAC tag"
                         i gid)
                      (Check.witness_of_pattern r.pattern));
                let exported =
                  Prefix.Set.of_list
                    (Route_server.reachable_prefixes server ~receiver:sender
                       ~via)
                in
                match
                  List.find_opt
                    (fun p -> not (Prefix.Set.mem p exported))
                    (live_prefixes g)
                with
                | None -> ()
                | Some p ->
                    add "forward-beyond-export" i
                      (Format.asprintf
                         "rule %d diverts %a's traffic for %a to %a, but the \
                          route server no longer exports a route for %a via \
                          %a"
                         i Asn.pp sender Prefix.pp p Asn.pp via Prefix.pp p
                         Asn.pp via)
                      (Check.witness_of_pattern
                         { r.pattern with Pattern.dst_ip = Some p })))
        | _ -> ())
    rules;
  let first_match_index pkt =
    let n = Array.length rules in
    let rec go i =
      if i >= n then None
      else
        let (r : Classifier.rule), prov = rules.(i) in
        if Pattern.matches r.pattern pkt then Some (i, r, prov) else go (i + 1)
    in
    go 0
  in
  List.iter
    (fun (sender : Participant.t) ->
      match Config.switch_ports_of config sender.asn with
      | [] -> ()
      | sport :: _ ->
          List.iter
            (fun (g : Compile.group) ->
              match live_prefixes g with
              | [] -> ()
              | _ when not (only_group g.id) -> ()
              | prefix :: _ -> (
                  let feas =
                    Route_server.feasible server ~receiver:sender.asn prefix
                  in
                  if
                    feas = []
                    && (Route_server.candidates server prefix <> []
                       || originator_of prefix <> None)
                  then ()
                  else
                    let pkt =
                      Packet.make ~port:sport ~dst_mac:g.vmac
                        ~dst_ip:(Prefix.first prefix) ()
                    in
                    match first_match_index pkt with
                    | None -> ()
                    | Some (_, _, (Compile.Outbound _ | Compile.Unattributed))
                      ->
                        ()
                    | Some (i, r, _) -> (
                        let outs =
                          List.filter
                            (fun o -> o <> Compile.blackhole_port)
                            (output_ports r)
                        in
                        let origin =
                          match originator_of prefix with
                          | Some owner -> inbound_delivery_ports owner
                          | None -> []
                        in
                        let expected =
                          List.concat_map
                            (fun (route : Route.t) ->
                              match
                                Config.port_of_next_hop config route.next_hop
                              with
                              | Some (owner, _, _) ->
                                  inbound_delivery_ports owner
                              | None -> origin)
                            feas
                          @ origin
                        in
                        match
                          List.find_opt (fun o -> not (List.mem o expected)) outs
                        with
                        | None -> ()
                        | Some o ->
                            if feas = [] then
                              add "stale-default-forward" i
                                (Format.asprintf
                                   "default rule %d still forwards %a's \
                                    traffic for %a (port %d), but no feasible \
                                    route remains"
                                   i Asn.pp sender.asn Prefix.pp prefix o)
                                pkt
                            else
                              add "default-route-divergence" i
                                (Format.asprintf
                                   "default rule %d delivers %a's traffic for \
                                    %a on port %d, which no feasible route's \
                                    next hop justifies"
                                   i Asn.pp sender.asn Prefix.pp prefix o)
                                pkt)))
            (Compile.all_groups compiled))
    (Config.participants config);
  List.rev !findings

let bgp_findings (r : Check.report) =
  List.filter (fun (f : Check.finding) -> f.Check.pass = "bgp") r.Check.findings

(* Splice rules that stress first-match order into a ruleset: copies of
   existing rules at earlier or later positions (duplicate patterns,
   which the witness index must resolve to the earliest copy), copies
   whose output is rewritten (so a duplicate that wins changes the
   verdict), and copies narrowed to one destination port (shadowed when
   placed after their original, shadowing it when placed before). *)
let splice rng rules =
  let rules = Array.of_list rules in
  let n = Array.length rules in
  let extra = 1 + Rng.int rng 6 in
  let inserts =
    List.init extra (fun _ ->
        let r, prov = rules.(Rng.int rng n) in
        let r =
          match Rng.int rng 3 with
          | 0 -> r
          | 1 ->
              { r with Classifier.action = [ Mods.make ~port:(1 + Rng.int rng 40) () ] }
          | _ ->
              {
                r with
                Classifier.pattern =
                  { r.Classifier.pattern with Pattern.dst_port = Some 80 };
              }
        in
        (Rng.int rng (n + 1), (r, prov)))
  in
  List.concat
    (List.init (n + 1) (fun pos ->
         List.filter_map
           (fun (at, rp) -> if at = pos then Some rp else None)
           inserts
         @ if pos < n then [ rules.(pos) ] else []))

let pp_bgp_diff seed got want =
  let pp = Format.pp_print_list ~pp_sep:Format.pp_print_cut Check.pp_finding in
  Format.asprintf "seed %d:@.@[<v>index (%d):@,%a@,oracle (%d):@,%a@]" seed
    (List.length got) pp got (List.length want) pp want

let prop_witness_index_matches_oracle =
  QCheck.Test.make ~count:10
    ~name:"witness index = linear first-match oracle (full pass)"
    QCheck.(pair (int_range 1 1000) (int_range 4 12))
    (fun (seed, participants) ->
      let rng = Rng.create ~seed in
      let w =
        Workload.build rng ~participants ~prefixes:(participants * 8) ()
      in
      let runtime = Workload.runtime w in
      ignore (Runtime.handle_burst runtime (Workload.burst rng w ~size:5));
      ignore (Runtime.handle_burst runtime (Workload.burst rng w ~size:3));
      let config = Runtime.config runtime and compiled = Runtime.compiled runtime in
      let subject = Check.subject_of_runtime runtime in
      let agree rules got =
        let want = reference_bgp config compiled (Array.of_list rules) in
        got = want || QCheck.Test.fail_reportf "%s" (pp_bgp_diff seed got want)
      in
      let spliced = splice rng (Check.rules subject) in
      agree (Check.rules subject) (bgp_findings (Check.runtime runtime))
      && agree spliced
           (bgp_findings (Check.run (Check.with_rules subject spliced))))

let prop_witness_index_matches_oracle_incremental =
  QCheck.Test.make ~count:10
    ~name:"witness index = linear first-match oracle (incremental pass)"
    QCheck.(int_range 1 1000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let w = Workload.build rng ~participants:10 ~prefixes:80 () in
      let runtime = Workload.runtime w in
      ignore (Runtime.consume_dirty runtime);
      ignore (Runtime.handle_burst runtime (Workload.burst rng w ~size:5));
      ignore (Runtime.handle_burst runtime (Workload.burst rng w ~size:3));
      match Runtime.consume_dirty runtime with
      | None -> true
      | Some dirty ->
          let config = Runtime.config runtime
          and compiled = Runtime.compiled runtime in
          let subject = Check.subject_of_runtime runtime in
          let only i = List.mem i dirty.Runtime.dirty_rules in
          let only_group g = List.mem g dirty.Runtime.dirty_groups in
          let agree rules =
            let got =
              bgp_findings
                (Check.run_incremental ~dirty (Check.with_rules subject rules))
            in
            let want =
              reference_bgp ~only ~only_group config compiled
                (Array.of_list rules)
            in
            got = want
            || QCheck.Test.fail_reportf "%s" (pp_bgp_diff seed got want)
          in
          agree (Check.rules subject)
          && agree (splice rng (Check.rules subject)))

let () =
  Alcotest.run "sdx_check"
    [
      ( "clean",
        [
          Alcotest.test_case "figure 1" `Quick test_fig1_clean;
          Alcotest.test_case "figure 1 + updates" `Quick
            test_fig1_clean_after_updates;
          Alcotest.test_case "workload" `Quick test_workload_clean;
          Alcotest.test_case "two-switch fabric" `Quick test_fabric_clean;
          QCheck_alcotest.to_alcotest prop_generated_workloads_clean;
          QCheck_alcotest.to_alcotest prop_bursts_stay_clean;
        ] );
      ( "mutations",
        [
          Alcotest.test_case "unpinned policy rule" `Quick
            test_mutation_unpinned_rule;
          Alcotest.test_case "foreign ingress" `Quick
            test_mutation_foreign_ingress;
          Alcotest.test_case "stale export" `Quick test_mutation_stale_export;
          Alcotest.test_case "spliced fabric cycle" `Quick
            test_mutation_spliced_cycle;
          Alcotest.test_case "redirect cycle" `Quick
            test_mutation_redirect_cycle;
          Alcotest.test_case "unsatisfiable redirect cycle" `Quick
            test_redirect_cycle_unsatisfiable;
          Alcotest.test_case "unhandled VMAC" `Quick
            test_mutation_unhandled_vmac;
          Alcotest.test_case "shadowed rule lint" `Quick test_shadow_lint;
          Alcotest.test_case "default-route divergence" `Quick
            test_mutation_default_divergence;
          Alcotest.test_case "VMAC mismatch" `Quick test_mutation_vmac_mismatch;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "dirty-set after a burst" `Quick
            test_incremental_after_burst;
          Alcotest.test_case "catches a stale burst inline" `Quick
            test_incremental_catches_stale_burst;
          Alcotest.test_case "scopes to the dirty rules" `Quick
            test_incremental_scopes_to_dirty;
          QCheck_alcotest.to_alcotest prop_incremental_cross_validates;
        ] );
      ( "witness",
        [
          QCheck_alcotest.to_alcotest prop_witness_index_matches_oracle;
          QCheck_alcotest.to_alcotest
            prop_witness_index_matches_oracle_incremental;
        ] );
    ]
