(* sdxbench: end-to-end and per-layer benchmark of the SDX controller.

     sdxbench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

   Every run sets the exchange up three times and then spends its
   seconds on the four paths a user of the exchange waits for:
   verification, packet forwarding, policy changes and BGP update bursts.
   The workload names the exchange and how the seconds are shared, so
   each workload stresses its own paths.  With --trace 0 the last
   line of stdout carries the end-to-end metrics; with --trace 1 the
   per-layer ones, from spans around the calls into each layer.  The exit
   code is non-zero when any output was wrong.  See README.md. *)

open Sdx_ixp
module Runtime = Sdx_core.Runtime
module Check = Sdx_check.Check

(* The exchange and the update trace come from a fixed seed per workload,
   so every run compiles the same table ([rules], [groups]; a run that
   compiles anything else has drifted and fails) and handles the same
   updates.  --seed draws what varies from run to run: the order of the
   bursts, the packet vector and the participant the policy changes start
   from.  The rates say how much work one second of --seconds buys on
   each path; the paths are interleaved over the whole run. *)
type workload = {
  name : string;
  participants : int;
  prefixes : int;
  transit_picks : int;
  inbound_density : float;
  fixed_seed : int;
  rules : int;
  groups : int;
  bursts_per_s : float;
  policy_cycles_per_s : float;  (** every policy off and on again *)
  forward_passes_per_s : float;  (** over the 8192-packet vector *)
  verifies_per_s : float;
}

let workloads =
  [
    {
      name = "churn"; participants = 100; prefixes = 5_000; transit_picks = 1;
      inbound_density = 3.0; fixed_seed = 1; rules = 586; groups = 90;
      bursts_per_s = 24.0; policy_cycles_per_s = 0.35; forward_passes_per_s = 2.0;
      verifies_per_s = 0.4;
    };
    {
      name = "policy"; participants = 150; prefixes = 5_000; transit_picks = 20;
      inbound_density = 3.0; fixed_seed = 1; rules = 1_938; groups = 276;
      bursts_per_s = 4.6; policy_cycles_per_s = 0.23; forward_passes_per_s = 6.0;
      verifies_per_s = 0.2;
    };
  ]

(* A few-second run over a tiny exchange that still reaches every path. *)
let smoke wl =
  let rules, groups = if wl.transit_picks = 1 then (90, 16) else (177, 35) in
  { wl with participants = 24; prefixes = 400; rules; groups }

let usage () =
  prerr_endline
    "usage: sdxbench --workload churn|policy --seed N --seconds S --trace 0|1 [--smoke]";
  exit 2

let parse argv =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None and smoke_run = ref false in
  let rec go = function
    | "--workload" :: v :: rest ->
        workload := List.find_opt (fun w -> w.name = v) workloads;
        if !workload = None then usage ();
        go rest
    | "--seed" :: v :: rest ->
        seed := int_of_string_opt v;
        go rest
    | "--seconds" :: v :: rest ->
        seconds := Option.bind (float_of_string_opt v) (fun s -> if s > 0.0 then Some s else None);
        go rest
    | "--trace" :: ("0" | "1" as v) :: rest ->
        trace := Some (v = "1");
        go rest
    | "--smoke" :: rest ->
        smoke_run := true;
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some seed, Some seconds, Some trace ->
      ((if !smoke_run then smoke w else w), seed, seconds, trace)
  | _ -> usage ()

let build wl =
  Workload.build (Rng.create ~seed:wl.fixed_seed) ~participants:wl.participants ~prefixes:wl.prefixes
    ~transit_picks:wl.transit_picks ~inbound_density:wl.inbound_density ()

(* Sets the exchange up once per phase, so that no phase sees another's
   changes; every set-up must compile the workload's table. *)
let set_up wl ~traced (report : Report.t) =
  let once () =
    let w = build wl in
    Gc.compact ();
    let t0 = Span.now () in
    let ex, transfer = Exchange.create w in
    let elapsed = Span.now () -. t0 in
    let shape = (Runtime.rule_count ex.runtime, Runtime.group_count ex.runtime) in
    (ex, (shape, transfer, elapsed))
  in
  let exchanges, runs = List.split (List.init 3 (fun _ -> once ())) in
  List.iter
    (fun ((rules, groups), _, _) ->
      Report.attempt report
        (rules = wl.rules && groups = wl.groups)
        (lazy
          (Printf.sprintf "set-up compiled %d rules in %d groups, not %d in %d" rules groups
             wl.rules wl.groups)))
    runs;
  let m = Report.metric report in
  let median f = Stats.median (List.map f runs) in
  if not traced then m "setup_s" "s" (median (fun (_, _, s) -> s))
  else begin
    let transfers = List.map (fun (_, t, _) -> t) runs in
    let last : Exchange.table_transfer = List.hd transfers in
    m "gateway.advertise_s" "s"
      (Stats.median (List.map (fun (t : Exchange.table_transfer) -> t.advertise_s) transfers));
    m "gateway.routes_advertised" "count" (float_of_int last.routes);
    m "gateway.advertise_bytes" "bytes" (float_of_int last.bytes)
  end;
  exchanges

(* Full verifications of the runtime as set up, one per step; any error
   finding fails the run.  A traced run times each pass on its own. *)
let verify (ex : Exchange.t) ~ops ~traced (report : Report.t) =
  let times = Hashtbl.create 8 and rules = ref 0 in
  let check name passes =
    let t0 = Span.now () in
    let r = Check.runtime ?passes ex.runtime in
    let elapsed = Span.now () -. t0 in
    Report.attempt report
      (not (Check.has_errors r))
      (lazy (Printf.sprintf "verification found errors: %s" (Check.summary r)));
    rules := max !rules r.Check.rules_checked;
    Hashtbl.replace times name (elapsed :: Option.value (Hashtbl.find_opt times name) ~default:[])
  in
  let step () =
    if traced then List.iter (fun pass -> check pass (Some [ pass ])) Check.all_passes
    else check "all" None
  in
  let finish () =
    let m = Report.metric report in
    let median name = Stats.median (Hashtbl.find times name) in
    if not traced then m "verify_s" "s" (median "all")
    else begin
      List.iter (fun pass -> m ("check." ^ pass ^ "_s") "s" (median pass)) Check.all_passes;
      m "check.rules_checked" "count" (float_of_int !rules)
    end
  in
  (Phase.make ~name:"verify" ~ops step, finish)

let git_revision () = Option.value (Sys.getenv_opt "SDXBENCH_REV") ~default:"unknown"

let stamp wl ~seed ~seconds ~traced =
  Printf.printf
    "# sdxbench {\"workload\": %S, \"seed\": %d, \"seconds\": %g, \"trace\": %b, \
     \"fixed_seed\": %d, \"participants\": %d, \"prefixes\": %d, \"transit_picks\": %d, \
     \"inbound_density\": %g, \"rules\": %d, \"groups\": %d, \"edges\": 2, \
     \"per_second\": {\"bursts\": %g, \"policy_cycles\": %g, \"forward_passes\": %g, \
     \"verifies\": %g}, \"nproc\": %d, \"sdx_domains\": %S, \"ocaml\": %S, \"revision\": %S}\n%!"
    wl.name seed seconds traced wl.fixed_seed wl.participants wl.prefixes wl.transit_picks
    wl.inbound_density wl.rules wl.groups wl.bursts_per_s wl.policy_cycles_per_s
    wl.forward_passes_per_s wl.verifies_per_s
    (Domain.recommended_domain_count ())
    (Option.value (Sys.getenv_opt "SDX_DOMAINS") ~default:"nproc")
    Sys.ocaml_version (git_revision ())

let () =
  let wl, seed, seconds, traced = parse Sys.argv in
  stamp wl ~seed ~seconds ~traced;
  let report = Report.create () in
  let t0 = Span.now () in
  let forward_ex, policy_ex, updates_ex =
    match set_up wl ~traced report with [ a; b; c ] -> (a, b, c) | _ -> assert false
  in
  let ops rate = int_of_float (Float.ceil (rate *. seconds)) in
  let phases =
    [
      verify forward_ex ~ops:(ops wl.verifies_per_s) ~traced report;
      Forward.phase forward_ex ~seed ~passes:(ops wl.forward_passes_per_s) ~traced report;
      Changes.phase policy_ex ~seed ~cycles:(ops wl.policy_cycles_per_s) ~traced report;
      Updates.phase updates_ex ~trace_seed:wl.fixed_seed ~seed ~bursts:(ops wl.bursts_per_s)
        ~traced report;
    ]
  in
  Printf.printf "# set-up and warm-up: %.1f s\n" (Span.now () -. t0);
  Phase.run (List.map fst phases);
  let t0 = Span.now () in
  List.iter (fun (_, finish) -> finish ()) phases;
  Printf.printf "# final checks: %.1f s\n" (Span.now () -. t0);
  if traced then
    Report.metric report "gc.top_heap_mb" "MB"
      (float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1e6);
  print_endline (Report.to_json report);
  if report.failed > 0 then exit 1
