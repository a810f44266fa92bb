open Sdx_net
open Sdx_policy
open Sdx_openflow

(* A sharded fabric: one software switch + OpenFlow connection per
   topology switch, driven through a two-phase consistent update
   (Reitblatt et al., "Abstractions for Network Update") so that no
   packet is ever processed by a mix of old and new rules.

   Each logical rule is split into:

   - an *ingress* copy, installed at its home edge (port-pinned rules)
     or at every edge (port-unpinned rules), with remote outputs
     rewritten to trunk ports and their frames re-addressed into the
     {!Vtag} space;
   - a *transit* copy of every dst-MAC rule, installed on every switch
     in a priority band far above the ingress band, matching the tagged
     address and forwarding toward (or delivering at) the destination's
     home switch.

   The transit band splits by the destination MAC it matches, and each
   destination carries its own parity: a frame's tag names both the
   destination and which of that destination's two transit copies must
   serve it.  A commit re-versions only what the incoming ruleset
   changes (the incremental variant of the same paper):

   0. diff the logical rules against the committed ones by (priority,
      pattern); a destination is *dirty* when any rule of its transit
      sub-band appeared, vanished or changed, or when one of its transit
      rules stamps a dirty destination (so a clean destination's transit
      rules are identical before and after);
   1. install every dirty destination's transit sub-band at the flipped
      parity, cookie-tagged with that tag (make-before-break: inert
      until something stamps it); barrier every connection;
   2. add, overwrite in place or delete exactly the ingress rules whose
      localized form changed — their logic changed or they stamp a dirty
      destination; barrier;
   3. delete every dirty destination's old-parity sub-band with one
      [delete_cookie] per switch and destination; barrier.

   A frame stamped by an old ingress rule meets only old-parity or clean
   transit rules until phase 3, and phase 3 starts only after phase 2's
   barriers prove no edge stamps an old parity anymore.  A new ruleset
   that changes every destination (a first commit, a policy recompile, a
   re-optimization) is the same path with every destination dirty. *)

let transit_base = 16_000_000
(* The transit band sits above every ingress priority (the runtime's
   bands top out in the tens of thousands); both parities of a
   destination share the offset because their patterns are disjoint in
   the tag octet. *)

let g_mixed = Sdx_obs.Registry.counter "sdx_fabric_mixed_version_packets_total"
let g_transit_miss = Sdx_obs.Registry.counter "sdx_fabric_transit_misses_total"
let g_commits = Sdx_obs.Registry.counter "sdx_fabric_commits_total"

type member = {
  id : int;
  switch : Switch.t;
  connection : Connection.t;
  edge : bool;  (* hosts physical ports, hence ingress copies *)
}

type commit_stats = {
  version : int;  (** the version the commit moved the fabric to *)
  install_mods : int;  (** phase-1 adds: the re-versioned transit sub-bands *)
  flip_mods : int;  (** phase-2 mods: ingress re-stamps, adds, deletes *)
  gc_mods : int;  (** phase-3 deletes: the old-parity transit sub-bands *)
  barriers : int;  (** barrier round-trips across all switches *)
}

let total_mods s = s.install_mods + s.flip_mods + s.gc_mods

type phase =
  | Installed of int  (** v+1's new transit sub-bands everywhere, old rules live *)
  | Flipped of int  (** every edge now stamps v+1's parities *)
  | Collected of int  (** the sub-bands v+1 replaced are deleted *)
  | Synced_member of int
      (** [`Unsafe_single_phase] only: one switch cut over, others not *)

(* The consistency monitor's per-packet state, reset by every {!process}
   call.  Its callbacks are built once per fabric, so a walk allocates
   nothing for the monitor unless its tree carries several tags. *)
type monitor = {
  mutable anomaly : bool;
  mutable missed : bool;
  mutable first_tag : Mac.t;  (* [Mac.zero] until a frame crosses a trunk *)
  mutable more_tags : Mac.t list;  (* the rest of a multicast tree's tags *)
}

(* A frame crossed a trunk carrying [tag].  One destination at both
   parities means the packet met a mixed ruleset; different destinations
   may legitimately differ. *)
let saw_tag mon tag =
  if Mac.equal mon.first_tag Mac.zero then mon.first_tag <- tag
  else if not (Mac.equal tag mon.first_tag || List.exists (Mac.equal tag) mon.more_tags)
  then begin
    if Vtag.conflict tag mon.first_tag || List.exists (Vtag.conflict tag) mon.more_tags
    then mon.anomaly <- true;
    mon.more_tags <- tag :: mon.more_tags
  end

(* One committed logical rule and what the fabric installed for it. *)
type rule = {
  flow : Flow.t;
  ingress : Flow.t option list;  (* its ingress copy per member, in order *)
  mutable seen : int;  (* the last {!diff} whose ruleset listed it *)
}

type t = {
  topo : Topology.t;
  members : member list;  (* ascending switch id *)
  by_id : (int, member) Hashtbl.t;
  tags : Vtag.t;
  trunked : bool;  (* false for the degenerate single-switch layout *)
  mutable version : int;
  rules : rule Flow.Tbl.t;  (* the committed ruleset by slot *)
  parity : (Mac.t, int) Hashtbl.t;  (* live transit parity per destination *)
  bands : (Mac.t, unit Flow.Tbl.t) Hashtbl.t;  (* destination -> its sub-band *)
  stampers : (Mac.t, unit Flow.Tbl.t) Hashtbl.t;  (* address -> rules that may stamp it *)
  mutable diffs : int;  (* the epoch [rule.seen] is stamped with *)
  mutable commits : int;
  mutable next_xid : int;
  mutable last_commit : commit_stats option;
  mutable packets : int;
  mutable mixed_version_packets : int;
  mutable transit_misses : int;
  monitor : monitor;
  probe : int -> Packet.t -> Flow.t option;
  on_anomaly : unit -> unit;
  on_miss : unit -> unit;
  on_trunk_tag : Mac.t -> unit;
}

let create ?capacity topo =
  let members =
    List.map
      (fun id ->
        let switch = Switch.create ?capacity () in
        {
          id;
          switch;
          connection = Connection.create switch;
          edge = Topology.has_physical_ports topo id;
        })
      (Topology.switches topo)
  in
  let by_id = Hashtbl.create 8 in
  List.iter (fun m -> Hashtbl.replace by_id m.id m) members;
  let monitor =
    { anomaly = false; missed = false; first_tag = Mac.zero; more_tags = [] }
  in
  {
    topo;
    members;
    by_id;
    tags = Vtag.create ();
    trunked = Topology.spanning_tree_edges topo <> [];
    version = 0;
    rules = Flow.Tbl.create 1024;
    parity = Hashtbl.create 64;
    bands = Hashtbl.create 64;
    stampers = Hashtbl.create 64;
    diffs = 0;
    commits = 0;
    next_xid = 1;
    last_commit = None;
    packets = 0;
    mixed_version_packets = 0;
    transit_misses = 0;
    monitor;
    probe = (fun s pkt -> Table.lookup (Switch.table (Hashtbl.find by_id s).switch 0) pkt);
    on_anomaly = (fun () -> monitor.anomaly <- true);
    on_miss = (fun () -> monitor.missed <- true);
    on_trunk_tag = saw_tag monitor;
  }

let topo t = t.topo
let switches t = List.map (fun m -> m.id) t.members

let switch t s =
  match Hashtbl.find_opt t.by_id s with
  | Some m -> m.switch
  | None -> invalid_arg (Printf.sprintf "Fabric.switch: unknown switch %d" s)

let connection t s =
  match Hashtbl.find_opt t.by_id s with
  | Some m -> m.connection
  | None -> invalid_arg (Printf.sprintf "Fabric.connection: unknown switch %d" s)

let version t = t.version
let commits t = t.commits
let last_commit t = t.last_commit
let packets t = t.packets
let mixed_version_packets t = t.mixed_version_packets
let transit_misses t = t.transit_misses

let rule_counts t =
  List.map (fun m -> (m.id, Table.size (Switch.table m.switch 0))) t.members

let total_rules t = List.fold_left (fun n (_, c) -> n + c) 0 (rule_counts t)

(* ------------------------------------------------------------------ *)
(* Localizing one logical rule at one switch *)

let blackhole = Sdx_core.Compile.blackhole_port

(* The destination whose transit sub-band a rule belongs to: only
   port-unpinned dst-MAC rules have transit copies. *)
let band_of (f : Flow.t) =
  match f.Flow.pattern.Pattern.port with
  | None -> f.Flow.pattern.Pattern.dst_mac
  | Some _ -> None

(* The address a trunk frame must be re-addressed toward: the mod's own
   rewrite if it has one, else the rule's pinned destination. *)
let trunk_target (pattern : Pattern.t) (m : Mods.t) =
  match m.Mods.dst_mac with
  | Some _ as mac -> mac
  | None -> pattern.Pattern.dst_mac

(* Applies [g] to every address an output atom of [f] may stamp: every
   real port lies behind a trunk as seen from some switch. *)
let iter_targets (f : Flow.t) g =
  List.iter
    (fun (m : Mods.t) ->
      match m.Mods.port with
      | Some port when port <> blackhole -> Option.iter g (trunk_target f.Flow.pattern m)
      | _ -> ())
    f.Flow.actions

(* Rewrite one action atom for switch [s]: local ports stay; remote
   ports leave on the trunk toward their home, with the frame stamped
   at its destination's [parity]. *)
let localize_mod t ~parity s (pattern : Pattern.t) (m : Mods.t) =
  match m.Mods.port with
  | None -> m
  | Some p when p = blackhole -> m
  | Some p -> (
      match Topology.home_of_port t.topo p with
      | None -> m (* a port that no longer exists; harmless to keep *)
      | Some home when home = s -> m
      | Some home ->
          let hop = Option.get (Topology.next_hop t.topo ~from:s ~toward:home) in
          let mac =
            match trunk_target pattern m with
            | Some mac -> mac
            | None ->
                invalid_arg
                  "Fabric: trunk-crossing action names no destination MAC to tag"
          in
          {
            m with
            port = Some (Topology.trunk_port t.topo ~from:s ~toward_neighbor:hop);
            dst_mac = Some (Vtag.stamp t.tags ~parity:(parity mac) mac);
          })

let check_priority (f : Flow.t) =
  if f.Flow.priority >= transit_base then
    invalid_arg
      (Printf.sprintf "Fabric: flow priority %d collides with the transit band"
         f.Flow.priority)

(* [f]'s ingress copy at [member], if it has one there: port-pinned
   rules live at their home switch, port-unpinned rules at every switch
   hosting physical ports. *)
let ingress_copy t ~parity member (f : Flow.t) =
  let here =
    match f.pattern.Pattern.port with
    | Some p -> Topology.home_of_port t.topo p = Some member.id
    | None -> member.edge
  in
  if here then
    Some
      {
        f with
        actions = List.map (localize_mod t ~parity member.id f.pattern) f.actions;
      }
  else None

(* [f]'s transit copy at switch [s], [m0] being its destination: the
   tagged address at [transit_base + priority], delivering locally or
   re-stamping onto the next trunk.  Atoms that leave the destination
   address untouched get it restored explicitly, so delivered frames
   never leak a tag. *)
let transit_copy t ~parity s m0 (f : Flow.t) =
  let pattern =
    { f.pattern with dst_mac = Some (Vtag.stamp t.tags ~parity:(parity m0) m0) }
  in
  let actions =
    List.map
      (fun (m : Mods.t) ->
        let m = if m.Mods.dst_mac = None then { m with dst_mac = Some m0 } else m in
        localize_mod t ~parity s f.pattern m)
      f.actions
  in
  { Flow.priority = transit_base + f.priority; pattern; actions }

(* ------------------------------------------------------------------ *)
(* Minimal-diff two-phase commit *)

let barrier_all t =
  List.iter
    (fun m ->
      let xid = t.next_xid in
      t.next_xid <- xid + 1;
      if not (Connection.barrier m.connection xid) then
        failwith
          (Printf.sprintf "Fabric: switch %d left barrier %d unanswered" m.id
             xid))
    t.members;
  List.length t.members

(* The slot sets kept per address, for {!t.bands} and {!t.stampers}. *)
let index_add idx mac k =
  match Hashtbl.find_opt idx mac with
  | Some slots -> Flow.Tbl.replace slots k ()
  | None ->
      let slots = Flow.Tbl.create 4 in
      Flow.Tbl.replace slots k ();
      Hashtbl.replace idx mac slots

let index_remove idx mac k =
  match Hashtbl.find_opt idx mac with
  | Some slots ->
      Flow.Tbl.remove slots k;
      if Flow.Tbl.length slots = 0 then Hashtbl.remove idx mac
  | None -> ()

let index_iter idx mac g =
  Option.iter (Flow.Tbl.iter (fun k () -> g k)) (Hashtbl.find_opt idx mac)

let index t ~add k (f : Flow.t) =
  let op = if add then index_add else index_remove in
  Option.iter (fun d -> op t.bands d k) (band_of f);
  iter_targets f (fun mac -> op t.stampers mac k)

(* The incoming ruleset against the committed one: the slots whose rule
   appeared ([Some]), changed ([Some]) or vanished ([None]), and the same
   slots in the order the incoming list names them (vanished ones last,
   repeats possible), so that flow-mods go out in ruleset order.  A slot
   listed twice resolves to its last occurrence, as OpenFlow ADDs do. *)
let diff t flows =
  t.diffs <- t.diffs + 1;
  let now = t.diffs and kept = ref 0 in
  let delta = Flow.Tbl.create 64 and arrivals = ref [] in
  let set k f =
    Flow.Tbl.replace delta k f;
    arrivals := k :: !arrivals
  in
  List.iter
    (fun (f : Flow.t) ->
      check_priority f;
      let k = Flow.key f in
      match Flow.Tbl.find_opt t.rules k with
      | Some r ->
          let again = r.seen = now in
          if not again then incr kept;
          r.seen <- now;
          if r.flow.actions == f.actions || r.flow.actions = f.actions then begin
            if again then Flow.Tbl.remove delta k
          end
          else set k (Some f)
      | None -> set k (Some f))
    flows;
  if !kept < Flow.Tbl.length t.rules then
    Flow.Tbl.iter (fun k r -> if r.seen <> now then set k None) t.rules;
  (delta, List.rev !arrivals)

(* What one commit sends one switch, phase by phase. *)
type step = {
  member : member;
  install : (int * Flow.t) list;  (* phase 1: (cookie, transit copy) adds *)
  flip : Flow.t list;  (* phase 2: ingress adds and in-place overwrites *)
  drop : Flow.t list;  (* phase 2: ingress strict deletes *)
}

(* Everything one commit sends, computed before the first flow-mod leaves
   so that whatever can raise does so with the fabric untouched: every
   switch's steps, the phase-3 cookies (the same on every switch), the
   destinations to re-version and the re-localized rules' new records. *)
let plan t (delta, arrivals) =
  let committed k = Option.map (fun r -> r.flow) (Flow.Tbl.find_opt t.rules k) in
  let dirty = Hashtbl.create 16 in
  let rec mark d =
    if not (Hashtbl.mem dirty d) then begin
      Hashtbl.replace dirty d ();
      (* A transit rule re-stamping a dirty destination changes with it,
         so its own destination is dirty too. *)
      index_iter t.stampers d (fun k ->
          if not (Flow.Tbl.mem delta k) then
            Option.iter mark (Option.bind (committed k) band_of))
    end
  in
  if t.trunked then
    Flow.Tbl.iter
      (fun k f ->
        Option.iter mark (Option.bind (committed k) band_of);
        Option.iter mark (Option.bind f band_of))
      delta;
  let old_parity d = Option.value (Hashtbl.find_opt t.parity d) ~default:0 in
  let new_parity d = if Hashtbl.mem dirty d then 1 - old_parity d else old_parity d in
  let cookie ~parity d = Mac.to_int (Vtag.stamp t.tags ~parity:(parity d) d) in
  (* Ingress rules to re-localize: the changed ones, then those stamping
     a dirty destination. *)
  let touched = Flow.Tbl.create 64 and order = ref [] in
  let touch k f =
    if not (Flow.Tbl.mem touched k) then begin
      Flow.Tbl.replace touched k ();
      order := (k, f) :: !order
    end
  in
  List.iter (fun k -> Option.iter (touch k) (Flow.Tbl.find_opt delta k)) arrivals;
  Hashtbl.iter (fun d () -> index_iter t.stampers d (fun k -> touch k (committed k))) dirty;
  let absent = List.map (fun _ -> None) t.members in
  let relocalized =
    List.rev_map
      (fun (k, f) ->
        let installed =
          match Flow.Tbl.find_opt t.rules k with Some r -> r.ingress | None -> absent
        in
        let copies =
          match f with
          | Some f -> List.map (fun m -> ingress_copy t ~parity:new_parity m f) t.members
          | None -> absent
        in
        (k, f, installed, copies))
      !order
  in
  (* The dirty destinations' sub-bands as the incoming ruleset has them:
     the changed rules in ruleset order, then the unchanged ones. *)
  let fresh = ref [] in
  Hashtbl.iter
    (fun d () ->
      index_iter t.bands d (fun k ->
          if not (Flow.Tbl.mem delta k) then
            fresh := (d, (Flow.Tbl.find t.rules k).flow) :: !fresh))
    dirty;
  let fresh =
    List.filter_map
      (fun (k, f, _, _) ->
        match Option.bind f band_of with
        | Some d when Hashtbl.mem dirty d && Flow.Tbl.mem delta k -> Some (d, Option.get f)
        | _ -> None)
      relocalized
    @ !fresh
  in
  let collect =
    Hashtbl.fold
      (fun d () acc ->
        if Hashtbl.mem t.bands d then cookie ~parity:old_parity d :: acc else acc)
      dirty []
  in
  let steps =
    List.mapi
      (fun i member ->
        let install =
          List.map
            (fun (d, f) ->
              (cookie ~parity:new_parity d, transit_copy t ~parity:new_parity member.id d f))
            fresh
        in
        let flip, drop =
          List.fold_left
            (fun (adds, dels) (_, _, installed, copies) ->
              match (List.nth copies i, List.nth installed i) with
              | Some n, Some o when n = o -> (adds, dels)
              | Some n, _ -> (n :: adds, dels)
              | None, Some o -> (adds, o :: dels)
              | None, None -> (adds, dels))
            ([], []) relocalized
        in
        { member; install; flip = List.rev flip; drop = List.rev drop })
      t.members
  in
  (steps, collect, Hashtbl.fold (fun d () acc -> d :: acc) dirty [], relocalized)

(* Moves the committed record to the new ruleset once its flow-mods are
   out. *)
let record t delta ~dirty relocalized =
  List.iter
    (fun d ->
      Hashtbl.replace t.parity d
        (1 - Option.value (Hashtbl.find_opt t.parity d) ~default:0))
    dirty;
  List.iter
    (fun (k, f, _, ingress) ->
      (if Flow.Tbl.mem delta k then
         Option.iter (fun r -> index t ~add:false k r.flow) (Flow.Tbl.find_opt t.rules k));
      match f with
      | None -> Flow.Tbl.remove t.rules k
      | Some f ->
          if Flow.Tbl.mem delta k then index t ~add:true k f;
          Flow.Tbl.replace t.rules k { flow = f; ingress; seen = t.diffs })
    relocalized

let commit ?(protocol = `Two_phase) ?(on_phase = fun (_ : phase) -> ()) t flows
    =
  let ((delta, _) as changes) = diff t flows in
  let steps, collect, dirty, relocalized = plan t changes in
  let v = t.version and v' = t.version + 1 in
  let install st =
    List.iter
      (fun (cookie, f) -> Connection.send st.member.connection (Message.add ~cookie f))
      st.install;
    List.length st.install
  in
  let flip st =
    List.iter (fun f -> Connection.send st.member.connection (Message.add f)) st.flip;
    List.iter (fun f -> Connection.send st.member.connection (Message.delete f)) st.drop;
    List.length st.flip + List.length st.drop
  in
  let gc st =
    let before = Connection.flow_mods_applied st.member.connection in
    List.iter
      (fun c -> Connection.send st.member.connection (Message.delete_cookie c))
      collect;
    Connection.flow_mods_applied st.member.connection - before
  in
  let sum f = List.fold_left (fun acc st -> acc + f st) 0 steps in
  let stats =
    match protocol with
    | `Two_phase ->
        let install_mods = sum install in
        let b1 = barrier_all t in
        on_phase (Installed v');
        let flip_mods = sum flip in
        let b2 = barrier_all t in
        on_phase (Flipped v');
        let gc_mods = sum gc in
        let b3 = barrier_all t in
        on_phase (Collected v);
        { version = v'; install_mods; flip_mods; gc_mods; barriers = b1 + b2 + b3 }
    | `Unsafe_single_phase ->
        (* Negative control for tests and benches: run all three phases
           on one switch before the next.  Between the first and last
           switch, an edge still stamping a destination's old parity can
           send frames to a switch that already collected that parity's
           transit rules — exactly the mixed-ruleset window the
           two-phase protocol closes, and what {!process}'s detector
           counts. *)
        let barriers = ref 0 in
        let flip_mods =
          sum (fun st ->
              let n = install st + flip st + gc st in
              barriers := !barriers + barrier_all t;
              on_phase (Synced_member st.member.id);
              n)
        in
        {
          version = v';
          install_mods = 0;
          flip_mods;
          gc_mods = 0;
          barriers = !barriers;
        }
  in
  record t delta ~dirty relocalized;
  t.version <- v';
  t.commits <- t.commits + 1;
  t.last_commit <- Some stats;
  Sdx_obs.Registry.Counter.incr g_commits;
  stats

(* ------------------------------------------------------------------ *)
(* The data plane *)

(* One packet walk shared by the counting and the pure readers.  [probe]
   maps (switch id, packet) to the matching flow entry. *)
let walk topo ~probe ~on_anomaly ~on_miss ~on_trunk_tag pkt =
  let max_hops = 4 * Topology.switch_count topo in
  let rec at_switch hops s (pkt : Packet.t) =
    if hops > max_hops then begin
      on_anomaly ();
      []
    end
    else
      let tagged = Vtag.is_tagged pkt.Packet.dst_mac in
      match probe s pkt with
      | None ->
          if tagged then begin
            on_miss ();
            on_anomaly ()
          end;
          []
      | Some (flow : Flow.t) ->
          if tagged && flow.Flow.priority < transit_base then on_anomaly ();
          List.concat_map
            (fun (m : Mods.t) ->
              let out = Mods.apply m pkt in
              match m.Mods.port with
              | None -> [ out ]
              | Some p -> (
                  match Topology.trunk_destination topo p with
                  | Some (_owner, neighbor) ->
                      if Vtag.is_tagged out.Packet.dst_mac then
                        on_trunk_tag out.Packet.dst_mac
                      else on_anomaly () (* untagged frame on a trunk *);
                      let in_port =
                        Topology.trunk_port topo ~from:neighbor
                          ~toward_neighbor:s
                      in
                      at_switch (hops + 1) neighbor { out with port = in_port }
                  | None ->
                      if p <> blackhole && Vtag.is_tagged out.Packet.dst_mac
                      then on_anomaly () (* delivered frame leaks its tag *);
                      [ out ]))
            flow.Flow.actions
  in
  match Topology.home_of_port topo pkt.Packet.port with
  | None -> None
  | Some s0 -> Some (Packet.Set.elements (Packet.Set.of_list (at_switch 0 s0 pkt)))

let process t pkt =
  let mon = t.monitor in
  mon.anomaly <- false;
  mon.missed <- false;
  mon.first_tag <- Mac.zero;
  mon.more_tags <- [];
  match
    walk t.topo ~probe:t.probe ~on_anomaly:t.on_anomaly ~on_miss:t.on_miss
      ~on_trunk_tag:t.on_trunk_tag pkt
  with
  | None -> []
  | Some outs ->
      t.packets <- t.packets + 1;
      if mon.missed then begin
        t.transit_misses <- t.transit_misses + 1;
        Sdx_obs.Registry.Counter.incr g_transit_miss
      end;
      if mon.anomaly then begin
        t.mixed_version_packets <- t.mixed_version_packets + 1;
        Sdx_obs.Registry.Counter.incr g_mixed
      end;
      outs

(* Pure parallel readers: snapshots are built on the owning domain; each
   worker domain then builds its own searcher cursors. *)
type snap = {
  snap_topo : Topology.t;
  snap_tables : (int * Table.snapshot) list;
}

let snapshots t =
  {
    snap_topo = t.topo;
    snap_tables =
      List.map (fun m -> (m.id, Table.snapshot (Switch.table m.switch 0))) t.members;
  }

let reader snap =
  let find = Hashtbl.create 8 in
  List.iter
    (fun (s, sn) -> Hashtbl.replace find s (Table.searcher sn))
    snap.snap_tables;
  fun pkt ->
    match
      walk snap.snap_topo
        ~probe:(fun s pkt -> (Hashtbl.find find s) pkt)
        ~on_anomaly:ignore ~on_miss:ignore ~on_trunk_tag:ignore pkt
    with
    | None -> []
    | Some outs -> outs

(* ------------------------------------------------------------------ *)

(* A static view of the installed tables for the symbolic loop checker:
   the checker walks {!Topology.fabric} values, so rebuild one from the
   live switch tables. *)
let check_view t =
  let view = Topology.build t.topo [] in
  List.iter
    (fun m ->
      let rules =
        List.map
          (fun (f : Flow.t) ->
            { Classifier.pattern = f.Flow.pattern; action = f.Flow.actions })
          (Table.entries (Switch.table m.switch 0))
      in
      Topology.set_table view m.id rules)
    t.members;
  view
