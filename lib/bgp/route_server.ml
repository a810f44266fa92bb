open Sdx_net

type t = {
  peers : Asn.t list;
  peer_set : Asn.Set.t;
  export : advertiser:Asn.t -> receiver:Asn.t -> bool;
  route_filter : Route.t -> receiver:Asn.t -> bool;
  adj_in : (Asn.t, Rib.Adj_in.t) Hashtbl.t;
  (* Candidate routes per prefix, keyed by advertiser; the per-receiver
     best is derived on demand, which keeps state linear in the number of
     announced routes rather than #prefixes x #participants. *)
  by_prefix : (Prefix.t, Route.t Asn.Map.t) Hashtbl.t;
  mutable prefix_index : unit Prefix_trie.t;
}

type change = { prefix : Prefix.t; best_changed_for : Asn.t list }

module Obs = struct
  open Sdx_obs.Registry

  let updates = counter "sdx_bgp_updates_total"
  let announces = counter "sdx_bgp_announce_total"
  let withdraws = counter "sdx_bgp_withdraw_total"

  (* One flip per (update, receiver) whose best route moved — the raw
     event count behind the paper's "data plane stays in sync with BGP"
     claim. *)
  let best_flips = counter "sdx_bgp_best_flips_total"
  let prefixes = gauge "sdx_bgp_prefixes"
end

let default_export ~advertiser:_ ~receiver:_ = true
let default_route_filter _route ~receiver:_ = true

let create ?(export = default_export) ?(route_filter = default_route_filter)
    peers =
  let adj_in = Hashtbl.create (List.length peers) in
  List.iter (fun p -> Hashtbl.replace adj_in p (Rib.Adj_in.create ())) peers;
  {
    peers;
    peer_set = Asn.Set.of_list peers;
    export;
    route_filter;
    adj_in;
    by_prefix = Hashtbl.create 4096;
    prefix_index = Prefix_trie.empty;
  }

let participants t = t.peers
let is_participant t asn = Asn.Set.mem asn t.peer_set

let exports_to t ~advertiser ~receiver =
  (not (Asn.equal advertiser receiver)) && t.export ~advertiser ~receiver

let candidates t prefix =
  match Hashtbl.find_opt t.by_prefix prefix with
  | None -> []
  | Some m ->
      (* ascending advertiser order, same as [Asn.Map.bindings], without
         materializing the intermediate pair list — this runs once per
         covered prefix in both grouping pipelines. *)
      List.rev (Asn.Map.fold (fun _ r acc -> r :: acc) m [])

(* Standard BGP loop prevention: never hand a route to a receiver whose
   own AS number already appears in its path — one half of the §4.1
   forwarding-loop invariants. *)
let loop_free (r : Route.t) ~receiver =
  not (List.exists (Asn.equal receiver) r.as_path)

let exported_candidates t ~receiver prefix =
  List.filter
    (fun (r : Route.t) ->
      exports_to t ~advertiser:r.learned_from ~receiver
      && loop_free r ~receiver
      && t.route_filter r ~receiver)
    (candidates t prefix)

let best t ~receiver prefix = Decision.best (exported_candidates t ~receiver prefix)

let feasible t ~receiver prefix =
  Decision.sort (exported_candidates t ~receiver prefix)

let require_participant t asn =
  if not (is_participant t asn) then
    invalid_arg (Printf.sprintf "Route_server: unknown participant %s" (Asn.to_string asn))

(* Receivers whose best route changes are found by recomputing the best
   before and after; candidate sets per prefix are small (one route per
   advertiser), so this costs O(#participants x #advertisers). *)
let bests_snapshot t prefix =
  List.map (fun receiver -> (receiver, best t ~receiver prefix)) t.peers

let mutate_ribs t update =
  let peer = Update.peer update in
  let prefix = Update.prefix update in
  match update with
  | Update.Announce route ->
      let adj = Hashtbl.find t.adj_in peer in
      Rib.Adj_in.add adj route;
      let m =
        Option.value (Hashtbl.find_opt t.by_prefix prefix) ~default:Asn.Map.empty
      in
      Hashtbl.replace t.by_prefix prefix (Asn.Map.add peer route m);
      t.prefix_index <- Prefix_trie.add prefix () t.prefix_index
  | Update.Withdraw _ -> (
      let adj = Hashtbl.find t.adj_in peer in
      Rib.Adj_in.remove adj prefix;
      match Hashtbl.find_opt t.by_prefix prefix with
      | None -> ()
      | Some m ->
          let m = Asn.Map.remove peer m in
          if Asn.Map.is_empty m then begin
            Hashtbl.remove t.by_prefix prefix;
            t.prefix_index <- Prefix_trie.remove prefix t.prefix_index
          end
          else Hashtbl.replace t.by_prefix prefix m)

let apply t update =
  let peer = Update.peer update in
  require_participant t peer;
  let prefix = Update.prefix update in
  let before = bests_snapshot t prefix in
  mutate_ribs t update;
  let after = bests_snapshot t prefix in
  let best_changed_for =
    List.filter_map
      (fun ((receiver, old_best), (_, new_best)) ->
        let same =
          match (old_best, new_best) with
          | None, None -> true
          | Some a, Some b -> Route.equal a b
          | _ -> false
        in
        if same then None else Some receiver)
      (List.combine before after)
  in
  Sdx_obs.Registry.Counter.incr Obs.updates;
  Sdx_obs.Registry.Counter.incr
    (match update with
    | Update.Announce _ -> Obs.announces
    | Update.Withdraw _ -> Obs.withdraws);
  Sdx_obs.Registry.Counter.add Obs.best_flips (List.length best_changed_for);
  Sdx_obs.Registry.Gauge.set_int Obs.prefixes (Hashtbl.length t.by_prefix);
  { prefix; best_changed_for }

let apply_burst t updates = List.map (apply t) updates

(* Notification-free bulk load for initial table builds: identical RIB
   mutations to [apply] but without the per-update before/after
   best-route diff, which costs O(participants x candidates) per update
   and dominates million-prefix loads.  Nothing compiled exists yet at
   load time, so there is no state the skipped change notifications
   could have invalidated. *)
let load t update =
  require_participant t (Update.peer update);
  mutate_ribs t update;
  Sdx_obs.Registry.Counter.incr Obs.updates;
  Sdx_obs.Registry.Counter.incr
    (match update with
    | Update.Announce _ -> Obs.announces
    | Update.Withdraw _ -> Obs.withdraws);
  Sdx_obs.Registry.Gauge.set_int Obs.prefixes (Hashtbl.length t.by_prefix)

let fold_adj_in t ~via f init =
  require_participant t via;
  Rib.Adj_in.fold f (Hashtbl.find t.adj_in via) init

let fold_announced_overlapping t prefix f init =
  Prefix_trie.fold_overlapping prefix
    (fun p () acc -> f p acc)
    t.prefix_index init

let trivial_route_filter t = t.route_filter == default_route_filter
let route_filter_passes t route ~receiver = t.route_filter route ~receiver

let reachable_prefixes t ~receiver ~via =
  require_participant t via;
  if not (exports_to t ~advertiser:via ~receiver) then []
  else
    let adj = Hashtbl.find t.adj_in via in
    List.rev
      (Rib.Adj_in.fold
         (fun prefix route acc ->
           if loop_free route ~receiver && t.route_filter route ~receiver then
             prefix :: acc
           else acc)
         adj [])

let exports_prefix t ~receiver ~via prefix =
  require_participant t via;
  exports_to t ~advertiser:via ~receiver
  &&
  match Rib.Adj_in.find (Hashtbl.find t.adj_in via) prefix with
  | None -> false
  | Some route -> loop_free route ~receiver && t.route_filter route ~receiver

let all_prefixes t =
  List.rev (Prefix_trie.fold (fun p () acc -> p :: acc) t.prefix_index [])

let prefix_count t = Hashtbl.length t.by_prefix

let prefixes_of t asn =
  require_participant t asn;
  Rib.Adj_in.prefixes (Hashtbl.find t.adj_in asn)

let fold_best t ~receiver f init =
  Prefix_trie.fold
    (fun prefix () acc ->
      match best t ~receiver prefix with
      | Some route -> f prefix route acc
      | None -> acc)
    t.prefix_index init

let lookup_best t ~receiver addr =
  (* Most specific first, skipping prefixes with no exported candidate. *)
  let rec go = function
    | [] -> None
    | (prefix, ()) :: rest -> (
        match best t ~receiver prefix with
        | Some route -> Some (prefix, route)
        | None -> go rest)
  in
  go (Prefix_trie.matches addr t.prefix_index)

let filter_prefixes_by_as_path t ~receiver regex =
  List.rev
    (fold_best t ~receiver
       (fun prefix route acc ->
         if As_path_regex.matches regex route then prefix :: acc else acc)
       [])

let filter_prefixes_by_community t ~receiver community =
  List.rev
    (fold_best t ~receiver
       (fun prefix (route : Route.t) acc ->
         if List.mem community route.communities then prefix :: acc else acc)
       [])
