(** A sharded multi-switch fabric with two-phase consistent updates
    (§4.1; Reitblatt et al.'s per-packet consistency, in its incremental
    form).

    One software switch and one OpenFlow {!Sdx_openflow.Connection} per
    {!Topology} switch.  Logical rules split into an ingress band
    (port-pinned rules at their home edge, unpinned rules at every edge)
    whose remote outputs re-address frames into the {!Vtag} space, and a
    transit band (every dst-MAC rule, on every switch, far above the
    ingress priorities) forwarding on tags only.  The transit band splits
    by destination MAC, and each destination carries its own parity.

    {!commit} diffs the incoming ruleset against the committed one and
    re-versions only the destinations whose transit rules change, in
    three barrier-separated phases — install their sub-bands at the
    flipped parity (cookie-tagged, make-before-break), re-stamp or
    rewrite exactly the ingress rules whose localized form changed, then
    delete the old-parity sub-bands by cookie — so a frame stamped with
    an old parity keeps matching old rules until every edge provably
    stamps the new one.  {!process} doubles as the protocol's monitor: it
    counts packets that meet a mixed ruleset (tag with no transit rule,
    tag falling through to the ingress band, one destination at both
    parities on one delivery tree, or a tag leaking out of a delivered
    frame). *)

open Sdx_net
open Sdx_openflow

val transit_base : int
(** Priority offset of the transit bands; logical flow priorities must
    stay below it. *)

type t

val create : ?capacity:int -> Topology.t -> t
(** One switch (with optional per-table [capacity]) and connection per
    topology switch; version 0, nothing installed. *)

val topo : t -> Topology.t
val switches : t -> int list

val switch : t -> int -> Switch.t
(** @raise Invalid_argument on an unknown switch id. *)

val connection : t -> int -> Connection.t
(** @raise Invalid_argument on an unknown switch id. *)

type commit_stats = {
  version : int;  (** the version the commit moved the fabric to *)
  install_mods : int;  (** phase-1 adds: the re-versioned transit sub-bands *)
  flip_mods : int;  (** phase-2 mods: ingress re-stamps, adds, deletes *)
  gc_mods : int;  (** phase-3 deletes: the old-parity transit sub-bands *)
  barriers : int;  (** barrier round-trips across all switches *)
}

val total_mods : commit_stats -> int

type phase =
  | Installed of int  (** v+1's new transit sub-bands everywhere, old rules live *)
  | Flipped of int  (** every edge now stamps v+1's parities *)
  | Collected of int  (** the sub-bands v+1 replaced are deleted *)
  | Synced_member of int
      (** [`Unsafe_single_phase] only: one switch cut over, others not *)

val commit :
  ?protocol:[ `Two_phase | `Unsafe_single_phase ] ->
  ?on_phase:(phase -> unit) ->
  t ->
  Flow.t list ->
  commit_stats
(** Moves every switch to the given logical ruleset at version v+1,
    sending only the flow-mods that change behaviour: recommitting an
    identical ruleset sends none, and a ruleset that changes every
    destination re-versions them all on the same path.  A (priority,
    pattern) slot listed twice resolves to its last occurrence.
    [`Two_phase] (the default) is the consistent protocol described
    above; [`Unsafe_single_phase] runs all three phases on one switch
    before the next, with no make-before-break across switches — the
    negative control that makes {!mixed_version_packets} move.
    [on_phase] fires after each phase's barriers, even when the phase
    sent nothing; injecting probe traffic from it exercises the
    mid-update windows.
    @raise Invalid_argument, before any flow-mod is sent, if a flow
    priority reaches {!transit_base} or a trunk-crossing action names
    no destination MAC. *)

val version : t -> int
val commits : t -> int
val last_commit : t -> commit_stats option

val process : t -> Packet.t -> Packet.t list
(** Runs a packet located at a physical port through the sharded data
    plane, hopping trunks switch to switch; the result is the set of
    frames leaving on physical ports, tag-free — packet-for-packet what
    the logical single-switch table yields.  Entry hit counters advance
    once per switch visited, and the consistency monitor updates
    {!mixed_version_packets} / {!transit_misses}. *)

(** {2 Pure parallel readers} *)

type snap
(** Per-switch RCU table snapshots plus the topology: build on the
    owning domain with {!snapshots}, then hand to worker domains. *)

val snapshots : t -> snap

val reader : snap -> Packet.t -> Packet.t list
(** [reader snap] walks packets over the frozen snapshot without
    touching counters or shared state.  Call once per worker domain (the
    cursors inside are domain-private), then apply freely. *)

(** {2 Introspection} *)

val rule_counts : t -> (int * int) list
(** Installed rules per switch, ascending switch id. *)

val total_rules : t -> int

val packets : t -> int
(** Packets {!process} has walked. *)

val mixed_version_packets : t -> int
(** Packets whose walk showed a mixed ruleset — the number the two-phase
    protocol exists to keep at zero. *)

val transit_misses : t -> int
(** The subset of mixed-version packets dropped because a tagged frame
    found no transit rule at some switch. *)

val check_view : t -> Topology.fabric
(** A static classifier view of the live tables for
    {!Sdx_check}-style symbolic walks (loop freedom over trunks). *)
