(** An in-memory OpenFlow control channel: the controller side sends
    {!Message} values; flow modifications are applied to the switch's
    table, and switch-to-controller traffic (barrier replies, echo
    replies, packet-ins on table miss) is queued for {!recv}.

    [sync] brings a table to a desired rule set by re-reading every
    installed entry and sending the minimal add/delete flow-mod
    sequence; a controller that records what it installed (as
    [Sdx_fabric.Fabric] does) sends its flow-mods directly instead. *)

open Sdx_net

type t

val create : ?table:int -> Switch.t -> t

val send : t -> Message.t -> unit
(** Controller-to-switch.  [Flow_mod]s mutate the flow table: an ADD
    replaces its (priority, pattern) slot's entry and cookie alike, a
    strict DELETE clears both, and a cookie DELETE removes every entry
    the cookie still tags — each in O(1) per entry touched.
    [Barrier_request]/[Echo_request] queue their replies; [Packet_out]
    runs the packet through the switch. *)

val recv : t -> Message.t option
(** Next switch-to-controller message, if any.  The queue is a two-list
    FIFO, so [queue]/[recv] are O(1) amortized. *)

val pending : t -> int
(** Queued switch-to-controller messages.  O(1). *)

val barrier : t -> int -> bool
(** Sends a [Barrier_request xid] and consumes the matching
    [Barrier_reply] from the queue.  [true] when the switch answered —
    always, for this in-memory channel — meaning every flow-mod sent
    before the barrier has been applied.  Messages queued before the
    barrier (packet-ins) are left for {!recv}. *)

val flow_mods_applied : t -> int
(** Total flow modifications applied over the channel's lifetime. *)

val installed : t -> Flow.t list

val process : t -> Packet.t -> Packet.t list
(** Data-plane arrival: like {!Switch.process}, but a table miss queues
    a [Packet_in] for the controller.  The miss probe is pure (an RCU
    snapshot lookup), so each matched packet bumps the winning entry's
    hit counter exactly once — inside [Switch.process]. *)

val sync : t -> Flow.t list -> int
(** Make the installed rule set equal the target, sending one
    [Flow_mod] per difference (adds before strict deletes).  A target
    listing the same (priority, pattern) slot twice resolves to its last
    occurrence, mirroring sequential OpenFlow ADDs — so sync is
    idempotent even on duplicate-entry targets.  Returns the number of
    modifications sent; 0 when already in sync. *)
