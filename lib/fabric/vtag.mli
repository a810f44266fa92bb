(** Parity tags for trunk frames.

    The consistent-update protocol re-versions one destination's transit
    rules at a time, so every frame crossing a trunk carries, per
    destination, which of two copies of that destination's transit rules
    must serve it.  A tag is a destination MAC in a reserved space: first
    octet [0x06] (parity 0) or [0x0E] (parity 1), low 40 bits an interned
    index of the original destination MAC.  The interner is stable for
    the lifetime of a fabric, so re-stamping the same address yields the
    same tag modulo the parity octet — exactly the bit a re-version of
    that destination toggles. *)

open Sdx_net

type t
(** The MAC interner backing one fabric's tag space. *)

val create : unit -> t

val stamp : t -> parity:int -> Mac.t -> Mac.t
(** The tag for [mac] at [parity] (only its low bit matters).
    @raise Invalid_argument if [mac] already lies in the tag space. *)

val strip : t -> Mac.t -> Mac.t option
(** The original address a tag was minted from; [None] for untagged
    MACs or tags this interner never issued. *)

val conflict : Mac.t -> Mac.t -> bool
(** Whether two tags name the same original address at opposite
    parities — the two must never meet on one packet's path. *)

val is_tagged : Mac.t -> bool
(** Whether the address lies in the reserved tag space at all. *)


val interned : t -> int
(** Distinct original addresses interned so far. *)
