(** OpenFlow-style flow entries: a priority, a match, and an action set.

    The action set is a list of header-modification atoms; each atom whose
    [port] field is set emits the packet on that port (multicast when the
    list has several atoms); the empty list drops the packet. *)

open Sdx_policy

type t = {
  priority : int;  (** higher wins *)
  pattern : Pattern.t;
  actions : Mods.t list;
}

val make : priority:int -> pattern:Pattern.t -> actions:Mods.t list -> t

val is_drop : t -> bool

(** The (priority, pattern) slot an entry occupies: OpenFlow ADD
    overwrites on it and strict DELETE removes by it. *)
module Key : sig
  type t = int * Pattern.t

  val equal : t -> t -> bool
  val hash : t -> int
end

module Tbl : Hashtbl.S with type key = Key.t

val key : t -> Key.t

val of_classifier : ?base_priority:int -> Classifier.t -> t list
(** Converts a first-match classifier to flow entries with strictly
    descending priorities, preserving semantics.  [base_priority]
    (default [65535]) is assigned to the classifier's first rule. *)

val pp : Format.formatter -> t -> unit
