open Sdx_policy

type t = { priority : int; pattern : Pattern.t; actions : Mods.t list }

let make ~priority ~pattern ~actions = { priority; pattern; actions }

module Key = struct
  type t = int * Pattern.t

  let equal (pa, a) (pb, b) = pa = pb && (a == b || Pattern.equal a b)
  let hash (p, pat) = (p * 0x01000193) lxor Pattern.hash pat
end

module Tbl = Hashtbl.Make (Key)

let key f = (f.priority, f.pattern)
let is_drop t = t.actions = []

let of_classifier ?(base_priority = 65535) (c : Classifier.t) =
  List.mapi
    (fun i (r : Classifier.rule) ->
      { priority = base_priority - i; pattern = r.pattern; actions = r.action })
    c

let pp fmt t =
  Format.fprintf fmt "@[<h>prio=%d %a -> [%a]@]" t.priority Pattern.pp t.pattern
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
       Mods.pp)
    t.actions
