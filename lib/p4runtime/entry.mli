(** P4Runtime table entries — the payload of control-plane Write requests
    (Figure 3 of the paper shows these in human-readable form). *)

module Bitvec = Switchv_bitvec.Bitvec
module Prefix = Switchv_bitvec.Prefix
module Ternary = Switchv_bitvec.Ternary

type match_value =
  | M_exact of Bitvec.t
  | M_lpm of Prefix.t
  | M_ternary of Ternary.t
  | M_optional of Bitvec.t option
      (** [None] encodes an omitted optional match (wildcard). Omitted
          ternary matches are encoded as a present wildcard or simply left
          out of [matches]. *)

type field_match = { fm_field : string; fm_value : match_value }

type action_invocation = { ai_name : string; ai_args : Bitvec.t list }

type action_choice =
  | Single of action_invocation
  | Weighted of (action_invocation * int) list
      (** One-shot action selector: weighted action set (WCMP, §4.2). *)

type key_cache
(** The match key an entry carries once {!match_key} has built it. *)

type t = private {
  e_table : string;
  e_matches : field_match list;
  e_action : action_choice;
  e_priority : int;
      (** Strictly positive for tables with ternary/optional matches
          (higher wins); must be 0 for purely exact/LPM tables. *)
  mutable e_key : key_cache;
      (** Filled by the first {!match_key} call; read it only through
          {!match_key}. *)
}
(** Entries are built with {!make} and changed with the [with_*]
    updaters, never as record literals, so the cached key always belongs
    to the fields it was built from.

    Compare entries only through {!equal} and {!equal_key} (and
    {!equal_action}). Polymorphic [=], [compare] and [Hashtbl.hash] see
    whether the key has been built yet, so they are wrong on [t] and on
    any value holding one ([Request.update], a reproducer, a batch). *)

val make :
  ?priority:int -> table:string -> matches:field_match list -> action_choice -> t
(** Builds no key: the first {!match_key} call does, so an entry nobody
    looks up never pays for one. *)

val with_action : t -> action_choice -> t
(** Same identity, new action: keeps the key if it is built. *)

val with_matches : t -> field_match list -> t
val with_priority : t -> int -> t
val with_table : t -> string -> t

val find_match : t -> string -> match_value option

val match_key : t -> string
(** Canonical string for the entry's identity — table, matches, priority —
    as used for duplicate detection. Insensitive to match order, blind to
    the action (per P4Runtime, two entries with the same key are the "same
    entry" even with different actions). Built on the first call and
    cached in the entry, so later calls on the same entry are free. *)

val equal_key : t -> t -> bool
(** Same identity (table, matches, priority). *)

val equal : t -> t -> bool
(** Full structural equality including action and args. *)

val equal_action : action_choice -> action_choice -> bool
(** The action half of {!equal}: for two entries already known to share a
    match key, [equal a b = equal_action a.e_action b.e_action]. *)

val pp : Format.formatter -> t -> unit
val pp_match_value : Format.formatter -> match_value -> unit
