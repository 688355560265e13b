(** Installed-entry state: the forwarding state of a switch (or of the
    oracle's mirror of it). Entries are identified by their match key
    (table, field matches, priority); insertion order is preserved per
    table, which downstream matching uses as a deterministic tie-breaker. *)

module Bitvec = Switchv_bitvec.Bitvec
module Match = Switchv_match.Index
module P4info = Switchv_p4ir.P4info

type t

val create : unit -> t
val copy : t -> t
val clear : t -> unit

val insert : t -> Entry.t -> (unit, Status.t) result
(** [Already_exists] if an entry with the same match key is installed. *)

val modify : t -> Entry.t -> (unit, Status.t) result
(** Replace the action of the installed entry with the same match key;
    [Not_found] if absent. *)

val delete : t -> Entry.t -> (unit, Status.t) result
(** Remove by match key; [Not_found] if absent. *)

val find : t -> Entry.t -> Entry.t option
(** Installed entry with the same match key. *)

val entries_of : t -> string -> Entry.t list
(** Entries of a table, in insertion order. *)

val all : t -> Entry.t list

val entries_of_keyed : t -> string -> (string * Entry.t) list
val all_keyed : t -> (string * Entry.t) list
(** {!entries_of} and {!all} paired with each entry's {!Entry.match_key},
    which filing the entry built and the entry carries. *)

val count : t -> string -> int
val total : t -> int

module Values : Hashtbl.S with type key = string * string * Bitvec.t
(** Hash tables keyed by a (table, match field, value) triple: a value an
    entry provides, or a [@refers_to] reference to one. *)

val provided : Entry.t -> Values.key list
(** The values [entry] provides, in match order: each exact or present
    optional match's value, in [entry]'s own table. {!is_referenced} and
    {!provides_referenced} look them up among the references;
    {!exists_value} counts those that are their field's first match. *)

val exists_value : t -> table:string -> key:string -> Bitvec.t -> bool
(** Does some installed entry of [table] match exactly [value] on [key]?
    (The [@refers_to] existence check.) Only an entry's first match on
    [key] counts, as in a lookup. O(1): the first query counts the
    installed entries per (table, key, value), every later insert /
    modify / delete maintains the counts, and {!copy} carries them. *)

val is_referenced : t -> P4info.t -> Entry.t -> bool
(** Is [entry] the target of a [@refers_to] reference from any other
    installed entry? The installed entry with [entry]'s match key does not
    count. Used to refuse deletions that would dangle. *)

val provides_referenced : t -> P4info.t -> Entry.t -> bool
(** Does [entry] provide a value (an exact or present optional match in
    its own table) that some installed entry references — the installed
    entry with [entry]'s match key included?

    Both queries read reference counts that the first query for an
    [info] builds from the installed entries and every later insert /
    modify / delete maintains. The counts belong to one [P4info.t] value
    (compared physically): querying with another rebuilds them. {!copy}
    and {!clear} drop them. *)

type key_spec = { ks_name : string; ks_width : int; ks_kind : Match.kind }
(** An evaluator's description of one table key: the field-match name
    entries use, plus the width and match kind of the key. *)

val index_lookup :
  t -> table:string -> keys:key_spec array -> Bitvec.t array -> Entry.t option
(** The winning entry of [table] for the given key values (in [keys]
    order) under the interpreter's match-precedence order, served from an
    indexed view ({!Switchv_match.Index}). The first call against a table
    builds its index from the installed entries; every subsequent
    {!insert} / {!modify} / {!delete} maintains it incrementally (a
    table's index keeps the first schema it was queried with; {!copy}
    rebuilds lazily on the copy). *)

val equal : t -> t -> bool
(** Same set of installed entries (order-insensitive), with equal
    actions. *)

val diff : t -> t -> string list
(** Human-readable differences, for incident reports. *)
