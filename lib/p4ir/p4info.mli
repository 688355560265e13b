(** P4Info: the control-plane view of a P4 model.

    This is the artifact the P4Runtime protocol calls "P4Info" — the schema
    a controller (and SwitchV's fuzzer and oracle) needs to form and judge
    control-plane requests: table ids and names, match fields with kinds
    and bit widths, permitted actions with parameter signatures, size
    guarantees, and whether entry restrictions / reference annotations are
    present. It contains no data-plane behaviour. *)

type match_field = {
  mf_name : string;
  mf_kind : Ast.match_kind;
  mf_width : int;
  mf_refers_to : (string * string) option;
}

type action_ref = {
  ar_name : string;
  ar_params : Ast.param list;
}

type table = {
  ti_name : string;
  ti_id : int;
  ti_match_fields : match_field list;
  ti_actions : action_ref list;
  ti_default_action : string;
  ti_size : int;
  ti_restriction : Switchv_p4constraints.Constraint_lang.t option;
  ti_selector : bool;
}

type t = {
  pi_program : string;
  pi_tables : table list;
}

val of_program : Ast.program -> t

val find_table : t -> string -> table option
val find_table_by_id : t -> int -> table option
val find_match_field : table -> string -> match_field option
val find_action : table -> string -> action_ref option

val restriction_bdd : table -> Switchv_p4constraints.Bdd.compiled option
(** The table's [@entry_restriction] compiled to a BDD over the bits of the
    keys it references: what the fuzzer samples entries from (§7) and what
    analysis code P4A004 model-counts. [None] without a restriction, or
    for shapes the BDD engine cannot encode (LPM keys,
    [::prefix_length], keys missing from the table). *)

val requires_priority : table -> bool
(** True when any match field is ternary or optional — such tables take an
    explicit entry priority, per the P4Runtime specification. *)

val digest : t -> string
(** Stable content digest, used as a cache key by p4-symbolic. *)

val pp : Format.formatter -> t -> unit
