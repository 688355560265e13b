(** The P4 model intermediate representation.

    This IR plays the role the P4-16 program plays in the paper: the single
    machine-readable specification of (a) the control-plane API — which
    tables exist, their keys, actions, sizes and constraints — and (b) the
    data-plane forwarding behaviour — parser, match-action pipeline,
    actions. It deliberately covers the language fragment the paper found
    sufficient for modeling fixed-function SAI pipelines: match-action
    tables (exact/LPM/ternary/optional keys), actions with bit-vector
    parameters, conditionals over header/metadata fields, header validity,
    black-box hashes, clone/punt primitives — and none of the constructs
    the paper excluded (header stacks, unions, registers, named
    calculations). *)

module Bitvec = Switchv_bitvec.Bitvec
module Header = Switchv_packet.Header
module Constraint_lang = Switchv_p4constraints.Constraint_lang

(** {1 Field references}

    [fr_header] is either a header name (e.g. ["ipv4"]), the user metadata
    pseudo-header ["meta"], or the standard metadata pseudo-header
    ["std"]. *)

type field_ref = { fr_header : string; fr_field : string }

val field : string -> string -> field_ref
(** [field "ipv4" "dst_addr"]. *)

val meta : string -> field_ref
val std : string -> field_ref

val field_ref_to_string : field_ref -> string
(** Dotted form, e.g. ["ipv4.dst_addr"]. *)

val field_ref_of_string : string -> field_ref
(** Inverse of {!field_ref_to_string}: splits at the {e first} ['.'], so
    field names may contain dots but header names may not (none of the
    standard headers do). Raises [Invalid_argument] when the string has no
    dot or either component is empty. *)

(** {1 Standard metadata}

    Every program implicitly carries these intrinsic fields under ["std"]:
    - [ingress_port : 16] — set by the environment before ingress
    - [egress_port : 16] — selected output port
    - [drop : 1] — packet is dropped when set at end of pipeline
    - [punt : 1] — packet is sent to the controller (packet-in)
    - [submit_to_ingress : 1] — controller-injected packet (packet-out)
    - [mirror_session : 16] — nonzero requests a mirror/clone
    - [vrf_action_taken : 1] — scratch bit used by no-op allocation tables *)

val standard_metadata : (string * int) list

(** {1 Expressions} *)

type expr =
  | E_const of Bitvec.t
  | E_field of field_ref
  | E_param of string                    (** action parameter, inside actions only *)
  | E_not of expr
  | E_and of expr * expr
  | E_or of expr * expr
  | E_xor of expr * expr
  | E_add of expr * expr
  | E_sub of expr * expr
  | E_slice of int * int * expr          (** hi, lo *)
  | E_concat of expr * expr
  | E_hash of string * expr list
      (** Black-box hash (§3 "Hashing"): identified by name; the concrete
          interpreter applies a pluggable algorithm, the symbolic engine
          treats the result as a free variable. Result width 16. *)

type bexpr =
  | B_true
  | B_false
  | B_is_valid of string                 (** header validity *)
  | B_eq of expr * expr
  | B_ne of expr * expr
  | B_ult of expr * expr
  | B_ule of expr * expr
  | B_not of bexpr
  | B_and of bexpr * bexpr
  | B_or of bexpr * bexpr

(** {1 Actions} *)

type stmt =
  | S_assign of field_ref * expr
  | S_set_valid of string * bool         (** add/remove a header (encap/decap) *)
  | S_nop

type param = {
  p_name : string;
  p_width : int;
  p_refers_to : (string * string) option;
      (** [@refers_to (table, key)] on an action parameter: the supplied
          argument must name an existing entry of that table (e.g. a
          nexthop id passed to [set_nexthop_id]). *)
}

val param : ?refers_to:string * string -> string -> int -> param

type action = {
  a_name : string;
  a_params : param list;
  a_body : stmt list;
}

val find_param : action -> string -> param option

(** {1 Tables} *)

type match_kind = Exact | Lpm | Ternary | Optional

type key = {
  k_name : string;          (** control-plane name, e.g. ["vrf_id"] *)
  k_expr : expr;            (** what the data plane matches on *)
  k_kind : match_kind;
  k_refers_to : (string * string) option;
      (** [@refers_to (table, key)]: referential-integrity annotation. *)
}

type table = {
  t_name : string;
  t_id : int;               (** control-plane table id (unique per program) *)
  t_keys : key list;
  t_actions : string list;  (** permitted action names *)
  t_default_action : string * Bitvec.t list;
  t_size : int;             (** guaranteed minimum number of entries (§3) *)
  t_entry_restriction : Constraint_lang.t option;
  t_selector : bool;
      (** One-shot action-selector table (WCMP): entries carry weighted
          action sets rather than a single action. *)
}

(** {1 Parser}

    A linear state machine, reflecting the paper's semi-hardcoded parser
    support: each state optionally extracts one header and transitions by
    selecting on a field of the packet parsed so far. *)

type transition =
  | T_accept
  | T_select of expr * (Bitvec.t * string) list * string
      (** selector expression, (constant -> state) cases, default state.
          The special state name ["accept"] terminates parsing. *)

type parser_state = {
  ps_name : string;
  ps_extract : string option;            (** header name to extract *)
  ps_next : transition;
}

type parser = { start : string; states : parser_state list }

(** {1 Pipelines} *)

type control =
  | C_nop
  | C_seq of control * control
  | C_table of string
  | C_if of bexpr * control * control
  | C_stmt of stmt
      (** A direct statement in the apply block (metadata computation,
          header validity manipulation). *)

type program = {
  p_name : string;
  p_headers : Header.t list;
  p_metadata : (string * int) list;       (** user metadata fields *)
  p_parser : parser;
  p_actions : action list;
  p_tables : table list;
  p_ingress : control;
  p_egress : control;
}

(** {1 Lookup helpers} *)

val find_table : program -> string -> table option
val find_table_exn : program -> string -> table
val find_action : program -> string -> action option
val find_action_exn : program -> string -> action
val find_header : program -> string -> Header.t option
val find_key : table -> string -> key option

val field_width : program -> field_ref -> int
(** Width of a header field, user metadata field, or standard metadata
    field. Raises [Not_found] for unknown references. *)

val tables_in_control : control -> string list
(** Table names applied, in application order (both branches of an [if]
    are included, condition-first order). *)

val count_ifs : control -> int
(** The number of [C_if] nodes in a control. Branch ids are numbered in
    pre-order (incremented at each [C_if], then-arm before else-arm,
    ingress before egress, starting at 1), so the arms of an [if] with id
    [n] start at [n + 1] and [n + 1 + count_ifs then_arm], and egress
    starts at [1 + count_ifs ingress]: the numbering [Symexec]'s branch
    goals, [Cfg], [Taint] and the evaluators' coverage counters share. *)

(** {2 Edge names}

    The one spelling of the edges that goals, analyses and coverage
    counters talk about. *)

val branch_label : int -> bool -> string
(** [branch_label id arm] names an arm of the [if] numbered [id]:
    [branch.<id>.then] when [arm], else [branch.<id>.else]. Symexec's
    branch goals and the analyses' dead and tainted labels use it. *)

val coverage_key : string -> string
(** [cov.<label>]: the telemetry counter the evaluators bump each time
    they take the edge [label] names. *)

val action_key : string -> hit:bool -> string -> string
(** [action_key table ~hit action] is the counter of a table-action edge:
    [cov.action.<table>.hit.<action>], or [.miss.] for the default action
    on a miss. *)

val key_width : program -> table -> key -> int
(** Width of the key expression. *)

val expr_width : program -> action option -> expr -> int
(** Width of an expression; [action] supplies parameter widths when the
    expression appears in an action body. *)

val seq : control list -> control
(** Right-nested sequence of controls. *)

val normalize_control : control -> control
(** Canonical form: right-nested sequences with no nested [C_seq] heads and
    no [C_nop] links; [C_if] branches normalised recursively. Two controls
    with equal normal forms execute identically. *)
