(** Canonical RPC status codes, mirroring the gRPC codes the P4Runtime
    specification uses for Write/Read responses. *)

type code =
  | Ok
  | Invalid_argument     (** malformed request (syntactically invalid) *)
  | Not_found            (** e.g. deleting a non-existent entry *)
  | Already_exists       (** inserting a duplicate entry *)
  | Resource_exhausted   (** table full beyond its guaranteed size *)
  | Failed_precondition  (** constraint violation or dangling reference *)
  | Unimplemented
  | Internal
  | Unavailable
  | Unknown

type t = { code : code; message : string }

val ok : t
val make : code -> string -> t
val makef : code -> ('a, unit, string, t) format4 -> 'a

val is_ok : t -> bool
val pp : Format.formatter -> t -> unit
