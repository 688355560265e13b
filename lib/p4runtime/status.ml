type code =
  | Ok
  | Invalid_argument
  | Not_found
  | Already_exists
  | Resource_exhausted
  | Failed_precondition
  | Unimplemented
  | Internal
  | Unavailable
  | Unknown

type t = { code : code; message : string }

let ok = { code = Ok; message = "" }
let make code message = { code; message }
let makef code fmt = Printf.ksprintf (fun message -> { code; message }) fmt

let is_ok t = t.code = Ok

let code_to_string = function
  | Ok -> "OK"
  | Invalid_argument -> "INVALID_ARGUMENT"
  | Not_found -> "NOT_FOUND"
  | Already_exists -> "ALREADY_EXISTS"
  | Resource_exhausted -> "RESOURCE_EXHAUSTED"
  | Failed_precondition -> "FAILED_PRECONDITION"
  | Unimplemented -> "UNIMPLEMENTED"
  | Internal -> "INTERNAL"
  | Unavailable -> "UNAVAILABLE"
  | Unknown -> "UNKNOWN"

let pp fmt t =
  if t.message = "" then Format.pp_print_string fmt (code_to_string t.code)
  else Format.fprintf fmt "%s: %s" (code_to_string t.code) t.message
