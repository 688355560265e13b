module Bitvec = Switchv_bitvec.Bitvec
module Prefix = Switchv_bitvec.Prefix
module Ternary = Switchv_bitvec.Ternary
module Entry = Switchv_p4runtime.Entry
module Request = Switchv_p4runtime.Request
module Json = Switchv_telemetry.Telemetry.Json
module Jsonp = Switchv_telemetry.Jsonp

type control = {
  cr_seed : int;
  cr_prefix : Entry.t list;
  cr_batch : Request.update list;
}

type data = {
  dr_entries : Entry.t list;
  dr_port : int;
  dr_bytes : string;
}

type t = Control of control | Data of data

let size = function
  | Control c -> List.length c.cr_prefix + List.length c.cr_batch
  | Data d -> List.length d.dr_entries

let equal_update (a : Request.update) (b : Request.update) =
  a.op = b.op && Entry.equal a.entry b.entry

let equal a b =
  match (a, b) with
  | Control a, Control b ->
      a.cr_seed = b.cr_seed
      && List.equal Entry.equal a.cr_prefix b.cr_prefix
      && List.equal equal_update a.cr_batch b.cr_batch
  | Data a, Data b ->
      a.dr_port = b.dr_port
      && String.equal a.dr_bytes b.dr_bytes
      && List.equal Entry.equal a.dr_entries b.dr_entries
  | Control _, Data _ | Data _, Control _ -> false

let pp fmt = function
  | Control c ->
      Format.fprintf fmt "control repro: %d-entry prefix + %d-update batch (seed %d)"
        (List.length c.cr_prefix) (List.length c.cr_batch) c.cr_seed
  | Data d ->
      Format.fprintf fmt "data repro: %d entries, %d-byte packet on port %d"
        (List.length d.dr_entries) (String.length d.dr_bytes) d.dr_port

(* --- hex ------------------------------------------------------------------- *)

let hex_of_bytes s =
  let buf = Buffer.create (2 * String.length s) in
  String.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents buf

let bytes_of_hex h =
  let n = String.length h in
  if n mod 2 <> 0 then Error "odd-length hex string"
  else
    let nibble c =
      match c with
      | '0' .. '9' -> Some (Char.code c - Char.code '0')
      | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
      | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
      | _ -> None
    in
    let buf = Buffer.create (n / 2) in
    let rec go i =
      if i >= n then Ok (Buffer.contents buf)
      else
        match (nibble h.[i], nibble h.[i + 1]) with
        | Some hi, Some lo ->
            Buffer.add_char buf (Char.chr ((hi lsl 4) lor lo));
            go (i + 2)
        | _ -> Error (Printf.sprintf "bad hex at offset %d" i)
    in
    go 0

(* --- emit ------------------------------------------------------------------ *)

(* Bitvectors are "width:hex" strings — compact, and width round-trips
   exactly (the hex alone loses leading-zero width information). *)
let bv_to_json v =
  Json.str (Printf.sprintf "%d:%s" (Bitvec.width v) (Bitvec.to_hex_string v))

(* Rendered as (key, fragment) field lists so they can be spliced into the
   enclosing field-match object. *)
let match_value_fields = function
  | Entry.M_exact v -> [ ("kind", Json.str "exact"); ("v", bv_to_json v) ]
  | Entry.M_lpm p ->
      [ ("kind", Json.str "lpm"); ("v", bv_to_json (Prefix.value p));
        ("len", Json.int (Prefix.len p)) ]
  | Entry.M_ternary t ->
      [ ("kind", Json.str "ternary"); ("v", bv_to_json (Ternary.value t));
        ("mask", bv_to_json (Ternary.mask t)) ]
  | Entry.M_optional None -> [ ("kind", Json.str "optional") ]
  | Entry.M_optional (Some v) ->
      [ ("kind", Json.str "optional"); ("v", bv_to_json v) ]

let invocation_to_json (ai : Entry.action_invocation) =
  [ ("name", Json.str ai.ai_name);
    ("args", Json.arr (List.map bv_to_json ai.ai_args)) ]

let action_to_json = function
  | Entry.Single ai -> Json.obj (("kind", Json.str "single") :: invocation_to_json ai)
  | Entry.Weighted buckets ->
      Json.obj
        [ ("kind", Json.str "weighted");
          ( "buckets",
            Json.arr
              (List.map
                 (fun (ai, w) ->
                   Json.obj (invocation_to_json ai @ [ ("weight", Json.int w) ]))
                 buckets) ) ]

let entry_to_json (e : Entry.t) =
  Json.obj
    [ ("table", Json.str e.e_table); ("priority", Json.int e.e_priority);
      ( "matches",
        Json.arr
          (List.map
             (fun (fm : Entry.field_match) ->
               Json.obj
                 (("field", Json.str fm.fm_field)
                 :: match_value_fields fm.fm_value))
             e.e_matches) );
      ("action", action_to_json e.e_action) ]

let update_to_json (u : Request.update) =
  Json.obj
    [ ("op", Json.str (Request.op_to_string u.op)); ("entry", entry_to_json u.entry) ]

let to_json = function
  | Control c ->
      Json.obj
        [ ("type", Json.str "control"); ("seed", Json.int c.cr_seed);
          ("prefix", Json.arr (List.map entry_to_json c.cr_prefix));
          ("batch", Json.arr (List.map update_to_json c.cr_batch)) ]
  | Data d ->
      Json.obj
        [ ("type", Json.str "data"); ("port", Json.int d.dr_port);
          ("bytes", Json.str (hex_of_bytes d.dr_bytes));
          ("entries", Json.arr (List.map entry_to_json d.dr_entries)) ]

(* --- parse ----------------------------------------------------------------- *)

(* A tiny result-monad layer over Jsonp accessors: every shape error names
   the field it occurred under, which is all the debugging a corrupt corpus
   line needs. *)
let ( let* ) r f = Result.bind r f

let field name conv j =
  match Jsonp.member name j with
  | None -> Error (Printf.sprintf "missing field %S" name)
  | Some v -> (
      match conv v with
      | Some x -> Ok x
      | None -> Error (Printf.sprintf "bad field %S" name))

let map_all f xs =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | x :: rest -> (
        match f x with Ok y -> go (y :: acc) rest | Error _ as e -> e)
  in
  go [] xs

let bv_of_json j =
  match Jsonp.to_str j with
  | None -> Error "bitvector is not a string"
  | Some s -> (
      match String.index_opt s ':' with
      | None -> Error (Printf.sprintf "bitvector %S lacks width prefix" s)
      | Some i -> (
          let w = String.sub s 0 i in
          let hex = String.sub s (i + 1) (String.length s - i - 1) in
          match int_of_string_opt w with
          | Some width when width >= 1 -> (
              match Bitvec.of_hex_string ~width hex with
              | v -> Ok v
              | exception _ -> Error (Printf.sprintf "bad bitvector %S" s))
          | _ -> Error (Printf.sprintf "bad bitvector width in %S" s)))

let bv_field name j =
  match Jsonp.member name j with
  | None -> Error (Printf.sprintf "missing field %S" name)
  | Some v -> bv_of_json v

let match_value_of_json j =
  let* kind = field "kind" Jsonp.to_str j in
  match kind with
  | "exact" ->
      let* v = bv_field "v" j in
      Ok (Entry.M_exact v)
  | "lpm" ->
      let* v = bv_field "v" j in
      let* len = field "len" Jsonp.to_int j in
      if len < 0 || len > Bitvec.width v then Error "bad lpm length"
      else Ok (Entry.M_lpm (Prefix.make v len))
  | "ternary" ->
      let* v = bv_field "v" j in
      let* mask = bv_field "mask" j in
      if Bitvec.width v <> Bitvec.width mask then Error "ternary width mismatch"
      else Ok (Entry.M_ternary (Ternary.make ~value:v ~mask))
  | "optional" -> (
      match Jsonp.member "v" j with
      | None -> Ok (Entry.M_optional None)
      | Some v ->
          let* v = bv_of_json v in
          Ok (Entry.M_optional (Some v)))
  | other -> Error (Printf.sprintf "unknown match kind %S" other)

let invocation_of_json j =
  let* name = field "name" Jsonp.to_str j in
  let* args = field "args" Jsonp.to_arr j in
  let* args = map_all bv_of_json args in
  Ok { Entry.ai_name = name; ai_args = args }

let action_of_json j =
  let* kind = field "kind" Jsonp.to_str j in
  match kind with
  | "single" ->
      let* ai = invocation_of_json j in
      Ok (Entry.Single ai)
  | "weighted" ->
      let* buckets = field "buckets" Jsonp.to_arr j in
      let* buckets =
        map_all
          (fun b ->
            let* ai = invocation_of_json b in
            let* w = field "weight" Jsonp.to_int b in
            Ok (ai, w))
          buckets
      in
      Ok (Entry.Weighted buckets)
  | other -> Error (Printf.sprintf "unknown action kind %S" other)

let entry_of_json j =
  let* table = field "table" Jsonp.to_str j in
  let* priority = field "priority" Jsonp.to_int j in
  let* matches = field "matches" Jsonp.to_arr j in
  let* matches =
    map_all
      (fun m ->
        let* f = field "field" Jsonp.to_str m in
        let* mv = match_value_of_json m in
        Ok { Entry.fm_field = f; fm_value = mv })
      matches
  in
  let* action =
    match Jsonp.member "action" j with
    | None -> Error "missing field \"action\""
    | Some a -> action_of_json a
  in
  Ok (Entry.make ~priority ~table ~matches action)

let update_of_json j =
  let* op = field "op" Jsonp.to_str j in
  let* op =
    match op with
    | "INSERT" -> Ok Request.Insert
    | "MODIFY" -> Ok Request.Modify
    | "DELETE" -> Ok Request.Delete
    | other -> Error (Printf.sprintf "unknown op %S" other)
  in
  let* entry =
    match Jsonp.member "entry" j with
    | None -> Error "missing field \"entry\""
    | Some e -> entry_of_json e
  in
  Ok { Request.op; entry }

let of_json j =
  let* typ = field "type" Jsonp.to_str j in
  match typ with
  | "control" ->
      let* seed = field "seed" Jsonp.to_int j in
      let* prefix = field "prefix" Jsonp.to_arr j in
      let* prefix = map_all entry_of_json prefix in
      let* batch = field "batch" Jsonp.to_arr j in
      let* batch = map_all update_of_json batch in
      Ok (Control { cr_seed = seed; cr_prefix = prefix; cr_batch = batch })
  | "data" ->
      let* port = field "port" Jsonp.to_int j in
      let* bytes = field "bytes" Jsonp.to_str j in
      let* bytes = bytes_of_hex bytes in
      let* entries = field "entries" Jsonp.to_arr j in
      let* entries = map_all entry_of_json entries in
      Ok (Data { dr_entries = entries; dr_port = port; dr_bytes = bytes })
  | other -> Error (Printf.sprintf "unknown repro type %S" other)
