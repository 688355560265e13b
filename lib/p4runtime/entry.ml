module Bitvec = Switchv_bitvec.Bitvec
module Prefix = Switchv_bitvec.Prefix
module Ternary = Switchv_bitvec.Ternary

type match_value =
  | M_exact of Bitvec.t
  | M_lpm of Prefix.t
  | M_ternary of Ternary.t
  | M_optional of Bitvec.t option

type field_match = { fm_field : string; fm_value : match_value }

type action_invocation = { ai_name : string; ai_args : Bitvec.t list }

type action_choice =
  | Single of action_invocation
  | Weighted of (action_invocation * int) list

(* [""] until [match_key] builds the key: a built key is never empty. *)
type key_cache = string

type t = {
  e_table : string;
  e_matches : field_match list;
  e_action : action_choice;
  e_priority : int;
  mutable e_key : key_cache;
}

let make ?(priority = 0) ~table ~matches action =
  { e_table = table; e_matches = matches; e_action = action; e_priority = priority;
    e_key = "" }

(* The key is blind to the action, so only [with_action] may keep it. *)
let with_action t action = { t with e_action = action }
let with_matches t matches = { t with e_matches = matches; e_key = "" }
let with_priority t priority = { t with e_priority = priority; e_key = "" }
let with_table t table = { t with e_table = table; e_key = "" }

let find_match t name =
  List.find_opt (fun fm -> String.equal fm.fm_field name) t.e_matches
  |> Option.map (fun fm -> fm.fm_value)

let add_match_value b mv =
  let hex v = Buffer.add_string b (Bitvec.to_hex_string v) in
  match mv with
  | M_exact v ->
      Buffer.add_string b "exact:";
      hex v
  | M_lpm p ->
      Buffer.add_string b "lpm:";
      hex (Prefix.value p);
      Buffer.add_char b '/';
      Buffer.add_string b (Int.to_string (Prefix.len p))
  | M_ternary tn ->
      Buffer.add_string b "ternary:";
      hex (Ternary.value tn);
      Buffer.add_char b '&';
      hex (Ternary.mask tn)
  | M_optional (Some v) ->
      Buffer.add_string b "optional:";
      hex v
  | M_optional None -> Buffer.add_string b "optional:*"

let match_value_to_string mv =
  let b = Buffer.create 32 in
  add_match_value b mv;
  Buffer.contents b

(* [table[priority]{field=value;...}], matches sorted by field name,
   written straight into one buffer the first time an entry is asked. *)
let build_key t =
  let b = Buffer.create 96 in
  Buffer.add_string b t.e_table;
  Buffer.add_char b '[';
  Buffer.add_string b (Int.to_string t.e_priority);
  Buffer.add_string b "]{";
  List.iteri
    (fun i fm ->
      if i > 0 then Buffer.add_char b ';';
      Buffer.add_string b fm.fm_field;
      Buffer.add_char b '=';
      add_match_value b fm.fm_value)
    (List.sort (fun a b -> String.compare a.fm_field b.fm_field) t.e_matches);
  Buffer.add_char b '}';
  Buffer.contents b

let match_key t =
  if String.length t.e_key > 0 then t.e_key
  else begin
    let key = build_key t in
    t.e_key <- key;
    key
  end

let equal_key a b = String.equal (match_key a) (match_key b)

let equal_invocation a b =
  String.equal a.ai_name b.ai_name
  && List.length a.ai_args = List.length b.ai_args
  && List.for_all2 Bitvec.equal a.ai_args b.ai_args

let equal_action a b =
  match (a, b) with
  | Single x, Single y -> equal_invocation x y
  | Weighted xs, Weighted ys ->
      List.length xs = List.length ys
      && List.for_all2
           (fun (x, wx) (y, wy) -> wx = wy && equal_invocation x y)
           xs ys
  | Single _, Weighted _ | Weighted _, Single _ -> false

let equal a b = equal_key a b && equal_action a.e_action b.e_action

let pp_match_value fmt mv = Format.pp_print_string fmt (match_value_to_string mv)

let pp_invocation fmt ai =
  Format.fprintf fmt "%s(%s)" ai.ai_name
    (String.concat ", " (List.map Bitvec.to_hex_string ai.ai_args))

let pp fmt t =
  Format.fprintf fmt "@[<h>%s" t.e_table;
  if t.e_priority <> 0 then Format.fprintf fmt " prio=%d" t.e_priority;
  List.iter
    (fun fm -> Format.fprintf fmt " %s=%a" fm.fm_field pp_match_value fm.fm_value)
    t.e_matches;
  Format.fprintf fmt " => ";
  (match t.e_action with
  | Single ai -> pp_invocation fmt ai
  | Weighted ais ->
      Format.fprintf fmt "{";
      List.iter (fun (ai, w) -> Format.fprintf fmt " %a*%d" pp_invocation ai w) ais;
      Format.fprintf fmt " }");
  Format.fprintf fmt "@]"
