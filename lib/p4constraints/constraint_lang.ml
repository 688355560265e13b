module Bitvec = Switchv_bitvec.Bitvec
module Prefix = Switchv_bitvec.Prefix
module Ternary = Switchv_bitvec.Ternary

type cmp_op = Eq | Ne | Lt | Le | Gt | Ge

type atom =
  | A_int of int
  | A_key of string
  | A_key_mask of string
  | A_key_prefix_length of string

type t =
  | C_true
  | C_false
  | C_cmp of cmp_op * atom * atom
  | C_atom_truthy of atom
  | C_not of t
  | C_and of t * t
  | C_or of t * t

(* --- lexer --------------------------------------------------------------- *)

type token =
  | T_int of int
  | T_ident of string       (* dotted path, possibly with ::suffix handled by parser *)
  | T_coloncolon
  | T_and | T_or | T_not
  | T_eq | T_ne | T_lt | T_le | T_gt | T_ge
  | T_lparen | T_rparen
  | T_eof

exception Lex_error of string

let tokenize s =
  let n = String.length s in
  let toks = ref [] in
  let i = ref 0 in
  let push t = toks := t :: !toks in
  while !i < n do
    let c = s.[!i] in
    (match c with
    | ' ' | '\t' | '\n' | '\r' -> incr i
    | '(' -> push T_lparen; incr i
    | ')' -> push T_rparen; incr i
    | '!' ->
        if !i + 1 < n && s.[!i + 1] = '=' then begin push T_ne; i := !i + 2 end
        else begin push T_not; incr i end
    | '=' ->
        if !i + 1 < n && s.[!i + 1] = '=' then begin push T_eq; i := !i + 2 end
        else raise (Lex_error (Printf.sprintf "stray '=' at offset %d" !i))
    | '<' ->
        if !i + 1 < n && s.[!i + 1] = '=' then begin push T_le; i := !i + 2 end
        else begin push T_lt; incr i end
    | '>' ->
        if !i + 1 < n && s.[!i + 1] = '=' then begin push T_ge; i := !i + 2 end
        else begin push T_gt; incr i end
    | '&' ->
        if !i + 1 < n && s.[!i + 1] = '&' then begin push T_and; i := !i + 2 end
        else raise (Lex_error (Printf.sprintf "stray '&' at offset %d" !i))
    | '|' ->
        if !i + 1 < n && s.[!i + 1] = '|' then begin push T_or; i := !i + 2 end
        else raise (Lex_error (Printf.sprintf "stray '|' at offset %d" !i))
    | ':' ->
        if !i + 1 < n && s.[!i + 1] = ':' then begin push T_coloncolon; i := !i + 2 end
        else raise (Lex_error (Printf.sprintf "stray ':' at offset %d" !i))
    | '0' .. '9' ->
        let start = !i in
        let base, digits_start =
          if c = '0' && !i + 1 < n && (s.[!i + 1] = 'x' || s.[!i + 1] = 'X') then (16, !i + 2)
          else if c = '0' && !i + 1 < n && (s.[!i + 1] = 'b' || s.[!i + 1] = 'B') then (2, !i + 2)
          else (10, !i)
        in
        i := digits_start;
        let is_digit ch =
          match base with
          | 16 -> (ch >= '0' && ch <= '9') || (ch >= 'a' && ch <= 'f') || (ch >= 'A' && ch <= 'F')
          | 2 -> ch = '0' || ch = '1'
          | _ -> ch >= '0' && ch <= '9'
        in
        while !i < n && is_digit s.[!i] do incr i done;
        if !i = digits_start then
          raise (Lex_error (Printf.sprintf "bad number at offset %d" start));
        (* A literal has no sign, so a negative result is int_of_string
           wrapping a 0x/0b literal of 63 bits. *)
        (match int_of_string_opt (String.sub s start (!i - start)) with
        | Some v when v >= 0 -> push (T_int v)
        | _ ->
            raise (Lex_error (Printf.sprintf "integer literal out of range at offset %d" start)))
    | 'a' .. 'z' | 'A' .. 'Z' | '_' ->
        let start = !i in
        let is_ident ch =
          (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z')
          || (ch >= '0' && ch <= '9') || ch = '_' || ch = '.'
        in
        while !i < n && is_ident s.[!i] do incr i done;
        let text = String.sub s start (!i - start) in
        (match text with
        | "true" -> push (T_ident "true")
        | "false" -> push (T_ident "false")
        | _ -> push (T_ident text))
    | _ -> raise (Lex_error (Printf.sprintf "unexpected character %C at offset %d" c !i)));
  done;
  List.rev (T_eof :: !toks)

(* --- parser -------------------------------------------------------------- *)

exception Parse_error of string

type stream = { mutable toks : token list }

let peek st = match st.toks with [] -> T_eof | t :: _ -> t
let advance st = match st.toks with [] -> () | _ :: rest -> st.toks <- rest

let expect st t msg =
  if peek st = t then advance st else raise (Parse_error msg)

let parse_atom st =
  match peek st with
  | T_int n -> advance st; A_int n
  | T_ident id ->
      advance st;
      (match peek st with
      | T_coloncolon ->
          advance st;
          (match peek st with
          | T_ident "value" -> advance st; A_key id
          | T_ident "mask" -> advance st; A_key_mask id
          | T_ident "prefix_length" -> advance st; A_key_prefix_length id
          | _ -> raise (Parse_error ("unknown ::field after key " ^ id)))
      | _ -> A_key id)
  | _ -> raise (Parse_error "expected an atom (number or key)")

let cmp_of_token = function
  | T_eq -> Some Eq | T_ne -> Some Ne | T_lt -> Some Lt
  | T_le -> Some Le | T_gt -> Some Gt | T_ge -> Some Ge
  | _ -> None

let rec parse_disj st =
  let left = parse_conj st in
  if peek st = T_or then begin
    advance st;
    C_or (left, parse_disj st)
  end
  else left

and parse_conj st =
  let left = parse_unary st in
  if peek st = T_and then begin
    advance st;
    C_and (left, parse_conj st)
  end
  else left

and parse_unary st =
  match peek st with
  | T_not -> advance st; C_not (parse_unary st)
  | T_lparen ->
      advance st;
      let inner = parse_disj st in
      expect st T_rparen "expected ')'";
      (* A parenthesised constraint may be followed by a comparison only if
         it is an atom; we do not support comparing parenthesised boolean
         expressions, matching P4-constraints. *)
      inner
  | T_ident "true" -> advance st; C_true
  | T_ident "false" -> advance st; C_false
  | _ ->
      let a = parse_atom st in
      (match cmp_of_token (peek st) with
      | Some op ->
          advance st;
          let b = parse_atom st in
          C_cmp (op, a, b)
      | None -> C_atom_truthy a)

let parse s =
  match tokenize s with
  | exception Lex_error msg -> Error msg
  | toks ->
      let st = { toks } in
      (match parse_disj st with
      | exception Parse_error msg -> Error msg
      | c -> if peek st = T_eof then Ok c else Error "trailing tokens after constraint")

(* --- printing ------------------------------------------------------------ *)

let atom_to_string = function
  | A_int n -> string_of_int n
  | A_key k -> k
  | A_key_mask k -> k ^ "::mask"
  | A_key_prefix_length k -> k ^ "::prefix_length"

let cmp_to_string = function
  | Eq -> "==" | Ne -> "!=" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="

let rec to_string = function
  | C_true -> "true"
  | C_false -> "false"
  | C_cmp (op, a, b) ->
      Printf.sprintf "%s %s %s" (atom_to_string a) (cmp_to_string op) (atom_to_string b)
  | C_atom_truthy a -> atom_to_string a
  | C_not c -> Printf.sprintf "!(%s)" (to_string c)
  | C_and (a, b) -> Printf.sprintf "(%s && %s)" (to_string a) (to_string b)
  | C_or (a, b) -> Printf.sprintf "(%s || %s)" (to_string a) (to_string b)

(* --- evaluation ---------------------------------------------------------- *)

type key_value =
  | K_exact of Bitvec.t
  | K_lpm of Prefix.t
  | K_ternary of Ternary.t
  | K_optional of Bitvec.t option

type lookup = string -> key_value option

type value = V_int of int | V_bv of Bitvec.t

let ( let* ) = Result.bind

let atom_value lookup = function
  | A_int n -> Ok (V_int n)
  | A_key k -> (
      match lookup k with
      | None -> Error (Printf.sprintf "unknown key %s" k)
      | Some (K_exact v) -> Ok (V_bv v)
      | Some (K_lpm p) -> Ok (V_bv (Prefix.value p))
      | Some (K_ternary t) -> Ok (V_bv (Ternary.value t))
      | Some (K_optional (Some v)) -> Ok (V_bv v)
      | Some (K_optional None) -> Error (Printf.sprintf "optional key %s is unset" k))
  | A_key_mask k -> (
      match lookup k with
      | None -> Error (Printf.sprintf "unknown key %s" k)
      | Some (K_exact v) -> Ok (V_bv (Bitvec.ones (Bitvec.width v)))
      | Some (K_lpm p) ->
          Ok (V_bv (Bitvec.prefix_mask ~width:(Prefix.width p) (Prefix.len p)))
      | Some (K_ternary t) -> Ok (V_bv (Ternary.mask t))
      | Some (K_optional (Some v)) -> Ok (V_bv (Bitvec.ones (Bitvec.width v)))
      | Some (K_optional None) -> Error (Printf.sprintf "optional key %s is unset" k))
  | A_key_prefix_length k -> (
      match lookup k with
      | Some (K_lpm p) -> Ok (V_int (Prefix.len p))
      | Some _ -> Error (Printf.sprintf "%s::prefix_length on a non-LPM key" k)
      | None -> Error (Printf.sprintf "unknown key %s" k))

(* Integer literals are unbounded (as in P4-constraints): a constant that
   does not fit the key's width is simply larger than every key value. *)
let exceeds_width x w = w <= 62 && x > (1 lsl w) - 1

let compare_values a b =
  match (a, b) with
  | V_int x, V_int y -> Ok (Int.compare x y)
  | V_bv x, V_bv y ->
      if Bitvec.width x <> Bitvec.width y then
        Error
          (Printf.sprintf "comparing bitvectors of widths %d and %d" (Bitvec.width x)
             (Bitvec.width y))
      else Ok (Bitvec.compare x y)
  | V_int x, V_bv y ->
      if x < 0 then Error "negative constant compared to a key"
      else if exceeds_width x (Bitvec.width y) then Ok 1
      else Ok (Bitvec.compare (Bitvec.of_int ~width:(Bitvec.width y) x) y)
  | V_bv x, V_int y ->
      if y < 0 then Error "negative constant compared to a key"
      else if exceeds_width y (Bitvec.width x) then Ok (-1)
      else Ok (Bitvec.compare x (Bitvec.of_int ~width:(Bitvec.width x) y))

let rec eval t lookup =
  match t with
  | C_true -> Ok true
  | C_false -> Ok false
  | C_not c ->
      let* b = eval c lookup in
      Ok (not b)
  | C_and (a, b) ->
      let* x = eval a lookup in
      if not x then Ok false else eval b lookup
  | C_or (a, b) ->
      let* x = eval a lookup in
      if x then Ok true else eval b lookup
  | C_atom_truthy a ->
      let* v = atom_value lookup a in
      (match v with
      | V_int n -> Ok (n <> 0)
      | V_bv bv -> Ok (not (Bitvec.is_zero bv)))
  | C_cmp (op, a, b) ->
      let* va = atom_value lookup a in
      let* vb = atom_value lookup b in
      let* c = compare_values va vb in
      Ok
        (match op with
        | Eq -> c = 0
        | Ne -> c <> 0
        | Lt -> c < 0
        | Le -> c <= 0
        | Gt -> c > 0
        | Ge -> c >= 0)

let keys t =
  let seen = Hashtbl.create 8 in
  let out = ref [] in
  let add k =
    if not (Hashtbl.mem seen k) then begin
      Hashtbl.add seen k ();
      out := k :: !out
    end
  in
  let atom = function
    | A_int _ -> ()
    | A_key k | A_key_mask k | A_key_prefix_length k -> add k
  in
  let rec go = function
    | C_true | C_false -> ()
    | C_cmp (_, a, b) -> atom a; atom b
    | C_atom_truthy a -> atom a
    | C_not c -> go c
    | C_and (a, b) | C_or (a, b) -> go a; go b
  in
  go t;
  List.rev !out
