module Bitvec = Switchv_bitvec.Bitvec
module Header = Switchv_packet.Header
module Constraint_lang = Switchv_p4constraints.Constraint_lang
open Ast

(* --- lexer ------------------------------------------------------------------- *)

type token =
  | T_id of string            (* possibly dotted: headers.ipv4.isValid *)
  | T_int of int
  | T_bv of Bitvec.t          (* width literal: 8w0xff / 8w255 *)
  | T_str of string
  | T_punct of string         (* {}()[];:,=@<> and multi-char ops *)
  | T_eof

exception Error of string

let error fmt = Printf.ksprintf (fun m -> raise (Error m)) fmt

let tokenize source =
  let n = String.length source in
  let line = ref 1 in
  let toks = ref [] in
  let push t = toks := (t, !line) :: !toks in
  let i = ref 0 in
  let peek k = if !i + k < n then Some source.[!i + k] else None in
  let int_from start =
    match int_of_string_opt (String.sub source start (!i - start)) with
    | Some v -> v
    | None -> error "line %d: integer literal out of range" !line
  in
  let is_id_char c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
    || c = '_' || c = '.'
  in
  let is_digit c = c >= '0' && c <= '9' in
  let is_hex c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F') in
  while !i < n do
    let c = source.[!i] in
    if c = '\n' then begin incr line; incr i end
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '/' && peek 1 = Some '/' then begin
      while !i < n && source.[!i] <> '\n' do incr i done
    end
    else if c = '/' && peek 1 = Some '*' then begin
      i := !i + 2;
      while !i + 1 < n && not (source.[!i] = '*' && source.[!i + 1] = '/') do
        if source.[!i] = '\n' then incr line;
        incr i
      done;
      i := !i + 2
    end
    else if c = '"' then begin
      incr i;
      let start = !i in
      while !i < n && source.[!i] <> '"' do incr i done;
      push (T_str (String.sub source start (!i - start)));
      incr i
    end
    else if is_digit c then begin
      let start = !i in
      while !i < n && is_digit source.[!i] do incr i done;
      if peek 0 = Some 'w' then begin
        (* width literal *)
        let width = int_from start in
        if width < 1 then error "line %d: zero-width literal" !line;
        incr i;
        if peek 0 = Some '0' && (peek 1 = Some 'x' || peek 1 = Some 'X') then begin
          i := !i + 2;
          let hstart = !i in
          while !i < n && is_hex source.[!i] do incr i done;
          push (T_bv (Bitvec.of_hex_string ~width (String.sub source hstart (!i - hstart))))
        end
        else begin
          let dstart = !i in
          while !i < n && is_digit source.[!i] do incr i done;
          if !i = dstart then error "line %d: malformed width literal" !line;
          push (T_bv (Bitvec.of_int ~width (int_from dstart)))
        end
      end
      else push (T_int (int_from start))
    end
    else if is_id_char c && c <> '.' then begin
      let start = !i in
      while !i < n && is_id_char source.[!i] do incr i done;
      push (T_id (String.sub source start (!i - start)))
    end
    else begin
      let two = if !i + 1 < n then String.sub source !i 2 else "" in
      match two with
      | "==" | "!=" | "<=" | ">=" | "&&" | "||" | "++" ->
          push (T_punct two);
          i := !i + 2
      | _ ->
          (match c with
          | '{' | '}' | '(' | ')' | '[' | ']' | ';' | ':' | ',' | '=' | '@' | '<'
          | '>' | '!' | '~' | '&' | '|' | '^' | '+' | '-' ->
              push (T_punct (String.make 1 c))
          | _ -> error "line %d: unexpected character %C" !line c);
          incr i
    end
  done;
  push T_eof;
  Array.of_list (List.rev !toks)

(* --- token stream with backtracking -------------------------------------------- *)

type stream = { toks : (token * int) array; mutable pos : int }

let peek st = fst st.toks.(st.pos)
let line st = snd st.toks.(st.pos)
let advance st = st.pos <- st.pos + 1
let save st = st.pos
let restore st p = st.pos <- p

let expect_punct st p =
  match peek st with
  | T_punct q when q = p -> advance st
  | _ -> error "line %d: expected %S" (line st) p

let expect_id st =
  match peek st with
  | T_id s -> advance st; s
  | _ -> error "line %d: expected an identifier" (line st)

let expect_kw st kw =
  match peek st with
  | T_id s when s = kw -> advance st
  | _ -> error "line %d: expected %S" (line st) kw

let expect_int st =
  match peek st with
  | T_int v -> advance st; v
  | _ -> error "line %d: expected an integer" (line st)

let expect_str st =
  match peek st with
  | T_str s -> advance st; s
  | _ -> error "line %d: expected a string literal" (line st)

let accept_punct st p =
  match peek st with
  | T_punct q when q = p -> advance st; true
  | _ -> false

let accept_kw st kw =
  match peek st with
  | T_id s when s = kw -> advance st; true
  | _ -> false

(* --- parsing context ------------------------------------------------------------ *)

(* [headers], [actions], and [tables] accumulate in reverse declaration
   order (cons, not append — appending one element per declaration made
   parsing O(n²) on large models); the program constructor reverses them
   once. *)
type ctx = {
  mutable headers : Header.t list;
  mutable meta_fields : (string * int) list;
  mutable parser_ : Ast.parser option;
  mutable actions : action list;
  mutable tables : table list;
  mutable ingress : control option;
  mutable egress : control option;
}

(* A dotted identifier as a field reference: "a.b" (the "headers." prefix,
   if present, is dropped). *)
let field_ref_of_path line path =
  match String.split_on_char '.' path with
  | [ h; f ] -> { fr_header = h; fr_field = f }
  | [ "headers"; h; f ] -> { fr_header = h; fr_field = f }
  | _ -> error "line %d: %S is not a field reference" line path

(* --- expressions ------------------------------------------------------------------ *)

let binop_of = function
  | "&" -> Some (fun a b -> E_and (a, b))
  | "|" -> Some (fun a b -> E_or (a, b))
  | "^" -> Some (fun a b -> E_xor (a, b))
  | "+" -> Some (fun a b -> E_add (a, b))
  | "-" -> Some (fun a b -> E_sub (a, b))
  | "++" -> Some (fun a b -> E_concat (a, b))
  | _ -> None

(* [in_action] decides whether bare identifiers are action parameters. *)
let rec parse_expr st ~in_action =
  let e =
    match peek st with
    | T_bv v -> advance st; E_const v
    | T_punct "~" ->
        advance st;
        E_not (parse_expr st ~in_action)
    | T_punct "(" ->
        advance st;
        let a = parse_expr st ~in_action in
        let op =
          match peek st with
          | T_punct p -> (
              match binop_of p with
              | Some f -> advance st; f
              | None -> error "line %d: expected a binary operator, got %S" (line st) p)
          | _ -> error "line %d: expected a binary operator" (line st)
        in
        let b = parse_expr st ~in_action in
        expect_punct st ")";
        op a b
    | T_id "hash" ->
        advance st;
        expect_punct st "<";
        let name = expect_id st in
        expect_punct st ">";
        expect_punct st "(";
        let args = ref [] in
        if not (accept_punct st ")") then begin
          let rec go () =
            args := parse_expr st ~in_action :: !args;
            if accept_punct st "," then go () else expect_punct st ")"
          in
          go ()
        end;
        E_hash (name, List.rev !args)
    | T_id path ->
        advance st;
        if String.contains path '.' then E_field (field_ref_of_path (line st) path)
        else if in_action then E_param path
        else error "line %d: bare identifier %S outside an action" (line st) path
    | _ -> error "line %d: expected an expression" (line st)
  in
  (* postfix slices *)
  let rec slices e =
    if accept_punct st "[" then begin
      let hi = expect_int st in
      expect_punct st ":";
      let lo = expect_int st in
      expect_punct st "]";
      slices (E_slice (hi, lo, e))
    end
    else e
  in
  slices e

let is_valid_path path =
  match String.split_on_char '.' path with
  | [ "headers"; h; "isValid" ] -> Some h
  | _ -> None

let rec parse_bexpr st =
  match peek st with
  | T_id "true" -> advance st; B_true
  | T_id "false" -> advance st; B_false
  | T_punct "!" ->
      advance st;
      B_not (parse_bexpr st)
  | T_id path when is_valid_path path <> None ->
      advance st;
      expect_punct st "(";
      expect_punct st ")";
      B_is_valid (Option.get (is_valid_path path))
  | T_punct "(" -> (
      (* Either a parenthesised boolean (b && b) or a parenthesised
         arithmetic operand of a comparison: backtrack on failure. *)
      let mark = save st in
      advance st;
      match parse_bool_tail st with
      | Some b -> b
      | None ->
          restore st mark;
          parse_comparison st)
  | _ -> parse_comparison st

and parse_bool_tail st =
  (* Already past '('. Try: bexpr ('&&'|'||') bexpr ')' *)
  match parse_bexpr st with
  | exception Error _ -> None
  | a -> (
      match peek st with
      | T_punct "&&" ->
          advance st;
          let b = parse_bexpr st in
          expect_punct st ")";
          Some (B_and (a, b))
      | T_punct "||" ->
          advance st;
          let b = parse_bexpr st in
          expect_punct st ")";
          Some (B_or (a, b))
      | _ -> None)

and parse_comparison st =
  let a = parse_expr st ~in_action:false in
  match peek st with
  | T_punct "==" -> advance st; B_eq (a, parse_expr st ~in_action:false)
  | T_punct "!=" -> advance st; B_ne (a, parse_expr st ~in_action:false)
  | T_punct "<" -> advance st; B_ult (a, parse_expr st ~in_action:false)
  | T_punct "<=" -> advance st; B_ule (a, parse_expr st ~in_action:false)
  | _ -> error "line %d: expected a comparison operator" (line st)

(* --- statements --------------------------------------------------------------------- *)

let set_valid_path path =
  match String.split_on_char '.' path with
  | [ "headers"; h; "setValid" ] -> Some (h, true)
  | [ "headers"; h; "setInvalid" ] -> Some (h, false)
  | _ -> None

let parse_stmt st ~in_action =
  match peek st with
  | T_punct ";" -> advance st; S_nop
  | T_id path when set_valid_path path <> None ->
      advance st;
      expect_punct st "(";
      expect_punct st ")";
      expect_punct st ";";
      let h, v = Option.get (set_valid_path path) in
      S_set_valid (h, v)
  | T_id path when String.contains path '.' ->
      advance st;
      let fr = field_ref_of_path (line st) path in
      expect_punct st "=";
      let e = parse_expr st ~in_action in
      expect_punct st ";";
      S_assign (fr, e)
  | _ -> error "line %d: expected a statement" (line st)

(* --- declarations ------------------------------------------------------------------- *)

let parse_bit_field st =
  expect_kw st "bit";
  expect_punct st "<";
  let w = expect_int st in
  expect_punct st ">";
  let name = expect_id st in
  expect_punct st ";";
  (name, w)

let strip_t name =
  if String.length name > 2 && String.sub name (String.length name - 2) 2 = "_t" then
    String.sub name 0 (String.length name - 2)
  else name

let parse_header ctx st =
  let at = line st in
  let name = strip_t (expect_id st) in
  expect_punct st "{";
  let fields = ref [] in
  while not (accept_punct st "}") do
    fields := parse_bit_field st :: !fields
  done;
  if !fields = [] then error "line %d: header %s has no fields" at name;
  ctx.headers <- Header.make name (List.rev !fields) :: ctx.headers

let parse_metadata ctx st =
  ignore (expect_id st) (* struct name *);
  expect_punct st "{";
  let fields = ref [] in
  while not (accept_punct st "}") do
    fields := parse_bit_field st :: !fields
  done;
  ctx.meta_fields <- List.rev !fields

let extract_path line path =
  match String.split_on_char '.' path with
  | [ "headers"; h ] -> h
  | _ -> error "line %d: expected headers.<name>, got %S" line path

let parse_parser ctx st =
  expect_punct st "(";
  expect_kw st "start";
  expect_punct st "=";
  let start = expect_id st in
  expect_punct st ")";
  expect_punct st "{";
  let states = ref [] in
  while not (accept_punct st "}") do
    expect_kw st "state";
    let ps_name = expect_id st in
    expect_punct st "{";
    let ps_extract =
      if accept_kw st "packet.extract" then begin
        expect_punct st "(";
        let h = extract_path (line st) (expect_id st) in
        expect_punct st ")";
        expect_punct st ";";
        Some h
      end
      else None
    in
    expect_kw st "transition";
    let ps_next =
      if accept_kw st "accept" then begin
        expect_punct st ";";
        T_accept
      end
      else begin
        expect_kw st "select";
        expect_punct st "(";
        let sel = parse_expr st ~in_action:false in
        expect_punct st ")";
        expect_punct st "{";
        let cases = ref [] in
        let default = ref "accept" in
        while not (accept_punct st "}") do
          match peek st with
          | T_id "default" ->
              advance st;
              expect_punct st ":";
              default := expect_id st;
              expect_punct st ";"
          | T_bv c ->
              advance st;
              expect_punct st ":";
              let target = expect_id st in
              expect_punct st ";";
              cases := (c, target) :: !cases
          | _ -> error "line %d: expected a select case" (line st)
        done;
        T_select (sel, List.rev !cases, !default)
      end
    in
    expect_punct st "}";
    states := { ps_name; ps_extract; ps_next } :: !states
  done;
  ctx.parser_ <- Some { start; states = List.rev !states }

let parse_action ctx st =
  let a_name = expect_id st in
  expect_punct st "(";
  let params = ref [] in
  if not (accept_punct st ")") then begin
    let rec go () =
      let refers_to =
        if accept_punct st "@" then begin
          expect_kw st "refers_to";
          expect_punct st "(";
          let tbl = expect_id st in
          expect_punct st ",";
          let key = expect_id st in
          expect_punct st ")";
          Some (tbl, key)
        end
        else None
      in
      expect_kw st "bit";
      expect_punct st "<";
      let w = expect_int st in
      expect_punct st ">";
      let name = expect_id st in
      params := param ?refers_to name w :: !params;
      if accept_punct st "," then go () else expect_punct st ")"
    in
    go ()
  end;
  expect_punct st "{";
  let body = ref [] in
  while not (accept_punct st "}") do
    body := parse_stmt st ~in_action:true :: !body
  done;
  ctx.actions <-
    { a_name; a_params = List.rev !params; a_body = List.rev !body } :: ctx.actions

let kind_of_string line = function
  | "exact" -> Exact
  | "lpm" -> Lpm
  | "ternary" -> Ternary
  | "optional" -> Optional
  | other -> error "line %d: unknown match kind %S" line other

let parse_table ctx st ~restriction ~id =
  let t_name = expect_id st in
  let t_id =
    match id with
    | Some id -> id
    | None -> List.length ctx.tables + 1
  in
  expect_punct st "{";
  expect_kw st "key";
  expect_punct st "=";
  expect_punct st "{";
  let keys = ref [] in
  while not (accept_punct st "}") do
    let k_expr = parse_expr st ~in_action:false in
    expect_punct st ":";
    let k_kind = kind_of_string (line st) (expect_id st) in
    let k_refers_to = ref None in
    let k_name = ref None in
    while accept_punct st "@" do
      match expect_id st with
      | "refers_to" ->
          expect_punct st "(";
          let tbl = expect_id st in
          expect_punct st ",";
          let key = expect_id st in
          expect_punct st ")";
          k_refers_to := Some (tbl, key)
      | "name" ->
          expect_punct st "(";
          k_name := Some (expect_str st);
          expect_punct st ")"
      | other -> error "line %d: unknown key annotation @%s" (line st) other
    done;
    expect_punct st ";";
    let k_name =
      match (!k_name, k_expr) with
      | Some n, _ -> n
      | None, E_field fr -> fr.fr_field
      | None, _ -> error "line %d: key needs a @name annotation" (line st)
    in
    keys := { k_name; k_expr; k_kind; k_refers_to = !k_refers_to } :: !keys
  done;
  expect_kw st "actions";
  expect_punct st "=";
  expect_punct st "{";
  let actions = ref [] in
  let rec go_actions () =
    actions := expect_id st :: !actions;
    if accept_punct st ";" then
      if accept_punct st "}" then () else go_actions ()
    else expect_punct st "}"
  in
  go_actions ();
  expect_kw st "const";
  expect_kw st "default_action";
  expect_punct st "=";
  let dname = expect_id st in
  expect_punct st "(";
  let dargs = ref [] in
  if not (accept_punct st ")") then begin
    let rec go () =
      (match peek st with
      | T_bv v -> advance st; dargs := v :: !dargs
      | _ -> error "line %d: default-action arguments must be width literals" (line st));
      if accept_punct st "," then go () else expect_punct st ")"
    in
    go ()
  end;
  expect_punct st ";";
  let t_selector =
    if accept_kw st "implementation" then begin
      expect_punct st "=";
      expect_kw st "action_selector";
      expect_punct st ";";
      true
    end
    else false
  in
  expect_kw st "size";
  expect_punct st "=";
  let t_size = expect_int st in
  expect_punct st ";";
  expect_punct st "}";
  ctx.tables <-
    { t_name; t_id; t_keys = List.rev !keys; t_actions = List.rev !actions;
      t_default_action = (dname, List.rev !dargs); t_size;
      t_entry_restriction = restriction; t_selector }
    :: ctx.tables

let apply_path path =
  match String.split_on_char '.' path with
  | [ tbl; "apply" ] -> Some tbl
  | _ -> None

let rec parse_control_body st =
  let items = ref [] in
  let rec go () =
    match peek st with
    | T_punct "}" -> advance st
    | T_id "if" ->
        advance st;
        expect_punct st "(";
        let cond = parse_bexpr st in
        expect_punct st ")";
        expect_punct st "{";
        let then_ = parse_control_body st in
        let else_ =
          if accept_kw st "else" then begin
            expect_punct st "{";
            parse_control_body st
          end
          else C_nop
        in
        items := C_if (cond, then_, else_) :: !items;
        go ()
    | T_id path when apply_path path <> None ->
        advance st;
        expect_punct st "(";
        expect_punct st ")";
        expect_punct st ";";
        items := C_table (Option.get (apply_path path)) :: !items;
        go ()
    | _ ->
        items := C_stmt (parse_stmt st ~in_action:false) :: !items;
        go ()
  in
  go ();
  Ast.seq (List.rev !items)

(* --- program ---------------------------------------------------------------------- *)

let parse ~name source =
  try
    let st = { toks = tokenize source; pos = 0 } in
    let ctx =
      { headers = []; meta_fields = []; parser_ = None; actions = []; tables = [];
        ingress = None; egress = None }
    in
    let pending_restriction = ref None in
    let pending_id = ref None in
    let rec go () =
      match peek st with
      | T_eof -> ()
      | T_punct "@" ->
          advance st;
          (match expect_id st with
          | "entry_restriction" ->
              expect_punct st "(";
              let text = expect_str st in
              expect_punct st ")";
              (match Constraint_lang.parse text with
              | Ok c -> pending_restriction := Some c
              | Error msg -> error "line %d: bad entry restriction: %s" (line st) msg)
          | "id" ->
              expect_punct st "(";
              pending_id := Some (expect_int st);
              expect_punct st ")"
          | other -> error "line %d: unknown annotation @%s" (line st) other);
          go ()
      | T_id "header" -> advance st; parse_header ctx st; go ()
      | T_id "struct" -> advance st; parse_metadata ctx st; go ()
      | T_id "parser" -> advance st; parse_parser ctx st; go ()
      | T_id "action" -> advance st; parse_action ctx st; go ()
      | T_id "table" ->
          advance st;
          parse_table ctx st ~restriction:!pending_restriction ~id:!pending_id;
          pending_restriction := None;
          pending_id := None;
          go ()
      | T_id "control" -> (
          advance st;
          let which = expect_id st in
          expect_punct st "{";
          let body = parse_control_body st in
          (match which with
          | "ingress" -> ctx.ingress <- Some body
          | "egress" -> ctx.egress <- Some body
          | other -> error "line %d: unknown control %S" (line st) other);
          go ())
      | T_id other -> error "line %d: unexpected declaration %S" (line st) other
      | _ -> error "line %d: unexpected token" (line st)
    in
    go ();
    let parser_ =
      match ctx.parser_ with
      | Some p -> p
      | None -> error "missing parser declaration"
    in
    Ok
      { p_name = name;
        p_headers = List.rev ctx.headers;
        p_metadata = ctx.meta_fields;
        p_parser = parser_;
        p_actions = List.rev ctx.actions;
        p_tables = List.rev ctx.tables;
        p_ingress = Option.value ~default:C_nop ctx.ingress;
        p_egress = Option.value ~default:C_nop ctx.egress }
  with Error msg -> Result.error msg

let parse_exn ~name source =
  match parse ~name source with
  | Ok p -> p
  | Error msg -> invalid_arg ("P4parser: " ^ msg)

let roundtrip p = parse ~name:p.p_name (Pretty.program_to_string p)
