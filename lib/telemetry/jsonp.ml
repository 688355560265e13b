type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Fail of int * string

let parse input =
  let n = String.length input in
  let pos = ref 0 in
  let fail msg = raise (Fail (!pos, msg)) in
  let peek () = if !pos < n then Some input.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && (match input.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub input !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let digit c =
      match c with
      | '0' .. '9' -> Char.code c - Char.code '0'
      | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
      | _ -> fail "bad \\u escape"
    in
    let v = ref 0 in
    for i = !pos to !pos + 3 do
      v := (!v lsl 4) lor digit input.[i]
    done;
    pos := !pos + 4;
    !v
  in
  let utf8 buf code =
    (* Encode one code point (surrogate pairs already combined). *)
    if code < 0x80 then Buffer.add_char buf (Char.chr code)
    else if code < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
    else if code < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xF0 lor (code lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
  in
  let string_body () =
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = input.[!pos] in
      advance ();
      match c with
      | '"' -> Buffer.contents buf
      | '\\' -> (
          if !pos >= n then fail "unterminated escape";
          let e = input.[!pos] in
          advance ();
          (match e with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'u' ->
              let code = hex4 () in
              let code =
                if code >= 0xD800 && code <= 0xDBFF then begin
                  (* high surrogate: must be followed by \uDC00-\uDFFF *)
                  if
                    !pos + 2 <= n && input.[!pos] = '\\' && input.[!pos + 1] = 'u'
                  then begin
                    pos := !pos + 2;
                    let low = hex4 () in
                    if low < 0xDC00 || low > 0xDFFF then fail "lone high surrogate";
                    0x10000 + (((code - 0xD800) lsl 10) lor (low - 0xDC00))
                  end
                  else fail "lone high surrogate"
                end
                else if code >= 0xDC00 && code <= 0xDFFF then fail "lone low surrogate"
                else code
              in
              utf8 buf code
          | _ -> fail "bad escape");
          go ())
      | c when Char.code c < 0x20 -> fail "control character in string"
      | c ->
          Buffer.add_char buf c;
          go ()
    in
    go ()
  in
  (* RFC 8259: an optional minus, 0 or a digit run not starting with 0,
     then an optional fraction and an optional exponent. *)
  let number () =
    let start = !pos in
    let digits () =
      let first = !pos in
      while !pos < n && match input.[!pos] with '0' .. '9' -> true | _ -> false do
        advance ()
      done;
      if !pos = first then fail "expected digit"
    in
    if peek () = Some '-' then advance ();
    if peek () = Some '0' then advance () else digits ();
    if peek () = Some '.' then begin
      advance ();
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ()
    | _ -> ());
    Num (float_of_string (String.sub input start (!pos - start)))
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let fields = ref [] in
          let rec fields_loop () =
            skip_ws ();
            expect '"';
            let key = string_body () in
            skip_ws ();
            expect ':';
            let v = value () in
            fields := (key, v) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                fields_loop ()
            | Some '}' -> advance ()
            | _ -> fail "expected ',' or '}'"
          in
          fields_loop ();
          Obj (List.rev !fields)
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let items = ref [] in
          let rec items_loop () =
            let v = value () in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items_loop ()
            | Some ']' -> advance ()
            | _ -> fail "expected ',' or ']'"
          in
          items_loop ();
          Arr (List.rev !items)
        end
    | Some '"' ->
        advance ();
        Str (string_body ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> number ()
    | Some c -> fail (Printf.sprintf "unexpected %C" c)
  in
  match
    let v = value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Fail (off, msg) -> Error (Printf.sprintf "at byte %d: %s" off msg)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_str = function Str s -> Some s | _ -> None

let to_int = function
  | Num f when Float.is_integer f && Float.abs f <= 2. ** 52. ->
      Some (int_of_float f)
  | _ -> None

let to_num = function Num f -> Some f | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
let to_arr = function Arr xs -> Some xs | _ -> None
