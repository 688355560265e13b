type t = { value : Bitvec.t; len : int }

let canonicalize v len =
  Bitvec.logand v (Bitvec.prefix_mask ~width:(Bitvec.width v) len)

let make v len =
  if len < 0 || len > Bitvec.width v then invalid_arg "Prefix.make: bad length";
  { value = canonicalize v len; len }

let width t = Bitvec.width t.value
let value t = t.value
let len t = t.len

let matches t v =
  Bitvec.equal t.value (canonicalize v t.len)

let is_canonical v len = Bitvec.equal v (canonicalize v len)

let full v = { value = v; len = Bitvec.width v }
let any w = make (Bitvec.zero w) 0

let subsumes a b =
  a.len <= b.len && matches a b.value

let equal a b = a.len = b.len && Bitvec.equal a.value b.value

let of_ipv4_string s =
  let base, plen =
    match String.index_opt s '/' with
    | Some i ->
        ( String.sub s 0 i,
          int_of_string (String.sub s (i + 1) (String.length s - i - 1)) )
    | None -> (s, -1)
  in
  let octets = String.split_on_char '.' base in
  if List.length octets <> 4 then invalid_arg "Prefix.of_ipv4_string: need 4 octets";
  (* Wildcard octets ("*") determine the prefix length when no /len given. *)
  let value = ref (Bitvec.zero 32) in
  let inferred_len = ref 32 in
  List.iteri
    (fun i oct ->
      if oct = "*" then begin
        if !inferred_len > i * 8 then inferred_len := i * 8
      end
      else begin
        let n = int_of_string oct in
        if n < 0 || n > 255 then invalid_arg "Prefix.of_ipv4_string: octet out of range";
        value :=
          Bitvec.logor !value
            (Bitvec.shift_left (Bitvec.of_int ~width:32 n) ((3 - i) * 8))
      end)
    octets;
  let plen = if plen >= 0 then plen else !inferred_len in
  make !value plen

let to_ipv4_string t =
  let octet i = Bitvec.to_int_exn (Bitvec.extract ~hi:(i + 7) ~lo:i t.value) in
  Printf.sprintf "%d.%d.%d.%d/%d" (octet 24) (octet 16) (octet 8) (octet 0) t.len
