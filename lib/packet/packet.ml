module Bitvec = Switchv_bitvec.Bitvec

type instance = { header : Header.t; values : (string * Bitvec.t) list }

type t = { headers : instance list; payload : string }

let empty = { headers = []; payload = "" }

let instance header values =
  let layout = header.Header.fields in
  if List.length layout <> List.length values then
    invalid_arg
      (Printf.sprintf "Packet.instance: %s expects %d fields, got %d"
         header.Header.name (List.length layout) (List.length values));
  let ordered =
    List.map
      (fun (f : Header.field) ->
        match List.assoc_opt f.f_name values with
        | None ->
            invalid_arg
              (Printf.sprintf "Packet.instance: missing field %s.%s"
                 header.Header.name f.f_name)
        | Some v ->
            if Bitvec.width v <> f.f_width then
              invalid_arg
                (Printf.sprintf "Packet.instance: %s.%s expects width %d, got %d"
                   header.Header.name f.f_name f.f_width (Bitvec.width v));
            (f.f_name, v))
      layout
  in
  { header; values = ordered }

let push t inst = { t with headers = t.headers @ [ inst ] }

let has_header t name =
  List.exists (fun i -> String.equal i.header.Header.name name) t.headers

let find_header t name =
  List.find_opt (fun i -> String.equal i.header.Header.name name) t.headers

let get t ~header ~field =
  match find_header t header with
  | None -> None
  | Some i -> List.assoc_opt field i.values

let get_exn t ~header ~field =
  match get t ~header ~field with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Packet.get_exn: no %s.%s" header field)

let set t ~header ~field v =
  match find_header t header with
  | None -> invalid_arg (Printf.sprintf "Packet.set: no header %s" header)
  | Some inst ->
      if not (List.mem_assoc field inst.values) then
        invalid_arg (Printf.sprintf "Packet.set: no field %s.%s" header field);
      let expected = Header.field_width inst.header field in
      if Bitvec.width v <> expected then
        invalid_arg (Printf.sprintf "Packet.set: %s.%s width mismatch" header field);
      let values =
        List.map (fun (f, old) -> if String.equal f field then (f, v) else (f, old))
          inst.values
      in
      let headers =
        List.map
          (fun i ->
            if String.equal i.header.Header.name header then { i with values } else i)
          t.headers
      in
      { t with headers }

let remove_header t name =
  let rec drop = function
    | [] -> []
    | i :: rest when String.equal i.header.Header.name name -> rest
    | i :: rest -> i :: drop rest
  in
  { t with headers = drop t.headers }

let serialize inst =
  match inst.values with
  | [] -> invalid_arg "Packet.serialize: empty instance"
  | (_, first) :: rest ->
      List.fold_left (fun acc (_, v) -> Bitvec.concat acc v) first rest

let to_bytes t =
  let header_bytes =
    List.map (fun inst -> Bitvec.to_bytes_be (serialize inst)) t.headers
  in
  String.concat "" header_bytes ^ t.payload

let equal a b =
  String.equal a.payload b.payload
  && List.length a.headers = List.length b.headers
  && List.for_all2
       (fun x y ->
         String.equal x.header.Header.name y.header.Header.name
         && List.for_all2
              (fun (f1, v1) (f2, v2) -> String.equal f1 f2 && Bitvec.equal v1 v2)
              x.values y.values)
       a.headers b.headers

let compare a b =
  (* Compare via the canonical wire form plus header names (wire form alone
     cannot distinguish header boundaries). *)
  let key t =
    (List.map (fun i -> i.header.Header.name) t.headers, to_bytes t)
  in
  Stdlib.compare (key a) (key b)

let hash t = Hashtbl.hash (List.map (fun i -> i.header.Header.name) t.headers, to_bytes t)

(* --- address parsing --------------------------------------------------- *)

let mac_of_string s =
  let parts = String.split_on_char ':' s in
  if List.length parts <> 6 then invalid_arg "Packet.mac_of_string: need 6 octets";
  List.fold_left
    (fun acc p ->
      let b = int_of_string ("0x" ^ p) in
      Bitvec.logor (Bitvec.shift_left acc 8)
        (Bitvec.of_int ~width:48 b))
    (Bitvec.zero 48) parts

let ipv4_of_string s =
  let parts = String.split_on_char '.' s in
  if List.length parts <> 4 then invalid_arg "Packet.ipv4_of_string: need 4 octets";
  List.fold_left
    (fun acc p ->
      Bitvec.logor (Bitvec.shift_left acc 8) (Bitvec.of_int ~width:32 (int_of_string p)))
    (Bitvec.zero 32) parts

let ipv6_of_string s =
  let expand s =
    match String.index_opt s ':' with
    | None -> invalid_arg "Packet.ipv6_of_string: not an IPv6 literal"
    | Some _ ->
        (match String.split_on_char ':' s with
        | groups ->
            (* Handle "::" by locating the empty group. *)
            let n_empty = List.length (List.filter (fun g -> g = "") groups) in
            if n_empty = 0 then groups
            else begin
              let rec split_at acc = function
                | "" :: rest -> (List.rev acc, List.filter (fun g -> g <> "") rest)
                | g :: rest -> split_at (g :: acc) rest
                | [] -> (List.rev acc, [])
              in
              let before, after = split_at [] groups in
              let before = List.filter (fun g -> g <> "") before in
              let missing = 8 - List.length before - List.length after in
              before @ List.init (max 0 missing) (fun _ -> "0") @ after
            end)
  in
  let groups = expand s in
  if List.length groups <> 8 then invalid_arg "Packet.ipv6_of_string: bad group count";
  List.fold_left
    (fun acc g ->
      Bitvec.logor (Bitvec.shift_left acc 16)
        (Bitvec.of_int ~width:128 (int_of_string ("0x" ^ g))))
    (Bitvec.zero 128) groups

(* --- builders ----------------------------------------------------------- *)

let ethernet_frame ?(src = "02:00:00:00:00:01") ?(dst = "02:00:00:00:00:02")
    ~ether_type () =
  instance Header.ethernet
    [ ("dst_addr", mac_of_string dst);
      ("src_addr", mac_of_string src);
      ("ether_type", Bitvec.of_int ~width:16 ether_type) ]

let ipv4_header ?(ttl = 64) ?(protocol = 17) ?(dscp = 0) ~src ~dst () =
  instance Header.ipv4
    [ ("version", Bitvec.of_int ~width:4 4);
      ("ihl", Bitvec.of_int ~width:4 5);
      ("dscp", Bitvec.of_int ~width:6 dscp);
      ("ecn", Bitvec.zero 2);
      ("total_len", Bitvec.of_int ~width:16 46);
      ("identification", Bitvec.zero 16);
      ("flags", Bitvec.zero 3);
      ("frag_offset", Bitvec.zero 13);
      ("ttl", Bitvec.of_int ~width:8 ttl);
      ("protocol", Bitvec.of_int ~width:8 protocol);
      ("header_checksum", Bitvec.zero 16);
      ("src_addr", ipv4_of_string src);
      ("dst_addr", ipv4_of_string dst) ]

let udp_header ~src_port ~dst_port () =
  instance Header.udp
    [ ("src_port", Bitvec.of_int ~width:16 src_port);
      ("dst_port", Bitvec.of_int ~width:16 dst_port);
      ("hdr_length", Bitvec.of_int ~width:16 26);
      ("checksum", Bitvec.zero 16) ]

let simple_ipv4 ?(ttl = 64) ~src ~dst () =
  { headers =
      [ ethernet_frame ~ether_type:0x0800 ();
        ipv4_header ~ttl ~src ~dst ();
        udp_header ~src_port:10000 ~dst_port:20000 () ];
    payload = "switchv-test-payload" }
