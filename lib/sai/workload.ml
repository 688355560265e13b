module Ast = Switchv_p4ir.Ast
module P4info = Switchv_p4ir.P4info
module Bitvec = Switchv_bitvec.Bitvec
module Prefix = Switchv_bitvec.Prefix
module Ternary = Switchv_bitvec.Ternary
module Rng = Switchv_bitvec.Rng
module Entry = Switchv_p4runtime.Entry

type profile = {
  vrfs : int;
  rifs : int;
  neighbors : int;
  nexthops : int;
  wcmp_groups : int;
  ipv4_routes : int;
  ipv6_routes : int;
  acl_pre : int;
  acl_ingress : int;
  acl_egress : int;
  mirror_sessions : int;
  l3_admits : int;
  tunnels : int;
  egress_rifs : int;
}

let total p =
  p.vrfs + p.rifs + p.neighbors + p.nexthops + p.wcmp_groups + p.ipv4_routes
  + p.ipv6_routes + p.acl_pre + p.acl_ingress + p.acl_egress + p.mirror_sessions
  + p.l3_admits + p.tunnels + p.egress_rifs

let inst1 =
  { vrfs = 4; rifs = 16; neighbors = 32; nexthops = 64; wcmp_groups = 16;
    ipv4_routes = 384; ipv6_routes = 200; acl_pre = 16; acl_ingress = 32;
    acl_egress = 8; mirror_sessions = 2; l3_admits = 8; tunnels = 0;
    egress_rifs = 16 }

let inst2 =
  { vrfs = 8; rifs = 24; neighbors = 48; nexthops = 96; wcmp_groups = 24;
    ipv4_routes = 576; ipv6_routes = 400; acl_pre = 24; acl_ingress = 48;
    acl_egress = 12; mirror_sessions = 4; l3_admits = 10; tunnels = 16;
    egress_rifs = 24 }

let small =
  { vrfs = 2; rifs = 3; neighbors = 4; nexthops = 6; wcmp_groups = 2;
    ipv4_routes = 20; ipv6_routes = 10; acl_pre = 3; acl_ingress = 4;
    acl_egress = 2; mirror_sessions = 1; l3_admits = 2; tunnels = 2;
    egress_rifs = 3 }

let scaled f p =
  let s n = if n = 0 then 0 else max 1 (int_of_float (float_of_int n *. f)) in
  { vrfs = s p.vrfs; rifs = s p.rifs; neighbors = s p.neighbors;
    nexthops = s p.nexthops; wcmp_groups = s p.wcmp_groups;
    ipv4_routes = s p.ipv4_routes; ipv6_routes = s p.ipv6_routes;
    acl_pre = s p.acl_pre; acl_ingress = s p.acl_ingress;
    acl_egress = s p.acl_egress; mirror_sessions = s p.mirror_sessions;
    l3_admits = s p.l3_admits; tunnels = s p.tunnels;
    egress_rifs = s p.egress_rifs }

let bv16 n = Bitvec.of_int ~width:16 n
let exact16 n = Entry.M_exact (bv16 n)

let single name args = Entry.Single { ai_name = name; ai_args = args }

let fm field value = { Entry.fm_field = field; fm_value = value }

let generate ?(seed = 1) (program : Ast.program) profile =
  (* Tables are looked up in the program itself: building its P4info
     would cost more than the whole lookup work here. *)
  let find_table name =
    List.find_opt (fun (t : Ast.table) -> String.equal t.t_name name) program.p_tables
  in
  let rng = Rng.create seed in
  let has table = Option.is_some (find_table table) in
  let out = ref [] in
  (* A model may name a table without offering every action the role
     models give it (a textual [-f] model): such an entry is dropped, after
     its draws, so the entries that remain are the ones the role models
     would get. Entries come table by table, so each run's table is looked
     up once. *)
  let table = ref ("", None) in
  let offers (e : Entry.t) =
    if not (String.equal (fst !table) e.e_table) then
      table := (e.e_table, Option.map (fun (t : Ast.table) -> t.t_actions) (find_table e.e_table));
    let offered (ai : Entry.action_invocation) = List.exists (String.equal ai.ai_name) in
    match (snd !table, e.e_action) with
    | None, _ -> false
    | Some actions, Entry.Single ai -> offered ai actions
    | Some actions, Entry.Weighted ais -> List.for_all (fun (ai, _) -> offered ai actions) ais
  in
  let emit e = if offers e then out := e :: !out in

  (* ids are 1-based; 0 is reserved (matches the entry restrictions). *)
  let vrf_ids = List.init profile.vrfs (fun i -> i + 1) in
  let rif_ids = List.init profile.rifs (fun i -> i + 1) in
  let neighbor_ids = List.init profile.neighbors (fun i -> i + 1) in
  let nexthop_ids = List.init profile.nexthops (fun i -> i + 1) in
  let wcmp_ids = List.init profile.wcmp_groups (fun i -> i + 1) in
  let mirror_ids = List.init profile.mirror_sessions (fun i -> i + 1) in
  let tunnel_ids = List.init profile.tunnels (fun i -> i + 1) in

  let rand_mac () = Rng.bitvec rng 48 in
  let rand_port () = 1 + Rng.int rng 32 in

  (* Keep the last object of each kind unreferenced ("spare"), so that
     delete-path behaviour on deletable entries is exercisable. *)
  let referencable ids =
    match ids with [] -> [] | [ x ] -> [ x ] | _ -> List.filteri (fun i _ -> i < List.length ids - 1) ids
  in
  (* Routes live in the first ("default") VRF so that the pre-ingress ACL
     catch-all makes them reachable to generated packets; further VRFs
     exist to exercise allocation, references, and deletion. *)
  let route_vrfs = (match vrf_ids with [] -> [] | v :: _ -> [ v ]) in
  let other_vrfs = referencable vrf_ids in
  let usable_nexthops = referencable nexthop_ids in

  if has "vrf_table" then
    List.iter
      (fun id ->
        emit
          (Entry.make ~table:"vrf_table"
             ~matches:[ fm "vrf_id" (exact16 id) ]
             (single "no_action" [])))
      vrf_ids;

  let rif_ports = Hashtbl.create 16 in
  if has "router_interface_table" then
    List.iter
      (fun id ->
        let port = rand_port () in
        Hashtbl.replace rif_ports id port;
        emit
          (Entry.make ~table:"router_interface_table"
             ~matches:[ fm "router_interface_id" (exact16 id) ]
             (single "set_port_and_src_mac" [ bv16 port; rand_mac () ])))
      rif_ids;

  if has "neighbor_table" && rif_ids <> [] then
    List.iter
      (fun id ->
        let rif = List.nth rif_ids (Rng.int rng (List.length rif_ids)) in
        emit
          (Entry.make ~table:"neighbor_table"
             ~matches:[ fm "router_interface_id" (exact16 rif); fm "neighbor_id" (exact16 id) ]
             (single "set_dst_mac" [ rand_mac () ])))
      neighbor_ids;

  if has "nexthop_table" && rif_ids <> [] && neighbor_ids <> [] then
    List.iter
      (fun id ->
        let rif = Rng.choose rng rif_ids in
        let nb = Rng.choose rng neighbor_ids in
        emit
          (Entry.make ~table:"nexthop_table"
             ~matches:[ fm "nexthop_id" (exact16 id) ]
             (single "set_ip_nexthop" [ bv16 rif; bv16 nb ])))
      nexthop_ids;

  if has "wcmp_group_table" && nexthop_ids <> [] then
    List.iter
      (fun id ->
        let members = 2 + Rng.int rng 3 in
        let actions =
          List.init members (fun _ ->
              ( { Entry.ai_name = "set_nexthop_id";
                  ai_args = [ bv16 (Rng.choose rng (if usable_nexthops <> [] then usable_nexthops else nexthop_ids)) ] },
                1 + Rng.int rng 4 ))
        in
        emit
          (Entry.make ~table:"wcmp_group_table"
             ~matches:[ fm "wcmp_group_id" (exact16 id) ]
             (Entry.Weighted actions)))
      wcmp_ids;

  if has "mirror_session_table" then
    List.iter
      (fun id ->
        emit
          (Entry.make ~table:"mirror_session_table"
             ~matches:[ fm "mirror_session_id" (exact16 id) ]
             (single "set_port_and_src_mac" [ bv16 (rand_port ()); rand_mac () ])))
      mirror_ids;

  if has "tunnel_table" then
    List.iter
      (fun id ->
        emit
          (Entry.make ~table:"tunnel_table"
             ~matches:[ fm "tunnel_id" (exact16 id) ]
             (single "set_gre_encap" [ Rng.bitvec rng 32 ])))
      tunnel_ids;

  if has "decap_table" then
    (* Decap tunnels terminating inside routed space (10.0.<i>.0/24), so a
       decapped packet keeps forwarding and the GRE header's presence is
       observable on the wire. *)
    List.iter
      (fun id ->
        let dst =
          Ternary.of_prefix
            (Prefix.make
               (Bitvec.logor
                  (Bitvec.shift_left (Bitvec.of_int ~width:32 10) 24)
                  (Bitvec.shift_left (Bitvec.of_int ~width:32 id) 8))
               24)
        in
        emit
          (Entry.make ~table:"decap_table" ~priority:id
             ~matches:[ fm "dst_ip" (Entry.M_ternary dst) ]
             (single "gre_decap" [])))
      tunnel_ids;

  (* Route actions: mostly nexthops, some WCMP groups, a few drops, and (when
     available) a few tunnels. *)
  let route_action () =
    let r = Rng.int rng 100 in
    if r < 10 then single "drop" []
    else if r < 20 && wcmp_ids <> [] && has "wcmp_group_table" then
      single "set_wcmp_group_id" [ bv16 (Rng.choose rng wcmp_ids) ]
    else if r < 25 && tunnel_ids <> [] && usable_nexthops <> [] && has "tunnel_table" then
      single "set_tunnel_id"
        [ bv16 (Rng.choose rng tunnel_ids); bv16 (Rng.choose rng usable_nexthops) ]
    else if usable_nexthops <> [] then
      single "set_nexthop_id" [ bv16 (Rng.choose rng usable_nexthops) ]
    else single "drop" []
  in

  if has "ipv4_table" && route_vrfs <> [] then
    for i = 0 to profile.ipv4_routes - 1 do
      let vrf = List.nth route_vrfs (i mod List.length route_vrfs) in
      (* Unique prefixes: mostly /24 under 10.0.0.0/8 with the index encoded
         in octets 2-3; every 16th route is a shorter prefix under a
         distinct /8 to exercise LPM priority. *)
      let prefix =
        if i mod 16 = 15 then
          Prefix.make
            (Bitvec.shift_left (Bitvec.of_int ~width:32 (20 + (i / 16))) 24)
            8
        else
          let v =
            Bitvec.logor
              (Bitvec.shift_left (Bitvec.of_int ~width:32 10) 24)
              (Bitvec.shift_left (Bitvec.of_int ~width:32 (i land 0xFFFF)) 8)
          in
          Prefix.make v 24
      in
      emit
        (Entry.make ~table:"ipv4_table"
           ~matches:[ fm "vrf_id" (exact16 vrf); fm "ipv4_dst" (Entry.M_lpm prefix) ]
           (route_action ()))
    done;

  if has "ipv6_table" && route_vrfs <> [] then
    for i = 0 to profile.ipv6_routes - 1 do
      let vrf = List.nth route_vrfs (i mod List.length route_vrfs) in
      (* 2001:db8:<i>::/48 — unique per index. *)
      let v =
        Bitvec.logor
          (Bitvec.shift_left (Bitvec.of_hex_string ~width:128 "20010db8") 96)
          (Bitvec.shift_left (Bitvec.of_int ~width:128 i) 80)
      in
      emit
        (Entry.make ~table:"ipv6_table"
           ~matches:[ fm "vrf_id" (exact16 vrf); fm "ipv6_dst" (Entry.M_lpm (Prefix.make v 48)) ]
           (route_action ()))
    done;

  let tern1 v = Entry.M_ternary (Ternary.exact (Bitvec.of_int ~width:1 v)) in

  if has "acl_pre_ingress_table" && route_vrfs <> [] then begin
    (* Catch-alls route IPv4/IPv6 traffic into the default VRF (priorities
       1-2); the remaining entries steer specific /8s into other VRFs. *)
    let default_vrf = List.hd route_vrfs in
    emit
      (Entry.make ~table:"acl_pre_ingress_table" ~priority:1
         ~matches:[ fm "is_ipv4" (tern1 1) ]
         (single "set_vrf" [ bv16 default_vrf ]));
    emit
      (Entry.make ~table:"acl_pre_ingress_table" ~priority:2
         ~matches:[ fm "is_ipv6" (tern1 1) ]
         (single "set_vrf" [ bv16 default_vrf ]));
    for i = 0 to profile.acl_pre - 3 do
      let dst =
        Ternary.of_prefix
          (Prefix.make
             (Bitvec.shift_left (Bitvec.of_int ~width:32 (100 + i)) 24)
             8)
      in
      let vrf =
        if other_vrfs = [] then default_vrf else Rng.choose rng other_vrfs
      in
      emit
        (Entry.make ~table:"acl_pre_ingress_table" ~priority:(i + 10)
           ~matches:[ fm "is_ipv4" (tern1 1); fm "dst_ip" (Entry.M_ternary dst) ]
           (single "set_vrf" [ bv16 vrf ]))
    done
  end;

  (* The ingress ACL's key set is role-specific; match only on keys every
     role has (is_ipv4) plus dst_ip when present, staying inside each
     role's entry restriction. *)
  (let gen_acl table count =
     match find_table table with
     | None -> ()
     | Some t ->
         for i = 0 to count - 1 do
           (* ACL targets live under 150.0.0.0/8 and up — disjoint from the
              routed space (10/8, 20-60/8), so ACL drops never blanket the
              route workload's forwarding behaviour. *)
           let matches =
             [ fm "is_ipv4" (tern1 1) ]
             @
             match List.find_opt (fun (k : Ast.key) -> String.equal k.k_name "dst_ip") t.t_keys with
             | Some _ ->
                 let dst =
                   Ternary.of_prefix
                     (Prefix.make
                        (Bitvec.shift_left (Bitvec.of_int ~width:32 (150 + (i mod 100))) 24)
                        8)
                 in
                 [ fm "dst_ip" (Entry.M_ternary dst) ]
             | None -> []
           in
           let action =
             match i mod 5 with
             | 0 -> single "drop" []
             | 1 -> single "acl_trap" []
             | 2 -> single "acl_copy" []
             | 3 when mirror_ids <> [] ->
                 single "acl_mirror" [ bv16 (Rng.choose rng mirror_ids) ]
             | _ -> single "no_action" []
           in
           emit (Entry.make ~table ~priority:(i + 1) ~matches action)
         done
   in
   gen_acl "acl_ingress_table" profile.acl_ingress;
   gen_acl "acl_ingress_qos_table" 0);

  (if has "acl_egress_table" then begin
     (* One entry drops IPv6 leaving a real RIF port (observable via the
        IPv6 routes without touching the IPv4 workload); the rest match
        exotic ether types. *)
     let ports = Hashtbl.fold (fun _ p acc -> p :: acc) rif_ports [] in
     for i = 0 to profile.acl_egress - 1 do
       let matches =
         if i = 0 && ports <> [] then
           [ fm "out_port"
               (Entry.M_ternary (Ternary.exact (Bitvec.of_int ~width:16 (List.hd ports))));
             fm "ether_type"
               (Entry.M_ternary (Ternary.exact (Bitvec.of_int ~width:16 0x86DD))) ]
         else
           [ fm "ether_type"
               (Entry.M_ternary (Ternary.exact (Bitvec.of_int ~width:16 (0x9100 + i)))) ]
       in
       emit
         (Entry.make ~table:"acl_egress_table" ~priority:(i + 1) ~matches
            (single (if i = 0 then "drop" else "no_action") []))
     done
   end);

  if has "egress_router_interface_table" && rif_ids <> [] then
    (* Egress replicas of the first [egress_rifs] RIFs, rewriting the
       source MAC (observable on every forwarded packet through them). *)
    List.iteri
      (fun i id ->
        if i < profile.egress_rifs then
          emit
            (Entry.make ~table:"egress_router_interface_table"
               ~matches:[ fm "router_interface_id" (exact16 id) ]
               (single "egress_set_src_mac" [ rand_mac () ])))
      rif_ids;

  if has "l3_admit_table" then
    for i = 0 to profile.l3_admits - 1 do
      emit
        (Entry.make ~table:"l3_admit_table" ~priority:(i + 1)
           ~matches:
             [ fm "dst_mac"
                 (Entry.M_ternary
                    (Ternary.exact
                       (Bitvec.of_int64 ~width:48 (Int64.of_int (0x020000000000 + i))))) ]
           (single "l3_admit" []))
    done;

  List.rev !out

let mirror_map entries =
  List.filter_map
    (fun (e : Entry.t) ->
      if String.equal e.e_table "mirror_session_table" then
        match (Entry.find_match e "mirror_session_id", e.e_action) with
        | Some (Entry.M_exact id), Entry.Single { ai_name = "set_port_and_src_mac"; ai_args = port :: _ } ->
            Some (Bitvec.to_int_exn id, Bitvec.to_int_exn port)
        | _ -> None
      else None)
    entries

(* --- scale workloads -------------------------------------------------------

   Million-entry variants for the indexed-match / staged-evaluator bench:
   a referencable nexthop chain of fixed (small) size, then [n] unique
   routes or ACL entries. Kept separate from [generate] because the
   point is to stress one table's entry count, not the object-graph mix. *)

let scale_routes ?(seed = 7) ?(nexthops = 16) (program : Ast.program) n =
  let info = P4info.of_program program in
  let rng = Rng.create seed in
  let has table = P4info.find_table info table <> None in
  let out = ref [] in
  let emit e = out := e :: !out in
  let nh_ids = List.init (max 1 nexthops) (fun i -> i + 1) in
  if has "vrf_table" then
    emit
      (Entry.make ~table:"vrf_table"
         ~matches:[ fm "vrf_id" (exact16 1) ]
         (single "no_action" []));
  if has "router_interface_table" then
    List.iter
      (fun id ->
        emit
          (Entry.make ~table:"router_interface_table"
             ~matches:[ fm "router_interface_id" (exact16 id) ]
             (single "set_port_and_src_mac"
                [ bv16 (1 + (id mod 32)); Rng.bitvec rng 48 ])))
      nh_ids;
  if has "neighbor_table" then
    List.iter
      (fun id ->
        emit
          (Entry.make ~table:"neighbor_table"
             ~matches:
               [ fm "router_interface_id" (exact16 id);
                 fm "neighbor_id" (exact16 id) ]
             (single "set_dst_mac" [ Rng.bitvec rng 48 ])))
      nh_ids;
  if has "nexthop_table" then
    List.iter
      (fun id ->
        emit
          (Entry.make ~table:"nexthop_table"
             ~matches:[ fm "nexthop_id" (exact16 id) ]
             (single "set_ip_nexthop" [ bv16 id; bv16 id ])))
      nh_ids;
  (* Make the routes reachable: classify IPv4 into VRF 1 and L3-admit the
     bench's destination MAC, as [generate] does. *)
  if has "acl_pre_ingress_table" then
    emit
      (Entry.make ~table:"acl_pre_ingress_table" ~priority:1
         ~matches:
           [ fm "is_ipv4"
               (Entry.M_ternary (Ternary.exact (Bitvec.of_int ~width:1 1))) ]
         (single "set_vrf" [ bv16 1 ]));
  if has "l3_admit_table" then
    emit
      (Entry.make ~table:"l3_admit_table" ~priority:1
         ~matches:
           [ fm "dst_mac"
               (Entry.M_ternary
                  (Ternary.exact
                     (Bitvec.of_int64 ~width:48 (Int64.of_int 0x020000000A01)))) ]
         (single "l3_admit" []));
  (* Unique /24s: first octet 10 + (i lsr 16) — sixteen /8s cover 2^20
     routes — octets 2-3 carry the low 16 index bits. *)
  if has "ipv4_table" then
    for i = 0 to n - 1 do
      let v =
        Bitvec.logor
          (Bitvec.shift_left (Bitvec.of_int ~width:32 (10 + (i lsr 16))) 24)
          (Bitvec.shift_left (Bitvec.of_int ~width:32 (i land 0xFFFF)) 8)
      in
      emit
        (Entry.make ~table:"ipv4_table"
           ~matches:
             [ fm "vrf_id" (exact16 1);
               fm "ipv4_dst" (Entry.M_lpm (Prefix.make v 24)) ]
           (single "set_nexthop_id"
              [ bv16 (1 + (i mod List.length nh_ids)) ]))
    done;
  List.rev !out
