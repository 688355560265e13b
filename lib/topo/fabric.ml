module Interp = Switchv_bmv2.Interp
module Compile = Switchv_bmv2.Compile
module Stack = Switchv_switch.Stack
module Telemetry = Switchv_telemetry.Telemetry

type node = {
  n_id : int;
  n_crashed : unit -> bool;
  n_inject : ingress_port:int -> string -> Interp.behavior;
}

let drop_behavior bytes =
  { Interp.b_egress = None; b_punted = false; b_mirrors = [];
    b_packet = bytes; b_trace = [ ("<fabric>", "parse-failure: dropped") ] }

let cov_prefix = Switchv_p4ir.Ast.coverage_key ""

let stack_node id stack =
  let inject ~ingress_port bytes =
    (* Run under a scratch registry so this hop's counters can be both
       absorbed unchanged (global totals stay additive and fork-delta
       compatible) and re-emitted under the per-switch namespace. *)
    let ambient = Telemetry.get () in
    let scratch = Telemetry.create () in
    let b =
      Telemetry.with_registry scratch (fun () ->
          Stack.inject stack ~ingress_port bytes)
    in
    let ex = Telemetry.export scratch in
    Telemetry.absorb ambient ex;
    List.iter
      (fun (name, n) ->
        let pl = String.length cov_prefix in
        if String.length name > pl && String.sub name 0 pl = cov_prefix then
          Telemetry.incr ~n ambient
            (Printf.sprintf "topo.sw.%d.%s" id name))
      ex.Telemetry.ex_counters;
    b
  in
  { n_id = id; n_crashed = (fun () -> Stack.crashed stack); n_inject = inject }

let model_node id cfg =
  let inject ~ingress_port bytes =
    try Compile.run cfg ~ingress_port bytes
    with Interp.Parse_failure _ -> drop_behavior bytes
  in
  { n_id = id; n_crashed = (fun () -> false); n_inject = inject }

type hop = {
  h_switch : int;
  h_ingress : int;
  h_bytes_in : string;
  h_behavior : Interp.behavior;
}

type disposition =
  | Delivered of { d_switch : int; d_port : int; d_bytes : string }
  | Dropped of { d_switch : int; d_punted : bool }
  | Dead_hop of int
  | Budget_exhausted of int

type trace = { t_hops : hop list; t_disposition : disposition }

let default_budget topo = (4 * Topo.switches topo) + 8

(* [enter] processes arrival at a switch; [leave] follows the behavior's
   egress through the link table. The budget counts processed hops. *)
let run_loop topo (nodes : node array) ~start =
  let rec enter acc remaining sw port bytes =
    if nodes.(sw).n_crashed () then
      { t_hops = List.rev acc; t_disposition = Dead_hop sw }
    else if remaining <= 0 then
      { t_hops = List.rev acc; t_disposition = Budget_exhausted sw }
    else
      let b = nodes.(sw).n_inject ~ingress_port:port bytes in
      let hop =
        { h_switch = sw; h_ingress = port; h_bytes_in = bytes; h_behavior = b }
      in
      leave (hop :: acc) (remaining - 1) sw b
  and leave acc remaining sw (b : Interp.behavior) =
    match b.Interp.b_egress with
    | None ->
        { t_hops = List.rev acc;
          t_disposition = Dropped { d_switch = sw; d_punted = b.Interp.b_punted } }
    | Some out -> (
        match Topo.peer topo ~switch:sw ~port:out with
        | None ->
            { t_hops = List.rev acc;
              t_disposition =
                Delivered { d_switch = sw; d_port = out; d_bytes = b.Interp.b_packet } }
        | Some (next_sw, next_port) ->
            enter acc remaining next_sw next_port b.Interp.b_packet)
  in
  start enter leave

let forward ?budget topo nodes ~switch ~port bytes =
  let budget = match budget with Some b -> b | None -> default_budget topo in
  run_loop topo nodes ~start:(fun enter _leave ->
      enter [] budget switch port bytes)

let forward_from ?budget topo nodes ~switch ~ingress_port ~bytes behavior =
  let budget = match budget with Some b -> b | None -> default_budget topo in
  run_loop topo nodes ~start:(fun _enter leave ->
      if nodes.(switch).n_crashed () then
        { t_hops = []; t_disposition = Dead_hop switch }
      else
        let hop =
          { h_switch = switch; h_ingress = ingress_port; h_bytes_in = bytes;
            h_behavior = behavior }
        in
        leave [ hop ] (budget - 1) switch behavior)

let pp_disposition ppf = function
  | Delivered { d_switch; d_port; d_bytes } ->
      Format.fprintf ppf "delivered at sw%d port %d (%d bytes)" d_switch
        d_port (String.length d_bytes)
  | Dropped { d_switch; d_punted } ->
      Format.fprintf ppf "dropped at sw%d%s" d_switch
        (if d_punted then " (punted)" else "")
  | Dead_hop sw -> Format.fprintf ppf "dead hop at crashed sw%d" sw
  | Budget_exhausted sw ->
      Format.fprintf ppf "hop budget exhausted at sw%d (forwarding loop)" sw

