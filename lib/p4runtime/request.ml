type op = Insert | Modify | Delete

type update = { op : op; entry : Entry.t }

type write_request = { updates : update list }

type write_response = { statuses : Status.t list }

type read_response = { entries : Entry.t list }

type packet_out = { po_payload : Switchv_packet.Packet.t; po_egress_port : int option }

type packet_in = { pi_payload : Switchv_packet.Packet.t; pi_ingress_port : int }

let op_to_string = function Insert -> "INSERT" | Modify -> "MODIFY" | Delete -> "DELETE"

let pp_update fmt u = Format.fprintf fmt "%s %a" (op_to_string u.op) Entry.pp u.entry

let write_ok r = List.for_all Status.is_ok r.statuses

let insert entry = { op = Insert; entry }
let modify entry = { op = Modify; entry }
let delete entry = { op = Delete; entry }

let insert_batches entries =
  List.fold_left
    (fun acc (e : Entry.t) ->
      match acc with
      | (table, batch) :: rest when String.equal table e.e_table ->
          (table, insert e :: batch) :: rest
      | _ -> (e.e_table, [ insert e ]) :: acc)
    [] entries
  |> List.rev_map (fun (_, batch) -> List.rev batch)
