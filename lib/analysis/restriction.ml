module P4info = Switchv_p4ir.P4info
module Bdd = Switchv_p4constraints.Bdd

let unsat_tables program =
  List.filter_map
    (fun (ti : P4info.table) ->
      match P4info.restriction_bdd ti with
      | Some compiled when Bdd.model_count compiled = 0. -> Some ti.ti_name
      | _ -> None)
    (P4info.of_program program).pi_tables
