module Ast = Switchv_p4ir.Ast
module Bitvec = Switchv_bitvec.Bitvec
module Header = Switchv_packet.Header
module FMap = Map.Make (String)

type value = Top | Range of int * int

(* Ranges are plain OCaml ints; fields wider than this are not tracked.
   62 leaves headroom so [mask] and concatenation never overflow. *)
let max_width = 62

let mask w = (1 lsl w) - 1

(* A fact maps [field_ref_to_string] keys to abstract values; keys absent
   from the map are Top, so we normalise by never storing Top. *)
type fact = value FMap.t

let value_of fact fr =
  match FMap.find_opt (Ast.field_ref_to_string fr) fact with
  | Some v -> v
  | None -> Top

let set fact fr v =
  let key = Ast.field_ref_to_string fr in
  match v with Top -> FMap.remove key fact | Range _ -> FMap.add key v fact

module Domain = struct
  type t = fact

  let equal = FMap.equal ( = )

  let join a b =
    FMap.merge
      (fun _ x y ->
        match (x, y) with
        | Some (Range (la, ha)), Some (Range (lb, hb)) ->
            Some (Range (min la lb, max ha hb))
        | _ -> None (* either side Top *))
      a b

  (* Keys changing value drop straight to Top: intervals over bounded
     widths would converge anyway, this just caps iteration on cycles. *)
  let widen a b =
    FMap.merge
      (fun _ x y ->
        match (x, y) with
        | Some va, Some vb when va = vb -> Some va
        | _ -> None)
      a b
end

module F = Dataflow.Forward (Domain)

(* ---- expression evaluation ---- *)

let const_value c =
  if Bitvec.width c > max_width then Top
  else match Bitvec.to_int c with Some n -> Range (n, n) | None -> Top

let width_opt program aopt e =
  match Ast.expr_width program aopt e with
  | w -> if w > max_width then None else Some w
  | exception _ -> None

let rec eval program aopt env fact e =
  let width () = width_opt program aopt e in
  match e with
  | Ast.E_const c -> const_value c
  | Ast.E_field fr -> (
      match Ast.field_width program fr with
      | w when w > max_width -> Top
      | _ -> value_of fact fr
      | exception Not_found -> Top)
  | Ast.E_param p -> ( match FMap.find_opt p env with Some v -> v | None -> Top)
  | Ast.E_not a -> (
      match (width (), eval program aopt env fact a) with
      | Some w, Range (lo, hi) -> Range (mask w - hi, mask w - lo)
      | _ -> Top)
  | Ast.E_and (a, b) -> (
      match (eval program aopt env fact a, eval program aopt env fact b) with
      | Range (_, ha), Range (_, hb) -> Range (0, min ha hb)
      | Range (_, h), Top | Top, Range (_, h) -> Range (0, h)
      | Top, Top -> Top)
  | Ast.E_or (a, b) -> (
      match (width (), eval program aopt env fact a, eval program aopt env fact b)
      with
      | Some w, Range (la, _), Range (lb, _) -> Range (max la lb, mask w)
      | _ -> Top)
  | Ast.E_xor _ | Ast.E_hash _ -> Top
  | Ast.E_add (a, b) -> (
      match (width (), eval program aopt env fact a, eval program aopt env fact b)
      with
      | Some w, Range (la, ha), Range (lb, hb) when ha + hb <= mask w ->
          Range (la + lb, ha + hb)
      | _ -> Top (* may wrap *))
  | Ast.E_sub (a, b) -> (
      match (eval program aopt env fact a, eval program aopt env fact b) with
      | Range (la, ha), Range (lb, hb) when la >= hb ->
          Range (la - hb, ha - lb)
      | _ -> Top (* may wrap *))
  | Ast.E_slice (hi, lo, a) -> (
      match eval program aopt env fact a with
      | Range (l, h) when lo = 0 && hi - lo + 1 <= max_width && h <= mask (hi + 1)
        ->
          Range (l, h)
      | _ -> Top)
  | Ast.E_concat (a, b) -> (
      match
        (width (), width_opt program aopt b, eval program aopt env fact a,
         eval program aopt env fact b)
      with
      | Some _, Some wb, Range (la, ha), Range (lb, hb) ->
          Range ((la lsl wb) + lb, (ha lsl wb) + hb)
      | _ -> Top)

(* ---- condition evaluation (three-valued) ---- *)

let disjoint (la, ha) (lb, hb) = ha < lb || hb < la

let rec eval_bexpr program vfact env fact cond =
  let ev = eval program None env fact in
  match cond with
  | Ast.B_true -> Some true
  | Ast.B_false -> Some false
  | Ast.B_is_valid h -> (
      match Validity.valid_at vfact h with
      | Validity.Must_valid -> Some true
      | Validity.Must_invalid -> Some false
      | Validity.Maybe -> None)
  | Ast.B_eq (a, b) -> (
      match (ev a, ev b) with
      | Range (la, ha), Range (lb, hb) ->
          if la = ha && lb = hb && la = lb then Some true
          else if disjoint (la, ha) (lb, hb) then Some false
          else None
      | _ -> None)
  | Ast.B_ne (a, b) ->
      Option.map not (eval_bexpr program vfact env fact (Ast.B_eq (a, b)))
  | Ast.B_ult (a, b) -> (
      match (ev a, ev b) with
      | Range (_, ha), Range (lb, _) when ha < lb -> Some true
      | Range (la, _), Range (_, hb) when la >= hb -> Some false
      | _ -> None)
  | Ast.B_ule (a, b) -> (
      match (ev a, ev b) with
      | Range (_, ha), Range (lb, _) when ha <= lb -> Some true
      | Range (la, _), Range (_, hb) when la > hb -> Some false
      | _ -> None)
  | Ast.B_not c -> Option.map not (eval_bexpr program vfact env fact c)
  | Ast.B_and (a, b) -> (
      match
        (eval_bexpr program vfact env fact a, eval_bexpr program vfact env fact b)
      with
      | Some false, _ | _, Some false -> Some false
      | Some true, Some true -> Some true
      | _ -> None)
  | Ast.B_or (a, b) -> (
      match
        (eval_bexpr program vfact env fact a, eval_bexpr program vfact env fact b)
      with
      | Some true, _ | _, Some true -> Some true
      | Some false, Some false -> Some false
      | _ -> None)

(* ---- edge refinement ---- *)

let meet fact fr (lo, hi) =
  match Ast.field_ref_to_string fr |> fun k -> FMap.find_opt k fact with
  | Some (Range (l, h)) ->
      let l' = max l lo and h' = min h hi in
      if l' > h' then fact (* contradiction; edge killing already handled *)
      else set fact fr (Range (l', h'))
  | _ -> if lo > hi then fact else set fact fr (Range (lo, hi))

let as_field_const program a b =
  let const c =
    if Bitvec.width c > max_width then None else Bitvec.to_int c
  in
  let wide fr =
    match Ast.field_width program fr with
    | w -> w > max_width
    | exception Not_found -> true
  in
  match (a, b) with
  | Ast.E_field fr, Ast.E_const c when not (wide fr) ->
      Option.map (fun n -> (`Field_const (fr, n), Bitvec.width c)) (const c)
  | Ast.E_const c, Ast.E_field fr when not (wide fr) ->
      Option.map (fun n -> (`Const_field (n, fr), Bitvec.width c)) (const c)
  | _ -> None

(* [refine pol cond fact]: intersect field intervals with what the chosen
   edge of the branch implies. *)
let rec refine program pol cond fact =
  match cond with
  | Ast.B_not c -> refine program (not pol) c fact
  | Ast.B_and (a, b) when pol ->
      refine program true b (refine program true a fact)
  | Ast.B_or (a, b) when not pol ->
      refine program false b (refine program false a fact)
  | Ast.B_eq (a, b) -> (
      match as_field_const program a b with
      | Some ((`Field_const (fr, n) | `Const_field (n, fr)), _) when pol ->
          meet fact fr (n, n)
      | _ -> fact)
  | Ast.B_ne (a, b) -> refine program (not pol) (Ast.B_eq (a, b)) fact
  | Ast.B_ult (a, b) -> (
      match as_field_const program a b with
      | Some (`Field_const (fr, n), w) ->
          if pol then meet fact fr (0, n - 1) else meet fact fr (n, mask w)
      | Some (`Const_field (n, fr), w) ->
          if pol then meet fact fr (n + 1, mask w) else meet fact fr (0, n)
      | None -> fact)
  | Ast.B_ule (a, b) -> (
      match as_field_const program a b with
      | Some (`Field_const (fr, n), w) ->
          if pol then meet fact fr (0, n) else meet fact fr (n + 1, mask w)
      | Some (`Const_field (n, fr), w) ->
          if pol then meet fact fr (n, mask w) else meet fact fr (0, n - 1)
      | None -> fact)
  | _ -> fact

(* ---- the pass ---- *)

type t = (int, bool option) Hashtbl.t  (* branch id -> verdict *)

let verdict t id =
  match Hashtbl.find_opt t id with Some v -> v | None -> None

let header_fields program h =
  match Ast.find_header program h with
  | Some hdr -> List.map (fun f -> Ast.field h f) (Header.field_names hdr)
  | None -> []

let default_args_env program (table : Ast.table) name =
  let dname, dargs = table.Ast.t_default_action in
  if not (String.equal dname name) then FMap.empty
  else
    match Ast.find_action program name with
    | Some a when List.length a.Ast.a_params = List.length dargs ->
        List.fold_left2
          (fun env (p : Ast.param) arg ->
            FMap.add p.Ast.p_name (const_value arg) env)
          FMap.empty a.Ast.a_params dargs
    | _ -> FMap.empty

let transfer program (node : Cfg.node) fact =
  match node.Cfg.n_kind with
  | Cfg.N_parser_state { ps_extract = Some h; _ } ->
      (* freshly extracted fields hold arbitrary packet bytes *)
      List.fold_left (fun f fr -> set f fr Top) fact (header_fields program h)
  | Cfg.N_stmt (Ast.S_assign (fr, e)) ->
      set fact fr (eval program None FMap.empty fact e)
  | Cfg.N_stmt (Ast.S_set_valid (h, _)) ->
      List.fold_left (fun f fr -> set f fr Top) fact (header_fields program h)
  | Cfg.N_action (table, name, role) -> (
      match Ast.find_action program name with
      | None -> fact
      | Some a ->
          let env =
            match role with
            | Cfg.Hit -> FMap.empty (* entry-supplied arguments: unknown *)
            | Cfg.Miss -> default_args_env program table name
          in
          List.fold_left
            (fun fact stmt ->
              match stmt with
              | Ast.S_assign (fr, e) ->
                  set fact fr (eval program (Some a) env fact e)
              | Ast.S_set_valid (h, _) ->
                  List.fold_left
                    (fun f fr -> set f fr Top)
                    fact (header_fields program h)
              | Ast.S_nop -> fact)
            fact a.Ast.a_body)
  | _ -> fact

let initial_fact program =
  let zero = Range (0, 0) in
  let add fact fr v = set fact fr v in
  let fact =
    List.fold_left
      (fun fact (name, w) ->
        if w > max_width then fact else add fact (Ast.meta name) zero)
      FMap.empty program.Ast.p_metadata
  in
  List.fold_left
    (fun fact (name, w) ->
      if w > max_width || String.equal name "ingress_port" then fact
      else add fact (Ast.std name) zero)
    fact Ast.standard_metadata

let analyze (cfg : Cfg.t) ~(validity : Validity.fact Dataflow.result) =
  let program = cfg.Cfg.program in
  let vfact_at id =
    match validity.Dataflow.before.(id) with
    | Some f -> f
    | None -> Validity.SMap.empty
  in
  let edge (node : Cfg.node) i fact =
    match node.Cfg.n_kind with
    | Cfg.N_cond (_, cond) -> (
        let pol = i = 0 in
        match
          eval_bexpr program (vfact_at node.Cfg.n_id) FMap.empty fact cond
        with
        | Some b when b <> pol -> None (* statically-dead arm *)
        | _ -> Some (refine program pol cond fact))
    | _ -> Some fact
  in
  let res = F.run ~edge cfg ~init:(initial_fact program) ~transfer:(transfer program) in
  let verdicts = Hashtbl.create 16 in
  Cfg.iter
    (fun node ->
      match node.Cfg.n_kind with
      | Cfg.N_cond (id, cond) ->
          let v =
            match res.Dataflow.before.(node.Cfg.n_id) with
            | None -> None (* branch itself unreachable *)
            | Some fact ->
                eval_bexpr program (vfact_at node.Cfg.n_id) FMap.empty fact cond
          in
          Hashtbl.replace verdicts id v
      | _ -> ())
    cfg;
  verdicts
