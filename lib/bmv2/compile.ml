(* Staged evaluator: a one-time compilation pass that turns each parser
   state, expression, action, table and pipeline of a P4 model into OCaml
   closures, replacing {!Interp}'s per-packet AST walk. It only stages:
   [stage] returns an [Interp.pipeline], and the entry points around it
   ([Interp.run_with], [run_info_with], [run_packet_out_with],
   [behavior_set]) are the interpreter's own. Behavior-identical by
   construction:

   - the per-packet runtime state is [Interp.rt] itself, and the shared
     entry points build and finish it, so metadata setup, deparsing,
     drop/punt/mirror resolution and trace assembly are the reference
     code path. Its fields and validity bits are arrays indexed by the
     program's one [Interp.layout]; staging resolves every field and
     header name to its slot, where the walk resolves it on each access;
   - coverage counters are emitted with the same keys — branch ids are
     baked at staging with {!Ast.count_ifs}'s pre-order numbering, which
     [Interp.exec_control] uses too, and action-edge keys are
     [Telemetry.handle]s on the names [Interp.cov_action] bumps — so
     greybox scheduling, taint accounting and the coverage map observe
     nothing different;
   - hash calls go through [Interp.hash_value] on the shared [rt], and a
     WCMP member is picked by [Interp.pick_weighted], so [ri_hash_calls]
     and seeded/fixed hash semantics are unchanged;
   - table lookups are served by {!State.index_lookup} (the lib/match
     indexed structures), which implements the same (rank, seq) precedence
     as [Interp.ordered_entries] + first-match — see that comment for the
     tie-break contract.

   [Interp] stays the retained linear-scan reference, as a test oracle:
   campaigns run with [compile = false] must be byte-identical (a row of
   the determinism matrix in test/test_parallel.ml), and
   test/test_match.ml drives both evaluators differentially. *)

module Bitvec = Switchv_bitvec.Bitvec
module Header = Switchv_packet.Header
module Ast = Switchv_p4ir.Ast
module Entry = Switchv_p4runtime.Entry
module State = Switchv_p4runtime.State
module Match = Switchv_match.Index
module Telemetry = Switchv_telemetry.Telemetry

type ctx = { program : Ast.program; layout : Interp.layout; pnames : string array }

(* --- expressions ---------------------------------------------------------- *)

let rec cexpr ctx (e : Ast.expr) : Interp.rt -> Bitvec.t array -> Bitvec.t =
  match e with
  | E_const c -> fun _ _ -> c
  | E_field fr -> (
      match Interp.field_slot ctx.layout fr with
      | slot -> fun rt _ -> rt.Interp.fields.(slot)
      | exception Not_found ->
          (* Unknown field: fail at evaluation time, like the interpreter. *)
          fun _ _ -> raise Not_found)
  | E_param name -> (
      let rec find i =
        if i >= Array.length ctx.pnames then None
        else if String.equal ctx.pnames.(i) name then Some i
        else find (i + 1)
      in
      match find 0 with
      | Some i -> fun _ args -> args.(i)
      | None -> fun _ _ -> invalid_arg ("Interp: unbound action parameter " ^ name))
  | E_not a ->
      let ca = cexpr ctx a in
      fun rt args -> Bitvec.lognot (ca rt args)
  | E_and (a, b) ->
      let ca = cexpr ctx a and cb = cexpr ctx b in
      fun rt args -> Bitvec.logand (ca rt args) (cb rt args)
  | E_or (a, b) ->
      let ca = cexpr ctx a and cb = cexpr ctx b in
      fun rt args -> Bitvec.logor (ca rt args) (cb rt args)
  | E_xor (a, b) ->
      let ca = cexpr ctx a and cb = cexpr ctx b in
      fun rt args -> Bitvec.logxor (ca rt args) (cb rt args)
  | E_add (a, b) ->
      let ca = cexpr ctx a and cb = cexpr ctx b in
      fun rt args -> Bitvec.add (ca rt args) (cb rt args)
  | E_sub (a, b) ->
      let ca = cexpr ctx a and cb = cexpr ctx b in
      fun rt args -> Bitvec.sub (ca rt args) (cb rt args)
  | E_slice (hi, lo, a) ->
      let ca = cexpr ctx a in
      fun rt args -> Bitvec.extract ~hi ~lo (ca rt args)
  | E_concat (a, b) ->
      let ca = cexpr ctx a and cb = cexpr ctx b in
      fun rt args -> Bitvec.concat (ca rt args) (cb rt args)
  | E_hash (_, args) ->
      let cs = List.map (cexpr ctx) args in
      fun rt a ->
        Bitvec.of_int ~width:16 (Interp.hash_value rt (List.map (fun c -> c rt a) cs))

let rec cbexpr ctx (b : Ast.bexpr) : Interp.rt -> Bitvec.t array -> bool =
  match b with
  | B_true -> fun _ _ -> true
  | B_false -> fun _ _ -> false
  | B_is_valid h -> (
      match Interp.header_index ctx.layout h with
      | Some i -> fun rt _ -> rt.Interp.valid.(i)
      | None -> fun _ _ -> false)
  | B_eq (a, b) ->
      let ca = cexpr ctx a and cb = cexpr ctx b in
      fun rt args -> Bitvec.equal (ca rt args) (cb rt args)
  | B_ne (a, b) ->
      let ca = cexpr ctx a and cb = cexpr ctx b in
      fun rt args -> not (Bitvec.equal (ca rt args) (cb rt args))
  | B_ult (a, b) ->
      let ca = cexpr ctx a and cb = cexpr ctx b in
      fun rt args -> Bitvec.ult (ca rt args) (cb rt args)
  | B_ule (a, b) ->
      let ca = cexpr ctx a and cb = cexpr ctx b in
      fun rt args -> Bitvec.ule (ca rt args) (cb rt args)
  | B_not a ->
      let ca = cbexpr ctx a in
      fun rt args -> not (ca rt args)
  | B_and (a, b) ->
      (* && / || keep the interpreter's short-circuiting, so hash-call
         counts behind an untaken arm stay identical. *)
      let ca = cbexpr ctx a and cb = cbexpr ctx b in
      fun rt args -> ca rt args && cb rt args
  | B_or (a, b) ->
      let ca = cbexpr ctx a and cb = cbexpr ctx b in
      fun rt args -> ca rt args || cb rt args

(* --- statements and actions ----------------------------------------------- *)

(* Unknown fields and headers fail when the statement runs, like the
   interpreter. *)
let cstmt ctx (s : Ast.stmt) : Interp.rt -> Bitvec.t array -> unit =
  match s with
  | S_nop -> fun _ _ -> ()
  | S_assign (fr, e) -> (
      let ce = cexpr ctx e in
      match Interp.field_slot ctx.layout fr with
      | slot -> fun rt args -> rt.Interp.fields.(slot) <- ce rt args
      | exception Not_found -> fun _ _ -> raise Not_found)
  | S_set_valid (h, b) -> (
      match Interp.header_index ctx.layout h with
      | Some i -> fun rt _ -> rt.Interp.valid.(i) <- b
      | None -> fun _ _ -> raise Not_found)

type caction = { ca_params : int; ca_body : (Interp.rt -> Bitvec.t array -> unit) list }

let caction ctx (a : Ast.action) =
  let pnames = Array.of_list (List.map (fun (p : Ast.param) -> p.p_name) a.a_params) in
  let ctx = { ctx with pnames } in
  { ca_params = Array.length pnames; ca_body = List.map (cstmt ctx) a.a_body }

let run_caction ca rt args =
  (* Arity mismatches fail exactly where [Interp.exec_action]'s
     [List.map2] would. *)
  if Array.length args <> ca.ca_params then invalid_arg "List.map2";
  List.iter (fun s -> s rt args) ca.ca_body

(* --- tables ---------------------------------------------------------------- *)

let kind_of = function
  | Ast.Exact -> Match.Exact
  | Ast.Lpm -> Match.Lpm
  | Ast.Ternary -> Match.Ternary
  | Ast.Optional -> Match.Optional

(* A hit's counter key, its two trace labels and the action it runs,
   memoized per (table, action) on first use. *)
type hit = {
  h_cov : Telemetry.handle;      (* cov.action.<t>.hit.<a> *)
  h_trace : string * string;     (* (table, action) *)
  h_wcmp_trace : string * string;(* (table, "wcmp:" ^ action) *)
  h_action : caction;
}

type ctable = {
  ct_name : string;
  ct_keys : (Interp.rt -> Bitvec.t) array;
  ct_specs : State.key_spec array;
  ct_default : caction * Bitvec.t array;
  ct_default_cov : Telemetry.handle;     (* cov.action.<t>.miss.<d> *)
  ct_default_trace : string * string;    (* (table, "<default>" ^ d) *)
  ct_hits : (string, hit) Hashtbl.t;
}

let hit ctx actions ct aname =
  match Hashtbl.find_opt ct.ct_hits aname with
  | Some h -> h
  | None -> (
      match Hashtbl.find_opt actions aname with
      | None ->
          (* Not memoized: raises [Invalid_argument] with the interpreter's
             message on every use. *)
          ignore (Ast.find_action_exn ctx.program aname);
          assert false
      | Some ca ->
          let h =
            { h_cov = Telemetry.handle (Ast.action_key ct.ct_name ~hit:true aname);
              h_trace = (ct.ct_name, aname);
              h_wcmp_trace = (ct.ct_name, "wcmp:" ^ aname);
              h_action = ca }
          in
          Hashtbl.add ct.ct_hits aname h;
          h)

let ctable ctx (table : Ast.table) =
  let specs =
    Array.of_list
      (List.map
         (fun (k : Ast.key) ->
           { State.ks_name = k.k_name;
             ks_width = Ast.key_width ctx.program table k;
             ks_kind = kind_of k.k_kind })
         table.t_keys)
  in
  let keys =
    Array.of_list
      (List.map
         (fun (k : Ast.key) ->
           let ce = cexpr ctx k.k_expr in
           fun rt -> ce rt [||])
         table.t_keys)
  in
  let dname, dargs = table.t_default_action in
  let daction = caction ctx (Ast.find_action_exn ctx.program dname) in
  { ct_name = table.t_name;
    ct_keys = keys;
    ct_specs = specs;
    ct_default = (daction, Array.of_list dargs);
    ct_default_cov = Telemetry.handle (Ast.action_key table.t_name ~hit:false dname);
    ct_default_trace = (table.t_name, "<default>" ^ dname);
    ct_hits = Hashtbl.create 8 }

let invoke rt (h : hit) trace (ai : Entry.action_invocation) =
  rt.Interp.trace <- trace :: rt.Interp.trace;
  Telemetry.bump h.h_cov;
  run_caction h.h_action rt (Array.of_list ai.Entry.ai_args)

let apply_ctable ctx actions ct rt =
  let values = Array.map (fun key -> key rt) ct.ct_keys in
  match
    State.index_lookup rt.Interp.cfg.Interp.state ~table:ct.ct_name ~keys:ct.ct_specs
      values
  with
  | Some e -> (
      match e.Entry.e_action with
      | Entry.Single ai ->
          let h = hit ctx actions ct ai.Entry.ai_name in
          invoke rt h h.h_trace ai
      | Entry.Weighted members ->
          let ai = Interp.pick_weighted rt members in
          let h = hit ctx actions ct ai.Entry.ai_name in
          invoke rt h h.h_wcmp_trace ai)
  | None ->
      let daction, dargs = ct.ct_default in
      rt.Interp.trace <- ct.ct_default_trace :: rt.Interp.trace;
      Telemetry.bump ct.ct_default_cov;
      run_caction daction rt dargs

(* --- controls -------------------------------------------------------------- *)

(* Branch ids are baked at staging in {!Ast.count_ifs}'s pre-order
   numbering, so cov.branch.N.* counters line up with Symexec goals. *)
let rec ccontrol ctx actions tables next (c : Ast.control) :
    Interp.rt -> unit =
  match c with
  | C_nop -> fun _ -> ()
  | C_stmt s ->
      let cs = cstmt ctx s in
      fun rt -> cs rt [||]
  | C_seq (a, b) ->
      let ca = ccontrol ctx actions tables next a in
      let cb =
        ccontrol ctx actions tables (next + Ast.count_ifs a) b
      in
      fun rt ->
        ca rt;
        cb rt
  | C_table name -> (
      match Hashtbl.find_opt tables name with
      | Some ct -> fun rt -> apply_ctable ctx actions ct rt
      | None ->
          (* Unknown table: fail at application time like the interpreter. *)
          fun rt -> Interp.apply_table rt name)
  | C_if (cond, a, b) ->
      let cc = cbexpr ctx cond in
      let kt = Telemetry.handle (Ast.coverage_key (Ast.branch_label next true)) in
      let ke = Telemetry.handle (Ast.coverage_key (Ast.branch_label next false)) in
      let ca = ccontrol ctx actions tables (next + 1) a in
      let cb =
        ccontrol ctx actions tables (next + 1 + Ast.count_ifs a) b
      in
      fun rt ->
        let taken = cc rt [||] in
        Telemetry.bump (if taken then kt else ke);
        if taken then ca rt else cb rt

(* --- parser ---------------------------------------------------------------- *)

type ctrans =
  | CT_accept
  | CT_select of (Interp.rt -> Bitvec.t) * (Bitvec.t * string) list * string

type cstate = {
  cs_extract : (Interp.rt -> string -> int ref -> unit) option;
  cs_next : ctrans;
}

let cextract ctx hdr_name =
  match Ast.find_header ctx.program hdr_name with
  | None -> fun _ _ _ -> raise (Interp.Parse_failure ("unknown header " ^ hdr_name))
  | Some hdr ->
      let w = Header.width hdr in
      let h = Option.get (Interp.header_index ctx.layout hdr_name) in
      let first = Interp.first_slot ctx.layout h in
      let widths = Array.of_list (List.map (fun (f : Header.field) -> f.f_width) hdr.fields) in
      fun rt bytes offset ->
        if !offset + w > 8 * String.length bytes then
          raise
            (Interp.Parse_failure
               (Printf.sprintf "truncated packet: need %d bits for %s" w hdr_name));
        for k = 0 to Array.length widths - 1 do
          rt.Interp.fields.(first + k) <- Bitvec.read_be bytes !offset widths.(k);
          offset := !offset + widths.(k)
        done;
        rt.Interp.valid.(h) <- true

let cparse ctx =
  let states = Hashtbl.create 16 in
  List.iter
    (fun (s : Ast.parser_state) ->
      (* First definition wins, like the interpreter's [List.find_opt]. *)
      if not (Hashtbl.mem states s.ps_name) then
        Hashtbl.add states s.ps_name
          { cs_extract = Option.map (cextract ctx) s.ps_extract;
            cs_next =
              (match s.ps_next with
              | T_accept -> CT_accept
              | T_select (e, cases, default) ->
                  let ce = cexpr ctx e in
                  CT_select ((fun rt -> ce rt [||]), cases, default)) })
    ctx.program.p_parser.states;
  let start = ctx.program.p_parser.start in
  fun rt bytes ->
    let offset = ref 0 in
    let rec step name fuel =
      if fuel = 0 then raise (Interp.Parse_failure "parser did not terminate")
      else begin
        match Hashtbl.find_opt states name with
        | None -> raise (Interp.Parse_failure ("unknown parser state " ^ name))
        | Some st -> (
            Option.iter (fun ex -> ex rt bytes offset) st.cs_extract;
            match st.cs_next with
            | CT_accept -> ()
            | CT_select (ce, cases, default) ->
                let v = ce rt in
                let target =
                  match List.find_opt (fun (c, _) -> Bitvec.equal c v) cases with
                  | Some (_, t) -> t
                  | None -> default
                in
                if String.equal target "accept" then () else step target (fuel - 1))
      end
    in
    step start 64;
    if !offset mod 8 <> 0 then
      raise (Interp.Parse_failure "parsed headers not byte-aligned");
    rt.Interp.payload <-
      String.sub bytes (!offset / 8) (String.length bytes - (!offset / 8))

(* --- staging --------------------------------------------------------------- *)

let build program =
  let ctx = { program; layout = Interp.layout program; pnames = [||] } in
  let actions = Hashtbl.create 32 in
  List.iter
    (fun (a : Ast.action) ->
      if not (Hashtbl.mem actions a.a_name) then
        Hashtbl.add actions a.a_name (caction ctx a))
    program.p_actions;
  let tables = Hashtbl.create 16 in
  List.iter
    (fun (t : Ast.table) ->
      if not (Hashtbl.mem tables t.t_name) then Hashtbl.add tables t.t_name (ctable ctx t))
    program.p_tables;
  { Interp.layout = ctx.layout;
    parse = cparse ctx;
    ingress = ccontrol ctx actions tables 1 program.p_ingress;
    egress =
      ccontrol ctx actions tables
        (1 + Ast.count_ifs program.p_ingress)
        program.p_egress }

(* Staged pipelines are memoized per program by physical equality with a
   small bound, like [Coverage.edge_keys]: campaigns reuse a handful of
   long-lived program values, so the cache is effectively a per-program
   one-time cost. *)
let cache : (Ast.program * Interp.pipeline) list ref = ref []
let cache_bound = 8

let stage program =
  match List.find_opt (fun (p, _) -> p == program) !cache with
  | Some (_, s) -> s
  | None ->
      let s = build program in
      cache := (program, s) :: List.filteri (fun i _ -> i < cache_bound - 1) !cache;
      s

let run = Interp.run_with stage
let run_packet_out = Interp.run_packet_out_with stage
let select ~compile = if compile then stage else Interp.walk
