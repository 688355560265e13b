module Ast = Switchv_p4ir.Ast
module Bitvec = Switchv_bitvec.Bitvec
module Header = Switchv_packet.Header
module Packet = Switchv_packet.Packet
module Entry = Switchv_p4runtime.Entry
module P4info = Switchv_p4ir.P4info
module Term = Switchv_smt.Term
module Solver = Switchv_smt.Solver
module Telemetry = Switchv_telemetry.Telemetry

type goal_kind =
  | G_entry of { ge_table : string; ge_label : string }
  | G_branch of string
  | G_trace of string
  | G_custom of string

type goal = {
  goal_id : string;
  goal_kind : goal_kind;
  goal_cond : Term.boolean;
  goal_prefer : Term.boolean;
  goal_desc : string;
}

let entry_coverage_goals ?(prefer = Term.tru) (enc : Symexec.encoding) =
  List.filter_map
    (fun (tp : Symexec.trace_point) ->
      if String.equal tp.tp_table "<if>" then None
      else
        Some
          { goal_id = Printf.sprintf "entry:%s:%s" tp.tp_table tp.tp_label;
            goal_kind = G_entry { ge_table = tp.tp_table; ge_label = tp.tp_label };
            goal_cond = tp.tp_guard;
            goal_prefer = prefer;
            goal_desc = Printf.sprintf "hit %s in table %s" tp.tp_label tp.tp_table })
    enc.enc_trace

let branch_coverage_goals ?(prefer = Term.tru) (enc : Symexec.encoding) =
  List.filter_map
    (fun (tp : Symexec.trace_point) ->
      if String.equal tp.tp_table "<if>" then
        Some
          { goal_id = "branch:" ^ tp.tp_label;
            goal_kind = G_branch tp.tp_label;
            goal_cond = tp.tp_guard;
            goal_prefer = prefer;
            goal_desc = "cover pipeline " ^ tp.tp_label }
      else None)
    enc.enc_trace

let custom_goal ?(prefer = Term.tru) ~id ~desc cond =
  { goal_id = id; goal_kind = G_custom id; goal_cond = cond; goal_prefer = prefer;
    goal_desc = desc }

let trace_coverage_goals ?(prefer = Term.tru) ?(max_goals = 512) (enc : Symexec.encoding)
    ~tables =
  let points_of table =
    List.filter (fun (tp : Symexec.trace_point) -> String.equal tp.tp_table table)
      enc.enc_trace
  in
  let combos =
    List.fold_left
      (fun acc table ->
        let points = points_of table in
        if points = [] then acc
        else
          List.concat_map
            (fun combo -> List.map (fun tp -> tp :: combo) points)
            acc)
      [ [] ] tables
  in
  let goals =
    List.filter_map
      (fun combo ->
        match combo with
        | [] -> None
        | _ ->
            let combo = List.rev combo in
            let cond =
              Term.conj (List.map (fun (tp : Symexec.trace_point) -> tp.tp_guard) combo)
            in
            let label =
              String.concat " & "
                (List.map
                   (fun (tp : Symexec.trace_point) -> tp.tp_table ^ ":" ^ tp.tp_label)
                   combo)
            in
            Some
              { goal_id = "trace:" ^ label;
                goal_kind = G_trace label;
                goal_cond = cond;
                goal_prefer = prefer;
                goal_desc = "cover the trace combination " ^ label })
      combos
  in
  List.filteri (fun i _ -> i < max_goals) goals

let prune_goals (facts : Switchv_analysis.Analysis.facts) goals =
  let dead_tables =
    (* Unapplied tables produce no trace points (hence no goals), but
       callers may hand-build goals over them; treat both as dead. *)
    facts.f_dead_tables @ facts.f_unapplied_tables
  in
  let dead_table t = List.mem t dead_tables in
  let dead_component label =
    (* trace labels are "table:entry & table:entry & ..."; match against
       the known dead names rather than parsing at ':' (table names may
       contain one) *)
    let components =
      List.map String.trim (String.split_on_char '&' label)
    in
    List.exists
      (fun d ->
        let prefix = d ^ ":" in
        let plen = String.length prefix in
        List.exists
          (fun component ->
            String.length component >= plen
            && String.equal (String.sub component 0 plen) prefix)
          components)
      dead_tables
  in
  let live g =
    match g.goal_kind with
    | G_entry { ge_table; _ } -> not (dead_table ge_table)
    | G_branch label -> not (List.mem label facts.f_dead_branch_labels)
    | G_trace label -> not (dead_component label)
    | G_custom _ -> true
  in
  let kept = List.filter live goals in
  Telemetry.incr (Telemetry.get ())
    ~n:(List.length goals - List.length kept)
    "analysis.goals_pruned";
  kept

let prune_tainted_goals (taint : Switchv_analysis.Taint.summary) goals =
  (* Only branch goals are dropped: a branch whose path condition crosses a
     tainted conditional constrains a hash-chosen value, so the SMT witness
     pins a hash outcome the concrete run is free to ignore — solving it
     buys no reliable coverage. Entry goals over tainted-key tables are
     kept: their packets still exercise the table (some member handles
     them), and the set-valued oracle judges the outcome. *)
  let tainted g =
    match g.goal_kind with
    | G_branch label -> List.mem label taint.Switchv_analysis.Taint.s_branch_labels
    | G_entry _ | G_trace _ | G_custom _ -> false
  in
  let kept = List.filter (fun g -> not (tainted g)) goals in
  Telemetry.incr (Telemetry.get ())
    ~n:(List.length goals - List.length kept)
    "analysis.tainted_goals";
  kept

let prune_concretely_covered ~covered goals =
  (* Greybox shortcut: a branch arm the campaign's own probe packets
     already drove concretely needs no SMT witness — the coverage it would
     buy is in hand. Only branch goals are dropped: they map 1:1 onto a
     [cov.branch.<id>.<arm>] edge. Entry goals share their action edges
     with other entries of the table, so "edge covered" would not imply
     "this entry exercised" — they are kept as the primary divergence
     detectors. *)
  let keep g =
    match g.goal_kind with
    | G_branch label -> not (covered (Ast.coverage_key label))
    | G_entry _ | G_trace _ | G_custom _ -> true
  in
  let kept = List.filter keep goals in
  Telemetry.incr (Telemetry.get ())
    ~n:(List.length goals - List.length kept)
    "analysis.concretely_covered_skipped";
  kept

type test_packet = {
  tp_goal : string;
  tp_kind : goal_kind;
  tp_port : int;
  tp_bytes : string option;
}

type result = {
  packets : test_packet list;
  covered : int;
  uncoverable : int;
  solver_stats : (string * int) list;
  from_cache : bool;
}

(* --- model -> packet ------------------------------------------------------------ *)

let packet_of_model (enc : Symexec.encoding) (m : Solver.model) =
  let program = enc.enc_program in
  let headers =
    List.filter_map
      (fun (h : Header.t) ->
        let valid =
          Option.value ~default:false (m.Solver.bool (Symexec.validity_var ~header:h.name))
        in
        if not valid then None
        else
          Some
            (Packet.instance h
               (List.map
                  (fun (f : Header.field) ->
                    let name = Symexec.field_var ~header:h.name ~field:f.f_name in
                    let v =
                      match m.Solver.bv name with
                      | Some v -> v
                      | None -> Bitvec.zero f.f_width
                    in
                    (f.f_name, v))
                  h.fields)))
      program.p_headers
  in
  let packet = { Packet.headers; payload = "" } in
  Packet.to_bytes packet

let port_of_model (m : Solver.model) ports =
  match m.Solver.bv Symexec.ingress_port_var with
  | Some v -> (
      match Bitvec.to_int v with
      | Some p when List.mem p ports -> p
      | _ -> List.hd ports)
  | None -> List.hd ports

(* --- cache serialisation --------------------------------------------------------- *)

(* test packets are tuples of primitives (goal_kind is a variant of
   strings), safe for Marshal round-trips within this program. *)
let serialize (packets : test_packet list) =
  Marshal.to_string
    (List.map (fun p -> (p.tp_goal, p.tp_kind, p.tp_port, p.tp_bytes)) packets)
    []

let deserialize payload : test_packet list =
  let tuples : (string * goal_kind * int * string option) list =
    Marshal.from_string payload 0
  in
  List.map
    (fun (g, k, p, b) -> { tp_goal = g; tp_kind = k; tp_port = p; tp_bytes = b })
    tuples

let cache_key (enc : Symexec.encoding) goals ~ports ~index_offset =
  let buf = Buffer.create 4096 in
  (* Version tag: bump whenever the serialised payload layout or the key's
     derivation changes, so stale on-disk payloads from older binaries can
     never be deserialised into the new shape. *)
  Buffer.add_string buf "packetgen-v4;";
  (* The offset shifts the preferred-port cycle, so the same goal list
     solved as a different slice of a larger campaign yields different
     packets — it must be part of the key. *)
  Buffer.add_string buf (Printf.sprintf "off:%d;" index_offset);
  Buffer.add_string buf (P4info.digest (P4info.of_program enc.enc_program));
  List.iter
    (fun (tp : Symexec.trace_point) ->
      Buffer.add_string buf tp.tp_table;
      Buffer.add_char buf '/';
      Buffer.add_string buf tp.tp_label;
      Buffer.add_char buf ';')
    enc.enc_trace;
  List.iter (fun g -> Buffer.add_string buf g.goal_id) goals;
  (* The terms the packets are solved from: the well-formedness the solver
     asserts, then each goal's condition and preference (usually one term
     shared across all goals, which the fingerprint writes once). Trace
     labels name entries by match key alone, so an action argument reaches
     the key only through these terms. They are fingerprinted as a list,
     never joined through the folding constructors: a goal behind a
     catch-all entry has condition [fls], and a conjunction would fold the
     whole key to that constant. Each encode numbers its term nodes
     afresh, so the key reads the id-free {!Term.fingerprint}, never the
     nodes themselves. *)
  Buffer.add_string buf
    (Term.fingerprint
       (enc.enc_wellformed
       :: List.concat_map (fun g -> [ g.goal_cond; g.goal_prefer ]) goals));
  List.iter (fun p -> Buffer.add_string buf (string_of_int p)) ports;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* --- generation -------------------------------------------------------------------- *)

(* Canonical model order: both the incremental and the scratch pipeline
   extract the lexicographically minimal witness over the program's input
   variables, so the packet a goal yields is a pure function of the
   encoding and the goal — not of solver state or of what was learned
   from earlier goals. That invariant is what keeps cached, sharded
   (--jobs N), and incremental-vs-scratch campaigns byte-identical. *)
let canonical_vars (enc : Symexec.encoding) =
  List.map
    (function
      | `Bool name -> Solver.C_bool name
      | `Bv (name, _) -> Solver.C_bv name)
    (Symexec.model_input_vars enc.enc_program)

let assert_base solver (enc : Symexec.encoding) ports =
  Solver.assert_formula solver enc.enc_wellformed;
  let port_constraint =
    Term.disj
      (List.map
         (fun p ->
           Term.eq (Term.var Symexec.ingress_port_var 16) (Term.of_int ~width:16 p))
         ports)
  in
  Solver.assert_formula solver port_constraint

(* Solve one goal's soft-constraint cascade, weakest-last: the goal
   condition plus the preferred outcome plus a cycled ingress port, then
   progressively relaxed. [cond_conjuncts] are always assumed; [prefer] and
   [pport] are the soft extras. Unsat cores prune the cascade: an attempt
   whose assumption set contains a core reported by an earlier attempt is
   unsat without solving — and because only provably-unsat attempts are
   skipped, the first satisfiable attempt (and hence the canonical witness)
   is the same whether or not any skipping happened. *)
let solve_cascade solver ~canonical ~cond_conjuncts ~prefer ~pport =
  let tele = Telemetry.get () in
  let n = List.length cond_conjuncts in
  (* Universe ids: conjunct i -> i, prefer -> n, pport -> n + 1. *)
  let attempts =
    [ (cond_conjuncts @ [ prefer; pport ], [ n; n + 1 ]);
      (cond_conjuncts @ [ prefer ], [ n ]);
      (cond_conjuncts @ [ pport ], [ n + 1 ]);
      (cond_conjuncts, []) ]
  in
  let known_cores = ref [] in
  let rec go = function
    | [] -> None
    | (assumptions, extra_ids) :: rest ->
        let ids = List.init n (fun i -> i) @ extra_ids in
        let covered_by core = List.for_all (fun c -> List.mem c ids) core in
        if List.exists covered_by !known_cores then begin
          Telemetry.incr tele "symbolic.attempts_skipped";
          go rest
        end
        else begin
          match Solver.check_verdict ~assumptions ~canonical solver with
          | Solver.V_sat model -> Some model
          | Solver.V_unsat core_positions ->
              (* Map positions in this attempt's assumption list back to
                 universe ids. *)
              let core =
                List.map
                  (fun p -> if p < n then p else List.nth extra_ids (p - n))
                  core_positions
              in
              known_cores := core :: !known_cores;
              go rest
        end
  in
  go attempts

let sum_stats acc stats =
  List.fold_left
    (fun acc (name, v) ->
      match List.assoc_opt name acc with
      | Some v0 -> (name, v0 + v) :: List.remove_assoc name acc
      | None -> acc @ [ (name, v) ])
    acc stats

let generate ?(ports = [ 1; 2; 3; 4 ]) ?(index_offset = 0) ?cache ?(incremental = true)
    (enc : Symexec.encoding) goals =
  let tele = Telemetry.get () in
  Telemetry.with_span tele "symbolic.generate"
    ~attrs:[ ("goals", string_of_int (List.length goals)) ]
  @@ fun () ->
  (* Only a cache needs the key: it digests the whole P4info and the
     preference terms. *)
  let cache = Option.map (fun c -> (c, cache_key enc goals ~ports ~index_offset)) cache in
  let cached =
    match cache with
    | None -> None
    | Some (c, key) -> (
        match Cache.find c ~key with
        | None -> None
        | Some raw -> (
            (* The cache layer already rejects torn files; this guards the
               residual case of a well-framed payload whose Marshal bytes
               are garbage. Falling through regenerates and overwrites. *)
            match deserialize raw with
            | packets -> Some packets
            | exception _ ->
                Telemetry.incr tele "cache.corrupt_dropped";
                None))
  in
  match cached with
  | Some packets ->
      let covered = List.length (List.filter (fun p -> p.tp_bytes <> None) packets) in
      { packets;
        covered;
        uncoverable = List.length packets - covered;
        solver_stats = [];
        from_cache = true }
  | None ->
      let canonical = canonical_vars enc in
      let nports = List.length ports in
      let port_term = Term.var Symexec.ingress_port_var 16 in
      let preferred_port i =
        Term.eq port_term
          (Term.of_int ~width:16 (List.nth ports ((index_offset + i) mod nports)))
      in
      let packet_of goal model =
        match model with
        | Some m ->
            Telemetry.incr tele "symbolic.goals_covered";
            { tp_goal = goal.goal_id;
              tp_kind = goal.goal_kind;
              tp_port = port_of_model m ports;
              tp_bytes = Some (packet_of_model enc m) }
        | None ->
            Telemetry.incr tele "symbolic.goals_uncoverable";
            { tp_goal = goal.goal_id;
              tp_kind = goal.goal_kind;
              tp_port = List.hd ports;
              tp_bytes = None }
      in
      let solve_member solver goal ~cond_conjuncts ~pport =
        let model =
          Telemetry.with_span tele "symbolic.goal"
            ~attrs:[ ("goal", goal.goal_id) ]
            (fun () ->
              solve_cascade solver ~canonical ~cond_conjuncts
                ~prefer:goal.goal_prefer ~pport)
        in
        packet_of goal model
      in
      let packets, solver_stats =
        if incremental then begin
          (* One solver for the whole goal list: the encoding bit-blasts
             once, and each goal's conjuncts ride as assumptions. A
             conjunct several goals share bit-blasts once (the gate
             memos), and the SAT core resumes each check from the trail
             levels of the leading assumptions it shares with the
             previous check. *)
          let solver = Solver.create () in
          assert_base solver enc ports;
          let packets =
            List.mapi
              (fun i goal ->
                solve_member solver goal
                  ~cond_conjuncts:(Term.flatten_conj goal.goal_cond)
                  ~pport:(preferred_port i))
              goals
          in
          (packets, Solver.stats solver)
        end
        else begin
          (* Scratch mode (the bench baseline, and the reference for the
             equivalence gate): every goal re-bit-blasts the encoding into
             a fresh solver and solves with nothing learned. *)
          let stats = ref [] in
          let packets =
            List.mapi
              (fun i goal ->
                let solver = Solver.create () in
                assert_base solver enc ports;
                let packet =
                  solve_member solver goal ~cond_conjuncts:[ goal.goal_cond ]
                    ~pport:(preferred_port i)
                in
                stats := sum_stats !stats (Solver.stats solver);
                packet)
              goals
          in
          (packets, !stats)
        end
      in
      (match cache with
      | Some (c, key) -> Cache.store c ~key (serialize packets)
      | None -> ());
      let covered = List.length (List.filter (fun p -> p.tp_bytes <> None) packets) in
      { packets;
        covered;
        uncoverable = List.length packets - covered;
        solver_stats;
        from_cache = false }
