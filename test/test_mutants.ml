(* Mutated-model probe: a model file either fails to parse or typecheck,
   with an error value, or every later stage runs it without raising, and
   the two concrete evaluators agree on it.

   The sources are the textual fixtures, the example model and the five
   role models pretty-printed. Each mutant applies one to three edits:
   replace, insert or delete a byte; replace a number or a word with
   another from the source; delete or duplicate a range of lines.

   Parsing and typechecking must never raise. A mutant that typechecks
   must survive pretty-printing and re-parsing unchanged (modulo
   [Ast.normalize_control], as test_p4ir's round-trip case compares), and
   then goes through P4Info derivation, the static analysis, the
   role-model workload generator, a fuzzer sweep plus one batch,
   symbolic execution over the fuzzer's entries with packet generation
   for entry and branch goals, and both evaluators (the interpreter walk
   and the staged pipeline) on random and perturbed packets: none may
   raise (a parse failure aside), and the evaluators must return the same
   behaviour, trace included, or the same parse-failure message.

   A failure names the seed and the source and prints the mutant.

   The [parsers] cases hold the other external parsers to the same
   totality: byte-level mutants of the entry restrictions found in the
   sources and of the golden corpus lines go through
   [Constraint_lang.parse], [Jsonp.parse] and [Corpus.record_of_json],
   which must return [Ok] or [Error] and never raise.

   The [p4runtime requests] cases send arbitrary write batches to a clean
   stack of each role model and to its oracle: unknown tables, actions
   and fields, widths from 1 to 128, missing and extra arguments,
   repeated fields, priorities -1, 0 and 1, weighted actions with empty
   member lists and weights from -2 to 2, as inserts, modifies and
   deletes. [Stack.write], [Stack.read] and the oracle's batch judgement
   must return one status per update and never raise.

   Environment knobs (shared with test_smt_diff; the Makefile's check-smt
   target uses them):
     SWITCHV_QGEN_SEED     base seed (default 1)
     SWITCHV_QGEN_SOAK_MS  extra randomized soak time (default 0) *)

module Ast = Switchv_p4ir.Ast
module Constraint_lang = Switchv_p4constraints.Constraint_lang
module Jsonp = Switchv_telemetry.Jsonp
module Corpus = Switchv_triage.Corpus
module P4parser = Switchv_p4ir.P4parser
module Typecheck = Switchv_p4ir.Typecheck
module P4info = Switchv_p4ir.P4info
module Pretty = Switchv_p4ir.Pretty
module Rng = Switchv_bitvec.Rng
module Packet = Switchv_packet.Packet
module State = Switchv_p4runtime.State
module Analysis = Switchv_analysis.Analysis
module Workload = Switchv_sai.Workload
module Fuzzer = Switchv_fuzzer.Fuzzer
module Symexec = Switchv_symbolic.Symexec
module Packetgen = Switchv_symbolic.Packetgen
module Interp = Switchv_bmv2.Interp
module Compile = Switchv_bmv2.Compile
module Bitvec = Switchv_bitvec.Bitvec
module Prefix = Switchv_bitvec.Prefix
module Ternary = Switchv_bitvec.Ternary
module Entry = Switchv_p4runtime.Entry
module Request = Switchv_p4runtime.Request
module Stack = Switchv_switch.Stack
module Oracle = Switchv_oracle.Oracle
module Clock = Switchv_telemetry.Telemetry.Clock

let env_int name default =
  match Sys.getenv_opt name with
  | Some s -> ( match int_of_string_opt s with Some v -> v | None -> default)
  | None -> default

let seed = env_int "SWITCHV_QGEN_SEED" 1
let soak_ms = env_int "SWITCHV_QGEN_SOAK_MS" 0

(* --- sources ---------------------------------------------------------------- *)

(* A path from the repository root: dune runtest runs in test/, `dune
   exec test/...` in the root. *)
let path p = if Sys.file_exists "fixtures" then Filename.concat ".." p else p

let read p = In_channel.with_open_bin (path p) In_channel.input_all

let sources =
  List.filter_map
    (fun f -> if Filename.check_suffix f ".p4" then Some (f, read ("test/fixtures/" ^ f)) else None)
    (List.sort String.compare (Array.to_list (Sys.readdir (path "test/fixtures"))))
  @ [ ("edge_router.p4", read "examples/models/edge_router.p4") ]
  @ List.map
      (fun (p : Ast.program) -> (p.p_name, Pretty.program_to_string p))
      [ Switchv_sai.Figure2.program; Switchv_sai.Middleblock.program;
        Switchv_sai.Wan.program; Switchv_sai.Tor.program; Switchv_sai.Cerberus.program ]

(* --- mutation ---------------------------------------------------------------- *)

let numbers = [| 0; 1; 2; 3; 4; 7; 8; 9; 12; 15; 16; 17; 31; 32; 33; 48; 63; 64; 65; 255; 256; 65535 |]
let alphabet = "{}()<>;:=,.@\"_ \n0123456789abcdefwx"

(* The [start, stop) spans of the maximal runs of [member] characters. *)
let runs member s =
  let acc = ref [] and start = ref (-1) in
  String.iteri
    (fun i c ->
      if member c then (if !start < 0 then start := i)
      else if !start >= 0 then begin
        acc := (!start, i) :: !acc;
        start := -1
      end)
    s;
  if !start >= 0 then acc := (!start, String.length s) :: !acc;
  Array.of_list (List.rev !acc)

let is_digit c = c >= '0' && c <= '9'
let is_word c = c = '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')

let splice s (a, b) r = String.sub s 0 a ^ r ^ String.sub s b (String.length s - b)

let pick rng a = a.(Rng.int rng (Array.length a))

let edit rng s =
  let n = String.length s in
  let range ls =
    let i = Rng.int rng (Array.length ls) in
    (i, min (Array.length ls) (i + 1 + Rng.int rng 2))
  in
  (* Weighted toward the edits that keep the syntax, so that a good share
     of mutants reaches the stages after the typechecker. *)
  match Rng.int rng 10 with
  | 0 when n > 0 ->
      let i = Rng.int rng n in
      splice s (i, i + 1) (String.make 1 alphabet.[Rng.int rng (String.length alphabet)])
  | 1 ->
      let i = Rng.int rng (n + 1) in
      splice s (i, i) (String.make 1 (Char.chr (Rng.int rng 256)))
  | 2 when n > 0 ->
      let i = Rng.int rng n in
      splice s (i, i + 1) ""
  | 3 | 4 | 5 -> (
      match runs is_digit s with
      | [||] -> s
      | spans -> splice s (pick rng spans) (string_of_int (pick rng numbers)))
  | 6 -> (
      match runs is_word s with
      | [||] -> s
      | spans ->
          let a, b = pick rng spans in
          splice s (pick rng spans) (String.sub s a (b - a)))
  | k ->
      (* Delete lines [i, j) or, on 9, repeat them. *)
      let ls = Array.of_list (String.split_on_char '\n' s) in
      let i, j = range ls and len = Array.length ls in
      let part a b = Array.sub ls a (b - a) in
      String.concat "\n"
        (Array.to_list
           (Array.concat
              (if k < 9 then [ part 0 i; part j len ] else [ part 0 j; part i j; part j len ])))

let mutant rng source =
  let rec go k s = if k = 0 then s else go (k - 1) (edit rng s) in
  go (1 + Rng.int rng 2) source

(* --- the stages ------------------------------------------------------------------ *)

exception Finding of string

let stage name f =
  try f () with
  | Finding _ as e -> raise e
  | e -> raise (Finding (Printf.sprintf "%s raised %s" name (Printexc.to_string e)))

let packet rng =
  if Rng.int rng 3 = 0 then String.init (Rng.int rng 96) (fun _ -> Char.chr (Rng.int rng 256))
  else begin
    let b =
      Bytes.of_string
        (Packet.to_bytes
           (Packet.simple_ipv4 ~src:"192.0.2.1"
              ~dst:(Printf.sprintf "10.0.%d.%d" (Rng.int rng 4) (Rng.int rng 256))
              ()))
    in
    for _ = 1 to Rng.int rng 3 do
      Bytes.set b (Rng.int rng (Bytes.length b)) (Char.chr (Rng.int rng 256))
    done;
    Bytes.to_string b
  end

let outcome run cfg ~ingress_port bytes =
  match run cfg ~ingress_port bytes with
  | b -> Ok b
  | exception Interp.Parse_failure m -> Error m

let normalize (p : Ast.program) =
  { p with
    p_ingress = Ast.normalize_control p.p_ingress;
    p_egress = Ast.normalize_control p.p_egress }

(* Every stage after the typechecker, on one well-typed program. *)
let run_stages rng (program : Ast.program) =
  stage "P4parser.roundtrip" (fun () ->
      match P4parser.roundtrip program with
      | Ok p when normalize p = normalize program -> ()
      | Ok p ->
          raise
            (Finding
               (Printf.sprintf "re-parsing the pretty-printed program changes it:\n%s"
                  (Pretty.program_to_string p)))
      | Error m -> raise (Finding ("the pretty-printed program does not re-parse: " ^ m)));
  let info = stage "P4info.of_program" (fun () -> P4info.of_program program) in
  ignore (stage "Analysis.run" (fun () -> Analysis.run program));
  ignore (stage "Workload.generate" (fun () -> Workload.generate ~seed:1 program Workload.small));
  let fuzzer = Fuzzer.create info (Rng.create (Rng.int rng 1000)) in
  stage "fuzzer sweep and batch" (fun () ->
      ignore (Fuzzer.sweep fuzzer);
      ignore (Fuzzer.next_batch fuzzer));
  let state = Fuzzer.mirror fuzzer in
  stage "Symexec.encode and Packetgen.generate" (fun () ->
      let enc = Symexec.encode program (State.all state) in
      ignore
        (Packetgen.generate enc
           (Packetgen.entry_coverage_goals enc @ Packetgen.branch_coverage_goals enc)));
  let cfg = { Interp.program; state; hash_mode = Interp.Seeded 3; mirror_map = [] } in
  for _ = 1 to 24 do
    let bytes = packet rng and ingress_port = 1 + Rng.int rng 4 in
    let i = stage "Interp.run" (fun () -> outcome Interp.run cfg ~ingress_port bytes) in
    let c = stage "Compile.run" (fun () -> outcome Compile.run cfg ~ingress_port bytes) in
    let show = function
      | Ok (b : Interp.behavior) ->
          Format.asprintf "%a trace [%s]" Interp.pp_behavior b
            (String.concat "; " (List.map (fun (t, a) -> t ^ "->" ^ a) b.b_trace))
      | Error m -> "parse failure: " ^ m
    in
    if i <> c then
      raise
        (Finding
           (Printf.sprintf "evaluators disagree on %S at port %d:\n  interp   %s\n  compiled %s"
              bytes ingress_port (show i) (show c)))
  done

(* One round: a mutant of every source, drawn from [round_seed]. Returns
   how many of them typechecked. *)
let probe_round round_seed =
  let rng = Rng.create round_seed in
  List.fold_left
    (fun checked (name, source) ->
      let text = mutant rng source in
      let fail msg =
        Alcotest.failf "SWITCHV_QGEN_SEED=%d, round seed %d, mutant of %s: %s@.--- mutant ---@.%s"
          seed round_seed name msg text
      in
      match
        stage "P4parser.parse" (fun () -> P4parser.parse ~name text)
        |> Result.map (fun p -> (p, stage "Typecheck.check" (fun () -> Typecheck.check p)))
      with
      | Ok (program, Ok ()) -> (
          match run_stages rng program with
          | () -> checked + 1
          | exception Finding msg -> fail msg)
      | Ok (_, Error _) | Error _ -> checked
      | exception Finding msg -> fail msg)
    0 sources

let test_fixed_seed () =
  let checked = ref 0 in
  for round = 0 to 47 do
    checked := !checked + probe_round ((seed * 1000) + round)
  done;
  (* Guard against a probe that only ever feeds the parser. *)
  Alcotest.(check bool)
    (Printf.sprintf "mutants that typecheck (%d)" !checked) true (!checked >= 100)

(* Time-boxed randomized soak: fresh rounds until the budget runs out.
   Off by default (SWITCHV_QGEN_SOAK_MS=0) so dune runtest stays
   deterministic; make check-smt runs it at a fresh seed. *)
let test_soak () =
  let deadline = Clock.now () +. (float_of_int soak_ms /. 1000.) in
  let round = ref 0 in
  while Clock.now () < deadline do
    incr round;
    ignore (probe_round ((seed * 1000) + 1000000 + !round))
  done

(* --- external parsers ------------------------------------------------------------ *)

(* Every @entry_restriction string in the sources (the role models print
   theirs, one per line), and the golden corpus lines. *)
let restrictions =
  let prefix = "@entry_restriction(\"" in
  let of_line line =
    let line = String.trim line and a = String.length prefix in
    if not (String.starts_with ~prefix line) then None
    else Option.map (fun b -> String.sub line a (b - a)) (String.index_from_opt line a '"')
  in
  List.sort_uniq String.compare
    (List.concat_map (fun (_, text) -> List.filter_map of_line (String.split_on_char '\n' text))
       sources)

let corpus_lines =
  List.filter (fun l -> l <> "") (String.split_on_char '\n' (read "test/fixtures/corpus.jsonl"))

let parsers =
  [ ("Constraint_lang.parse", restrictions, fun s -> Result.is_ok (Constraint_lang.parse s));
    ("Jsonp.parse", corpus_lines, fun s -> Result.is_ok (Jsonp.parse s));
    ("Corpus.record_of_json", corpus_lines, fun s -> Result.is_ok (Corpus.record_of_json s)) ]

let tokens =
  [| "99999999999999999999"; "4611686018427387904"; "0x123456789abcdef01234";
     "0b" ^ String.make 80 '1'; "1e999"; "-0"; "0x"; "\\u"; "\\uD800"; "\\u00"; "\"";
     "("; ")"; "["; "]"; "{"; "}" |]

let syntax = "{}[]():,\"\\0123456789abcdefxu-+.eE&|!=<> "

let byte_edit rng s =
  let n = String.length s in
  let at () = Rng.int rng (n + 1) in
  match Rng.int rng 7 with
  | 0 when n > 0 ->
      let c =
        if Rng.int rng 2 = 0 then Char.chr (Rng.int rng 256)
        else syntax.[Rng.int rng (String.length syntax)]
      in
      let i = Rng.int rng n in
      splice s (i, i + 1) (String.make 1 c)
  | 1 when n > 0 ->
      let i = Rng.int rng n in
      splice s (i, i + 1) ""
  | 2 when n > 0 ->
      let i = Rng.int rng n in
      splice s (i, i) (String.make 1 s.[i])
  | 3 -> String.sub s 0 (at ())
  | 4 ->
      let a = at () in
      splice s (a, a + Rng.int rng (n - a + 1)) ""
  | _ ->
      let i = at () in
      splice s (i, i) (pick rng tokens)

(* One round: eight mutants of every input of every parser, each one to
   four edits, drawn from [round_seed]. Adds each parser's [Ok] count to
   [oks]. *)
let parser_round oks round_seed =
  let rng = Rng.create round_seed in
  List.iteri
    (fun p (name, inputs, parse) ->
      List.iter
        (fun input ->
          for _ = 1 to 8 do
            let text = ref input in
            for _ = 0 to Rng.int rng 3 do
              text := byte_edit rng !text
            done;
            match parse !text with
            | true -> oks.(p) <- oks.(p) + 1
            | false -> ()
            | exception e ->
                Alcotest.failf "SWITCHV_QGEN_SEED=%d, round seed %d: %s raised %s on %S (mutant of %S)"
                  seed round_seed name (Printexc.to_string e) !text input
          done)
        inputs)
    parsers

let test_parsers_fixed_seed () =
  let oks = Array.make (List.length parsers) 0 in
  for round = 0 to 999 do
    parser_round oks ((seed * 1000) + round)
  done;
  (* Guard against a probe whose inputs went missing or whose every
     mutant dies at the first byte. *)
  List.iteri
    (fun p (name, inputs, _) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d inputs, %d mutants parsed" name (List.length inputs) oks.(p))
        true
        (inputs <> [] && oks.(p) > 0))
    parsers

let test_parsers_soak () =
  let deadline = Clock.now () +. (float_of_int soak_ms /. 1000.) in
  let oks = Array.make (List.length parsers) 0 in
  let round = ref 0 in
  while Clock.now () < deadline do
    incr round;
    parser_round oks ((seed * 1000) + 1000000 + !round)
  done

(* --- P4Runtime requests ------------------------------------------------------------ *)

let role_models =
  [ Switchv_sai.Figure2.program; Switchv_sai.Middleblock.program; Switchv_sai.Wan.program;
    Switchv_sai.Tor.program; Switchv_sai.Cerberus.program ]

(* Mostly the schema's width, so that some updates are valid and build
   state for modifies and deletes to find; otherwise anything from 1 to
   128. Values are mostly small for the same reason. *)
let width rng w = if Rng.int rng 4 = 0 then 1 + Rng.int rng 128 else w

let bits rng w = if Rng.bool rng then Bitvec.of_int ~width:w (Rng.int rng 4) else Rng.bitvec rng w
let value rng w = bits rng (width rng w)

let match_value rng kind w =
  let w = width rng w in
  let kind =
    if Rng.int rng 6 = 0 then pick rng [| Ast.Exact; Lpm; Ternary; Optional |] else kind
  in
  match kind with
  | Ast.Exact -> Entry.M_exact (bits rng w)
  | Lpm -> Entry.M_lpm (Prefix.make (Rng.bitvec rng w) (Rng.int rng (w + 1)))
  | Ternary -> Entry.M_ternary (Ternary.make ~value:(Rng.bitvec rng w) ~mask:(Rng.bitvec rng w))
  | Optional -> Entry.M_optional (if Rng.bool rng then Some (bits rng w) else None)

let invocation rng (ti : P4info.table) =
  let ar = Rng.choose rng ti.ti_actions in
  let args = List.map (fun (p : Ast.param) -> value rng p.p_width) ar.ar_params in
  let args =
    match (Rng.int rng 8, args) with
    | 0, _ :: rest -> rest
    | 1, _ -> args @ [ value rng 8 ]
    | _ -> args
  in
  { Entry.ai_name = (if Rng.int rng 8 = 0 then "no_such_action" else ar.ar_name);
    ai_args = args }

let arbitrary_matches rng (ti : P4info.table) =
  let matches =
    List.filter_map
      (fun (mf : P4info.match_field) ->
        if Rng.int rng 8 = 0 then None
        else Some { Entry.fm_field = mf.mf_name; fm_value = match_value rng mf.mf_kind mf.mf_width })
      ti.ti_match_fields
  in
  match (Rng.int rng 8, matches) with
  | 0, _ -> { Entry.fm_field = "no_such_field"; fm_value = match_value rng Ast.Exact 8 } :: matches
  | 1, m :: _ -> m :: matches
  | _ -> matches

let arbitrary_action rng ti =
  if Rng.int rng 4 = 0 then
    Entry.Weighted (List.init (Rng.int rng 4) (fun _ -> (invocation rng ti, Rng.int rng 5 - 2)))
  else Entry.Single (invocation rng ti)

let arbitrary_entry rng (info : P4info.t) =
  let ti = Rng.choose rng info.pi_tables in
  Entry.make ~priority:(Rng.int rng 3 - 1)
    ~table:(if Rng.int rng 16 = 0 then "no_such_table" else ti.ti_name)
    ~matches:(arbitrary_matches rng ti) (arbitrary_action rng ti)

(* A valid entry with one part made arbitrary. *)
let perturb rng info (e : Entry.t) =
  let ti = Option.get (P4info.find_table info e.e_table) in
  match Rng.int rng 4 with
  | 0 -> Entry.with_table e "no_such_table"
  | 1 -> Entry.with_priority e (Rng.int rng 3 - 1)
  | 2 -> Entry.with_matches e (arbitrary_matches rng ti)
  | _ -> Entry.with_action e (arbitrary_action rng ti)

(* A quarter of the updates carry the next entry of a valid,
   dependency-ordered entry set, and a quarter that entry with one part
   perturbed, so that the switch accepts some and its state grows. A
   quarter resend an entry sent before, so that modifies and deletes find
   installed entries and inserts meet duplicates. *)
let arbitrary_update rng info ~valid ~sent =
  let entry =
    match (Rng.int rng 4, !valid, !sent) with
    | 0, e :: rest, _ ->
        valid := rest;
        e
    | 1, e :: rest, _ ->
        valid := rest;
        perturb rng info e
    | 2, _, (_ :: _ as s) -> Rng.choose rng s
    | _ -> arbitrary_entry rng info
  in
  sent := entry :: !sent;
  { Request.op = pick rng [| Request.Insert; Insert; Modify; Delete |]; entry }

let valid_entries =
  List.map (fun p -> Workload.generate ~seed:1 p Workload.small) role_models

(* One round: four batches of one to eight updates to a clean stack of
   every role model, each judged by that model's oracle, drawn from
   [round_seed]. Returns how many updates the switch accepted. *)
let request_round round_seed =
  let rng = Rng.create round_seed in
  List.fold_left2
    (fun accepted (program : Ast.program) entries ->
      let stack = Stack.create program in
      ignore (Stack.push_p4info stack);
      let info = Stack.info stack in
      let oracle = Oracle.create info in
      let valid = ref entries and sent = ref [] and accepted = ref accepted in
      for _ = 1 to 4 do
        let updates =
          List.init (1 + Rng.int rng 8) (fun _ -> arbitrary_update rng info ~valid ~sent)
        in
        let fail msg =
          Alcotest.failf "SWITCHV_QGEN_SEED=%d, round seed %d, %s: %s@.--- batch ---@.%a" seed
            round_seed program.p_name msg
            (Format.pp_print_list Request.pp_update)
            updates
        in
        let call name f =
          try f () with e -> fail (Printf.sprintf "%s raised %s" name (Printexc.to_string e))
        in
        let n = List.length updates in
        let resp = call "Stack.write" (fun () -> Stack.write stack { Request.updates }) in
        if List.length resp.statuses <> n then
          fail (Printf.sprintf "Stack.write returned %d statuses" (List.length resp.statuses));
        let read_back = call "Stack.read" (fun () -> Stack.read stack) in
        (* [Oracle.judge_batch] is this judgement's incident list. *)
        let judged =
          call "Oracle.judge_batch" (fun () ->
              Oracle.judge_batch_detailed oracle updates resp ~read_back)
        in
        if List.length judged.per_update_ok <> n then
          fail
            (Printf.sprintf "the oracle judged %d of %d updates"
               (List.length judged.per_update_ok) n);
        accepted :=
          !accepted + List.length (List.filter Switchv_p4runtime.Status.is_ok resp.statuses)
      done;
      !accepted)
    0 role_models valid_entries

let test_requests_fixed_seed () =
  let accepted = ref 0 in
  for round = 0 to 399 do
    accepted := !accepted + request_round ((seed * 1000) + round)
  done;
  (* Guard against a generator whose every update is rejected at once. *)
  Alcotest.(check bool) (Printf.sprintf "updates accepted (%d)" !accepted) true (!accepted >= 1000)

let test_requests_soak () =
  let deadline = Clock.now () +. (float_of_int soak_ms /. 1000.) in
  let round = ref 0 in
  while Clock.now () < deadline do
    incr round;
    ignore (request_round ((seed * 1000) + 1000000 + !round))
  done

let () =
  Alcotest.run "mutants"
    [ ("mutants",
       [ Alcotest.test_case "fixed seed" `Quick test_fixed_seed;
         Alcotest.test_case "parsers" `Quick test_parsers_fixed_seed;
         Alcotest.test_case "p4runtime requests" `Quick test_requests_fixed_seed ]);
      ("soak",
       [ Alcotest.test_case "fresh mutants" `Slow test_soak;
         Alcotest.test_case "parsers" `Slow test_parsers_soak;
         Alcotest.test_case "p4runtime requests" `Slow test_requests_soak ]) ]
