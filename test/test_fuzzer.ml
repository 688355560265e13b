(* Tests for p4-fuzzer: generation validity split, mutation coverage,
   batch independence (the §4.4 invariants), determinism, and the sweep. *)

module Bitvec = Switchv_bitvec.Bitvec
module Rng = Switchv_bitvec.Rng
module Entry = Switchv_p4runtime.Entry
module Request = Switchv_p4runtime.Request
module State = Switchv_p4runtime.State
module Validate = Switchv_p4runtime.Validate
module P4info = Switchv_p4ir.P4info
module Fuzzer = Switchv_fuzzer.Fuzzer
module Middleblock = Switchv_sai.Middleblock
module Stack = Switchv_switch.Stack
module Control_campaign = Switchv_core.Control_campaign

let check_bool = Alcotest.check Alcotest.bool
let check_int = Alcotest.check Alcotest.int

let info = Middleblock.info

let make_fuzzer ?config seed = Fuzzer.create ?config info (Rng.create seed)

let batches fuzzer n = List.init n (fun _ -> Fuzzer.next_batch fuzzer)

(* Pair each batch with a snapshot of the mirror as of the batch's start
   (the mirror object is live and evolves across batches). *)
let batches_with_mirrors fuzzer n =
  List.init n (fun _ ->
      let snapshot = State.copy (Fuzzer.mirror fuzzer) in
      (Fuzzer.next_batch fuzzer, snapshot))

let test_deterministic () =
  let run seed =
    let f = make_fuzzer seed in
    List.concat_map
      (List.map (fun (a : Fuzzer.annotated_update) ->
           Format.asprintf "%a" Request.pp_update a.update))
      (batches f 5)
  in
  check_bool "same seed, same stream" true (run 11 = run 11);
  check_bool "different seeds differ" true (run 11 <> run 12);
  (* Deep into a campaign: every candidate list the fuzzer draws from must
     keep its contents and order, or the RNG draws (and so every corpus)
     shift. The digests were recorded before the fuzzer built per-batch
     views of its mirror. *)
  let digest lines = Digest.to_hex (Digest.string (String.concat "\n" lines)) in
  let stream seed ~respect =
    let f =
      make_fuzzer
        ~config:{ Fuzzer.respect_dependencies = respect }
        seed
    in
    let print batch =
      "--"
      :: List.map
           (fun (a : Fuzzer.annotated_update) ->
             Format.asprintf "%a %s" Request.pp_update a.update
               (Option.value ~default:"-" a.mutation))
           batch
    in
    digest (List.concat_map print (Fuzzer.sweep f @ batches f 100))
  in
  let read_back seed ~greybox =
    let stack = Stack.create Middleblock.program in
    ignore
      (Control_campaign.run stack
         { Control_campaign.default_config with batches = 100; seed; greybox });
    digest (List.map (Format.asprintf "%a" Entry.pp) (Stack.read stack).entries)
  in
  List.iter
    (fun (seed, respecting, ignoring, grey, blind) ->
      let pin what expected actual =
        Alcotest.(check string) (Printf.sprintf "seed %d: %s" seed what) expected actual
      in
      pin "sweep + 100 batches, dependencies respected" respecting
        (stream seed ~respect:true);
      pin "sweep + 100 batches, dependencies ignored" ignoring
        (stream seed ~respect:false);
      pin "read-back after 100 greybox batches" grey (read_back seed ~greybox:true);
      pin "read-back after 100 blind batches" blind (read_back seed ~greybox:false))
    [ ( 3,
        "d7743c35444133624aeecddabe807b38",
        "3f8b1f0e46dcfb5aba8117d9c3d24693",
        "48b4f772b5ca045525e0d72ae6c3aa13",
        "6e1458ce866748d781a4232585f97b61" );
      ( 7,
        "7f1dd4103bba1750ffeb09721e1d2389",
        "1bb3d5d9d7f55d1e3901da6affff3029",
        "82e84ca8ddd3aa523b71c4c1e609f3fc",
        "26f3065c5e1c7fe9e2894b1421ea1f90" );
      ( 23,
        "f1f839a9f3683a45fa88dbe2bc071135",
        "53326491cde1c0895e59992307fe8088",
        "00d4da6a673fccf7ba749c3bbf9c0486",
        "2d867a28fb9f8cfd38054195e8f0a596" ) ]

let test_unmutated_updates_syntactic () =
  (* Un-mutated updates must be syntactically valid (§4.1: the fuzzer
     "violates no obvious rules in the P4Runtime specification"). Per the
     paper, constraint compliance is deliberately NOT enforced at
     generation time — restricted tables frequently receive entries that
     violate their restrictions, and the oracle judges those like any
     other invalid request. *)
  let f = make_fuzzer 3 in
  let violations = ref 0 in
  List.iter
    (fun batch ->
      List.iter
        (fun (a : Fuzzer.annotated_update) ->
          if a.mutation = None && a.update.op = Request.Insert then begin
            (match Validate.syntactic info a.update.entry with
            | Ok () -> ()
            | Error s ->
                Alcotest.failf "unmutated insert is syntactically invalid (%s): %s"
                  (Format.asprintf "%a" Request.pp_update a.update)
                  (Format.asprintf "%a" Switchv_p4runtime.Status.pp s));
            if Validate.check_entry info a.update.entry |> Result.is_error then
              incr violations
          end)
        batch)
    (batches f 10);
  check_bool "constraint-violating valid-shaped entries do occur (§4.1)" true
    (!violations > 0)

let test_mutated_updates_invalid () =
  (* Every mutated update must actually be invalid: rejected by the
     state-independent check, a dangling reference, a duplicate, or a
     missing delete target — relative to the mirror as of the start of the
     update's own batch (the state the oracle would judge against). *)
  let f = make_fuzzer 7 in
  List.iter
    (fun (batch, mirror) ->
      List.iter
        (fun (a : Fuzzer.annotated_update) ->
          match a.mutation with
          | None -> ()
          | Some m ->
              let e = a.update.entry in
              let state_independent_invalid =
                Validate.check_entry info e |> Result.is_error
              in
              let dangling =
                Validate.check_references info e ~exists:(fun ~table ~key value ->
                    State.exists_value mirror ~table ~key value)
                |> Result.is_error
              in
              let invalid =
                match a.update.op with
                | Request.Insert ->
                    state_independent_invalid || dangling
                    || Option.is_some (State.find mirror e) (* duplicate *)
                | Request.Delete -> Option.is_none (State.find mirror e)
                | Request.Modify -> state_independent_invalid || dangling
              in
              if not invalid then
                Alcotest.failf "mutation %s produced a valid update: %s" m
                  (Format.asprintf "%a" Request.pp_update a.update))
        batch)
    (batches_with_mirrors f 8)

let test_mutation_diversity () =
  let f = make_fuzzer 5 in
  let seen = Hashtbl.create 16 in
  List.iter
    (List.iter (fun (a : Fuzzer.annotated_update) ->
         Option.iter (fun m -> Hashtbl.replace seen m ()) a.mutation))
    (batches f 30);
  let distinct = Hashtbl.length seen in
  check_bool
    (Printf.sprintf "at least 12 of %d mutations exercised (got %d)"
       (List.length Fuzzer.mutations) distinct)
    true (distinct >= 12)

let test_batch_no_duplicate_keys () =
  let f = make_fuzzer 9 in
  List.iter
    (fun batch ->
      let keys =
        List.map (fun (a : Fuzzer.annotated_update) -> Entry.match_key a.update.entry) batch
      in
      check_int "no two updates share an entry key" (List.length keys)
        (List.length (List.sort_uniq String.compare keys)))
    (batches f 10)

let test_batch_no_internal_dependencies () =
  (* No update may reference a value inserted or deleted by another update
     of the same batch (§4.4: batches must be order-independent). *)
  let f = make_fuzzer 13 in
  List.iter
    (fun batch ->
      let inserts_provide =
        List.concat_map
          (fun (a : Fuzzer.annotated_update) ->
            if a.update.op = Request.Insert && a.mutation = None then
              List.filter_map
                (fun (fm : Entry.field_match) ->
                  match fm.fm_value with
                  | Entry.M_exact v -> Some (a.update.entry.e_table, fm.fm_field, v)
                  | _ -> None)
                a.update.entry.e_matches
            else [])
          batch
      in
      List.iter
        (fun (a : Fuzzer.annotated_update) ->
          List.iter
            (fun (r : Validate.reference) ->
              let provided_in_batch =
                List.exists
                  (fun (t, k, v) ->
                    t = r.ref_table && k = r.ref_key && Bitvec.equal v r.ref_value)
                  inserts_provide
              in
              if a.mutation = None && provided_in_batch then
                Alcotest.failf "update depends on a same-batch insert: %s"
                  (Format.asprintf "%a" Request.pp_update a.update))
            (Validate.references info a.update.entry))
        batch)
    (batches f 10)

let test_mirror_tracks_valid_inserts () =
  let f = make_fuzzer 21 in
  ignore (batches f 10);
  check_bool "mirror grows" true (State.total (Fuzzer.mirror f) > 0)

let test_capacity_respected () =
  (* The fuzzer never plans more inserts than a table's guaranteed size. *)
  let f = make_fuzzer 17 in
  ignore (batches f 40);
  let mirror = Fuzzer.mirror f in
  List.iter
    (fun (ti : P4info.table) ->
      check_bool
        (Printf.sprintf "%s within size %d" ti.ti_name ti.ti_size)
        true
        (State.count mirror ti.ti_name <= ti.ti_size))
    info.pi_tables

(* --- maintained views ------------------------------------------------------- *)

(* The views the fuzzer keeps across batches against a rebuild from its
   mirror after every batch: every installed entry in insertion order, and
   those providing no value an installed entry references. Three fixed
   seeds, or the one in SWITCHV_FUZZ_SEED (`make check` sets a fresh one). *)
let test_views_match_rebuild () =
  let seeds =
    match Option.bind (Sys.getenv_opt "SWITCHV_FUZZ_SEED") int_of_string_opt with
    | Some seed -> [ seed ]
    | None -> [ 5; 14; 99 ]
  in
  let same what seed ~respect batch maintained rebuilt =
    if
      not
        (List.compare_lengths maintained rebuilt = 0
        && List.for_all2 Entry.equal maintained rebuilt)
    then
      Alcotest.failf
        "SWITCHV_FUZZ_SEED=%d respect=%b after %s: %s view has %d entries, a rebuild %d"
        seed respect batch what (List.length maintained) (List.length rebuilt)
  in
  List.iter
    (fun seed ->
      List.iter
        (fun respect ->
          let f =
            make_fuzzer
              ~config:{ Fuzzer.respect_dependencies = respect }
              seed
          in
          let check batch =
            let mirror = Fuzzer.mirror f in
            let keyed = List.map snd (State.all_keyed mirror) in
            let deletable =
              List.filter (fun e -> not (State.provides_referenced mirror info e)) keyed
            in
            let keyed', deletable' = Fuzzer.views f in
            same "keyed" seed ~respect batch keyed' keyed;
            same "deletable" seed ~respect batch deletable' deletable
          in
          List.iteri (fun i _ -> check (Printf.sprintf "sweep batch %d" i)) (Fuzzer.sweep f);
          for batch = 1 to 200 do
            ignore (Fuzzer.next_batch f);
            check (Printf.sprintf "batch %d" batch)
          done)
        [ true; false ])
    seeds

(* --- sweep ------------------------------------------------------------------ *)

let test_sweep_covers_tables () =
  let f = make_fuzzer 2 in
  let sweep = Fuzzer.sweep f in
  let inserted_tables = Hashtbl.create 16 in
  List.iter
    (List.iter (fun (a : Fuzzer.annotated_update) ->
         if a.mutation = None && a.update.op = Request.Insert then
           Hashtbl.replace inserted_tables a.update.entry.e_table ()))
    sweep;
  (* Every table gets at least one valid insert. *)
  List.iter
    (fun (ti : P4info.table) ->
      check_bool (ti.ti_name ^ " seeded by sweep") true
        (Hashtbl.mem inserted_tables ti.ti_name))
    info.pi_tables

let test_sweep_covers_mutations_per_table () =
  let f = make_fuzzer 2 in
  let sweep = Fuzzer.sweep f in
  let pairs = Hashtbl.create 64 in
  List.iter
    (List.iter (fun (a : Fuzzer.annotated_update) ->
         match a.mutation with
         | Some m -> Hashtbl.replace pairs (a.update.entry.e_table, m) ()
         | None -> ()))
    sweep;
  (* The always-applicable mutations hit every table. (invalid_table_id
     rewrites the table name itself, so count its occurrences globally.) *)
  List.iter
    (fun (ti : P4info.table) ->
      check_bool
        (Printf.sprintf "%s x duplicate_match_field in sweep" ti.ti_name)
        true
        (Hashtbl.mem pairs (ti.ti_name, "duplicate_match_field")))
    info.pi_tables;
  let ghost_inserts =
    Hashtbl.fold
      (fun (_, m) () acc -> if m = "invalid_table_id" then acc + 1 else acc)
      pairs 0
  in
  check_bool "invalid_table_id applied across the sweep" true
    (ghost_inserts >= List.length info.pi_tables);
  (* Constraint violations are exercised on the restricted tables. *)
  check_bool "vrf constraint violation swept" true
    (Hashtbl.mem pairs ("vrf_table", "constraint_violation"))

let test_negative_weight_strictly_negative () =
  (* Regression: the "invalid_action_selector_weight" mutation drew
     [-1 * Rng.int rng 2], which yielded weight 0 half the time — a
     possibly-valid update mislabeled as the negative-weight mutation.
     Scan the mutation across many seeds and insist every produced weight
     is strictly negative. *)
  let weights = ref [] in
  for seed = 1 to 20 do
    let f = make_fuzzer seed in
    List.iter
      (List.iter (fun (a : Fuzzer.annotated_update) ->
           match (a.mutation, a.update.entry.e_action) with
           | Some "invalid_action_selector_weight", Entry.Weighted ((_, w) :: _)
             ->
               weights := w :: !weights
           | _ -> ()))
      (batches f 5)
  done;
  check_bool "mutation fired at least once" true (!weights <> []);
  List.iter
    (fun w ->
      if w >= 0 then
        Alcotest.failf "negative-weight mutation produced weight %d" w)
    !weights

let test_sweep_respects_dependency_order () =
  let f = make_fuzzer 2 in
  let sweep = Fuzzer.sweep f in
  (* Scanning valid inserts in order, references must always resolve
     against what was inserted before. *)
  let seen = State.create () in
  List.iter
    (List.iter (fun (a : Fuzzer.annotated_update) ->
         if a.mutation = None && a.update.op = Request.Insert then begin
           (match
              Validate.check_references info a.update.entry
                ~exists:(fun ~table ~key value -> State.exists_value seen ~table ~key value)
            with
           | Ok () -> ()
           | Error _ ->
               Alcotest.failf "sweep insert has forward reference: %s"
                 (Format.asprintf "%a" Entry.pp a.update.entry));
           ignore (State.insert seen a.update.entry)
         end))
    sweep

(* --- greybox ------------------------------------------------------------------- *)

let test_greybox_mutation_bases () =
  (* Regression: "invalid_reference" paired an action's parameters with a
     greybox corpus base's arguments, whose count an earlier mutation may
     have changed, and raised [Invalid_argument "List.map2"]. Each of these
     seeds raised within 100 batches on a clean middleblock stack. *)
  List.iter
    (fun seed ->
      let stack = Stack.create Middleblock.program in
      let incidents, stats =
        Control_campaign.run stack
          { Control_campaign.default_config with batches = 100; seed; greybox = true }
      in
      check_int (Printf.sprintf "seed %d: no incidents" seed) 0 (List.length incidents);
      check_bool (Printf.sprintf "seed %d: campaign ran" seed) true
        (stats.Switchv_core.Report.cs_batches > 100))
    [ 5; 6; 7; 8; 14; 15; 21; 23; 99 ]

(* Regression: a model without tables lints clean, and its first valid
   insert raised drawing a table from the empty list. *)
let test_no_tables () =
  (* dune runtest runs in test/; `dune exec test/...` runs in the root *)
  let path =
    if Sys.file_exists "fixtures" then "fixtures/no_tables.p4" else "test/fixtures/no_tables.p4"
  in
  let program =
    Switchv_p4ir.P4parser.parse_exn ~name:"no_tables"
      (In_channel.with_open_bin path In_channel.input_all)
  in
  let f = Fuzzer.create (P4info.of_program program) (Rng.create 1) in
  check_int "sweep batches" 0 (List.length (Fuzzer.sweep f));
  check_int "batch updates" 0 (List.length (Fuzzer.next_batch f))

let () =
  Alcotest.run "fuzzer"
    [ ("generation",
       [ Alcotest.test_case "deterministic" `Quick test_deterministic;
         Alcotest.test_case "unmutated updates syntactic" `Quick
           test_unmutated_updates_syntactic;
         Alcotest.test_case "mutated updates are invalid" `Quick test_mutated_updates_invalid;
         Alcotest.test_case "mutation diversity" `Quick test_mutation_diversity;
         Alcotest.test_case "negative weight strictly negative" `Quick
           test_negative_weight_strictly_negative;
         Alcotest.test_case "mirror tracks inserts" `Quick test_mirror_tracks_valid_inserts;
         Alcotest.test_case "capacity respected" `Quick test_capacity_respected;
         Alcotest.test_case "model without tables" `Quick test_no_tables ]);
      ("batching",
       [ Alcotest.test_case "no duplicate keys" `Quick test_batch_no_duplicate_keys;
         Alcotest.test_case "no internal dependencies" `Quick test_batch_no_internal_dependencies ]);
      ("sweep",
       [ Alcotest.test_case "covers all tables" `Quick test_sweep_covers_tables;
         Alcotest.test_case "covers mutations per table" `Quick test_sweep_covers_mutations_per_table;
         Alcotest.test_case "dependency order" `Quick test_sweep_respects_dependency_order ]);
      ("greybox",
       [ Alcotest.test_case "mutation bases of any shape" `Quick test_greybox_mutation_bases ]);
      ("views",
       [ Alcotest.test_case "maintained views match a rebuild" `Quick
           test_views_match_rebuild ]) ]
