module Ast = Switchv_p4ir.Ast
module P4info = Switchv_p4ir.P4info
module Bitvec = Switchv_bitvec.Bitvec
module Prefix = Switchv_bitvec.Prefix
module Ternary = Switchv_bitvec.Ternary
module Rng = Switchv_bitvec.Rng
module Entry = Switchv_p4runtime.Entry
module Request = Switchv_p4runtime.Request
module State = Switchv_p4runtime.State
module Validate = Switchv_p4runtime.Validate
module Bdd = Switchv_p4constraints.Bdd

type config = { respect_dependencies : bool }

let default_config = { respect_dependencies = true }

(* A random batch makes 50 draws, about the paper's batch size: 30% for
   mutated (invalid) updates, and of the valid ones 25% deletes, 10%
   modifies and the rest inserts. *)
let updates_per_batch = 50
let invalid_percent = 30
let delete_percent = 25
let modify_percent = 10

(* --- views of the mirror ------------------------------------------------------- *)

(* (table, key, value) triples: references, and the values entries provide. *)
module Refs = State.Values

(* A set of positions [0, capacity) under a Fenwick tree of membership
   counts, so that [rank] (members before a position) and [select] (the
   position of the member of a given rank) cost O(log capacity). *)
module Ranked = struct
  type t = { flags : Bytes.t; tree : int array; mutable size : int }

  let lowbit i = i land -i

  (* The positions [member] selects among the first [n], built in O(n). *)
  let init n member =
    let s = { flags = Bytes.make n '\000'; tree = Array.make (n + 1) 0; size = 0 } in
    for p = 0 to n - 1 do
      if member p then begin
        Bytes.set s.flags p '\001';
        s.size <- s.size + 1;
        s.tree.(p + 1) <- 1
      end
    done;
    for i = 1 to n do
      let j = i + lowbit i in
      if j <= n then s.tree.(j) <- s.tree.(j) + s.tree.(i)
    done;
    s

  let mem s p = Bytes.get s.flags p = '\001'

  let bump s p delta =
    let i = ref (p + 1) in
    while !i < Array.length s.tree do
      s.tree.(!i) <- s.tree.(!i) + delta;
      i := !i + lowbit !i
    done

  let set s p member =
    if member <> mem s p then begin
      Bytes.set s.flags p (if member then '\001' else '\000');
      s.size <- (s.size + if member then 1 else -1);
      bump s p (if member then 1 else -1)
    end

  let rank s p =
    let r = ref 0 and i = ref p in
    while !i > 0 do
      r := !r + s.tree.(!i);
      i := !i - lowbit !i
    done;
    !r

  (* Descend the tree: the largest prefix holding at most [k] members ends
     just before the member of rank [k]. *)
  let select s k =
    let n = Array.length s.tree - 1 in
    let step = ref 1 in
    while 2 * !step <= n do
      step := 2 * !step
    done;
    let p = ref 0 and k = ref k in
    while !step > 0 do
      let q = !p + !step in
      if q <= n && s.tree.(q) <= !k then begin
        p := q;
        k := !k - s.tree.(q)
      end;
      step := !step / 2
    done;
    !p
end

(* The mirror's entries by insertion position, with the two subsets the
   RNG draws from: [keyed] (every installed entry) and [deletable] (those
   providing no value an installed entry references). A draw over a set
   takes the member of the drawn rank, so it picks what it would from a
   scan of the mirror in insertion order. The fuzzer's own mirror writes
   ([apply_valid]) keep all of it current; no batch rebuilds it. *)
type views = {
  mutable at : Entry.t array;  (* by position; [vacant] where unused *)
  mutable next : int;          (* first position never used *)
  pos : (string, int) Hashtbl.t;  (* match key -> position *)
  mutable keyed : Ranked.t;
  mutable deletable : Ranked.t;
  provided : string list Refs.t;
      (* per (table, field, value) that installed entries provide through
         an exact or present optional match: their match keys *)
}

let vacant = Entry.make ~table:"" ~matches:[] (Entry.Single { ai_name = ""; ai_args = [] })

let new_views () =
  let none _ = false in
  { at = Array.make 64 vacant; next = 0; pos = Hashtbl.create 64;
    keyed = Ranked.init 64 none; deletable = Ranked.init 64 none; provided = Refs.create 64 }

(* Renumber the live positions [0, live) in order, with as much room
   again: each compaction is paid for by the inserts that filled it. *)
let compact v =
  let live = v.keyed.size in
  let n = max 64 (2 * live) in
  let at = Array.make n vacant in
  let deletable = Array.make n false in
  let q = ref 0 in
  for p = 0 to v.next - 1 do
    if Ranked.mem v.keyed p then begin
      at.(!q) <- v.at.(p);
      deletable.(!q) <- Ranked.mem v.deletable p;
      Hashtbl.replace v.pos (Entry.match_key v.at.(p)) !q;
      incr q
    end
  done;
  v.at <- at;
  v.next <- live;
  v.keyed <- Ranked.init n (fun p -> p < live);
  v.deletable <- Ranked.init n (Array.get deletable)

(* Add the (table, key, value) references [e] makes to [set]. *)
let add_references info set e =
  List.iter
    (fun (r : Validate.reference) -> Refs.replace set (r.ref_table, r.ref_key, r.ref_value) ())
    (Validate.references info e)

type t = {
  info : P4info.t;
  rng : Rng.t;
  config : config;
  mirror_ : State.t;
  bdds : (string, Bdd.compiled option) Hashtbl.t;
      (* per-table compiled entry restriction (None = unsupported), for the
         BDD-based constraint sampling of §7 *)
  dead : (string, bool) Hashtbl.t;
      (* tables whose restriction is unsatisfiable (analysis code P4A004):
         valid-insert generation skips them *)
  greybox : Greybox.t option;
      (* coverage feedback: energy-weighted table choice and corpus-seeded
         mutation bases. [None] draws uniformly from [rng] only, exactly
         the pre-greybox stream. *)
  views : views;  (* what the draws index, kept in step with [mirror_] *)
}

let create ?(config = default_config) ?greybox info rng =
  { info; rng; config; mirror_ = State.create (); bdds = Hashtbl.create 8;
    dead = Hashtbl.create 8; greybox; views = new_views () }

(* The table's compiled entry restriction (§7), memoized per table.
   Unsupported shapes (LPM keys, ::prefix_length) yield None and callers
   fall back to heuristics. *)
let table_bdd t (ti : P4info.table) =
  match Hashtbl.find_opt t.bdds ti.ti_name with
  | Some cached -> cached
  | None ->
      let compiled = P4info.restriction_bdd ti in
      Hashtbl.replace t.bdds ti.ti_name compiled;
      compiled

(* A table whose entry restriction admits zero assignments can never
   accept a valid insert: every generation attempt would be rejected by
   validation. The static analysis reports these as P4A004; here the
   fuzzer independently reuses the compiled BDD to skip them. *)
let table_dead t (ti : P4info.table) =
  match Hashtbl.find_opt t.dead ti.ti_name with
  | Some d -> d
  | None ->
      let d =
        match table_bdd t ti with
        | Some c -> Bdd.model_count c = 0.
        | None -> false
      in
      Hashtbl.replace t.dead ti.ti_name d;
      d

(* Rewrite the entry's matches on the sampled keys. A zero ternary mask
   means the key is omitted. *)
let merge_assignment (ti : P4info.table) (e : Entry.t) (a : Bdd.assignment) =
  let sampled k = List.mem_assoc k a.values in
  let kept =
    List.filter (fun (fm : Entry.field_match) -> not (sampled fm.fm_field)) e.e_matches
  in
  let added =
    List.filter_map
      (fun (k, v) ->
        match P4info.find_match_field ti k with
        | Some { mf_kind = Ast.Exact; _ } ->
            Some { Entry.fm_field = k; fm_value = Entry.M_exact v }
        | Some { mf_kind = Ast.Optional; _ } ->
            Some { Entry.fm_field = k; fm_value = Entry.M_optional (Some v) }
        | Some { mf_kind = Ast.Ternary; _ } -> (
            match List.assoc_opt k a.masks with
            | Some mask when not (Bitvec.is_zero mask) ->
                Some
                  { Entry.fm_field = k;
                    fm_value = Entry.M_ternary (Ternary.make ~value:v ~mask) }
            | _ -> None (* wildcard: omit *))
        | _ -> None)
      a.values
  in
  Entry.with_matches e (kept @ added)

let mirror t = t.mirror_

type annotated_update = {
  update : Request.update;
  mutation : string option;
}

module Telemetry = Switchv_telemetry.Telemetry

(* Every batch handed to a campaign is accounted: how many updates were
   generated, and how many carried a mutation (the "interestingly invalid"
   share of §4.2). *)
let account_batch batch =
  let tele = Telemetry.get () in
  if Telemetry.enabled tele then begin
    Telemetry.incr tele "fuzzer.batches";
    Telemetry.incr ~n:(List.length batch) tele "fuzzer.updates";
    Telemetry.incr tele "fuzzer.mutated_updates"
      ~n:(List.length (List.filter (fun a -> a.mutation <> None) batch))
  end;
  batch

let mutations =
  [ "invalid_table_id"; "invalid_table_action"; "invalid_match_field_id";
    "invalid_match_type"; "duplicate_match_field"; "missing_mandatory_match_field";
    "wrong_action_arg_count"; "wrong_action_arg_width";
    "invalid_action_selector_weight"; "invalid_table_implementation";
    "invalid_reference"; "constraint_violation"; "bdd_constraint_violation";
    "duplicate_insert"; "delete_nonexistent"; "zero_priority" ]

(* --- keeping the views current ------------------------------------------------ *)

(* Apply one of the fuzzer's valid updates to the mirror and to the keyed
   view. The references it adds or drops go to [touched] and a new
   entry's key to [fresh]: their deletability is settled afterwards. *)
let write_mirror t touched fresh (op, e) =
  let v = t.views in
  let touch = add_references t.info touched in
  let key = Entry.match_key e in
  match op with
  | Request.Insert ->
      if Result.is_ok (State.insert t.mirror_ e) then begin
        if v.next = Array.length v.at then compact v;
        let p = v.next in
        v.next <- p + 1;
        v.at.(p) <- e;
        Hashtbl.replace v.pos key p;
        Ranked.set v.keyed p true;
        List.iter
          (fun r ->
            Refs.replace v.provided r
              (key :: Option.value ~default:[] (Refs.find_opt v.provided r)))
          (State.provided e);
        fresh := key :: !fresh;
        touch e
      end
  | Request.Modify ->
      (* Same key, so the same matches: only the references move. *)
      if Result.is_ok (State.modify t.mirror_ e) then begin
        let p = Hashtbl.find v.pos key in
        touch v.at.(p);
        v.at.(p) <- e;
        touch e
      end
  | Request.Delete ->
      if Result.is_ok (State.delete t.mirror_ e) then begin
        let p = Hashtbl.find v.pos key in
        let old = v.at.(p) in
        v.at.(p) <- vacant;
        Hashtbl.remove v.pos key;
        Ranked.set v.keyed p false;
        Ranked.set v.deletable p false;
        List.iter
          (fun r ->
            let keys = Option.value ~default:[] (Refs.find_opt v.provided r) in
            match List.filter (fun k -> not (String.equal k key)) keys with
            | [] -> Refs.remove v.provided r
            | keys -> Refs.replace v.provided r keys)
          (State.provided old);
        touch old
      end

(* The fuzzer's only mirror writes: a batch's valid updates, in order. An
   entry's deletability changes only when a reference to a value it
   provides comes or goes, so only new entries and the providers of
   touched values are asked again. *)
let apply_valid t pending =
  let touched = Refs.create 16 and fresh = ref [] in
  List.iter (write_mirror t touched fresh) pending;
  let v = t.views in
  let settle key =
    match Hashtbl.find_opt v.pos key with
    | None -> ()
    | Some p ->
        Ranked.set v.deletable p
          (not (State.provides_referenced t.mirror_ t.info v.at.(p)))
  in
  List.iter settle !fresh;
  Refs.iter
    (fun r () -> Option.iter (List.iter settle) (Refs.find_opt v.provided r))
    touched

let members t set =
  let v = t.views in
  List.filter_map
    (fun p -> if Ranked.mem set p then Some v.at.(p) else None)
    (List.init v.next Fun.id)

let views t = (members t t.views.keyed, members t t.views.deletable)

(* --- the batch under construction --------------------------------------------- *)

(* The mirror does not change while a batch is built (its valid updates
   are applied when it closes), and the views already describe it. What
   changes as the batch fills (claimed keys, tombstones, pending
   references) is applied per call, by looking up what it excludes. *)
type batch = {
  mutable updates : annotated_update list;    (* newest first *)
  mutable valid : (Request.op * Entry.t) list;  (* its valid updates, newest first *)
  taken : (string, unit) Hashtbl.t;           (* match keys claimed this batch *)
  tombstoned : (string, string) Hashtbl.t;
      (* match keys being deleted, with their table *)
  batch_refs : unit Refs.t;
      (* (table, key, value) references made by updates pending in this
         batch: entries providing these values must not be deleted in the
         same batch, or validity would depend on execution order (§4.4) *)
  batch_provides : (string * string * Bitvec.t) list ref;
      (* values newly provided by pending inserts; Invalid Reference
         mutations must not collide with them *)
  batch_inserts : (string, int) Hashtbl.t;
      (* pending insert count per table, so one batch cannot overshoot a
         table's guaranteed capacity (which would make acceptance
         order-dependent) *)
  referables : (string * string, (string * Bitvec.t) list * Bitvec.t list) Hashtbl.t;
      (* per @refers_to (table, key): the value each entry provides under
         the key's first match, with and without its match key *)
}

let new_batch () =
  { updates = []; valid = []; taken = Hashtbl.create 64; tombstoned = Hashtbl.create 16;
    batch_refs = Refs.create 16; batch_provides = ref []; batch_inserts = Hashtbl.create 16;
    referables = Hashtbl.create 8 }

let pending_inserts ctx table =
  Option.value ~default:0 (Hashtbl.find_opt ctx.batch_inserts table)

let claim ctx e =
  let k = Entry.match_key e in
  if Hashtbl.mem ctx.taken k then false
  else begin
    Hashtbl.add ctx.taken k ();
    true
  end

(* Add a valid update; the caller has claimed its key. A delete
   tombstones the key; an insert or modify records what it references and
   provides, and an insert counts against its table's capacity. *)
let add_valid t ctx op (e : Entry.t) =
  (match op with
  | Request.Delete -> Hashtbl.replace ctx.tombstoned (Entry.match_key e) e.e_table
  | Request.Insert | Request.Modify ->
      add_references t.info ctx.batch_refs e;
      ctx.batch_provides := List.rev_append (State.provided e) !(ctx.batch_provides);
      if op = Request.Insert then
        Hashtbl.replace ctx.batch_inserts e.e_table (pending_inserts ctx e.e_table + 1));
  ctx.updates <- { update = { Request.op; entry = e }; mutation = None } :: ctx.updates;
  ctx.valid <- (op, e) :: ctx.valid

(* Add a mutated update; the caller has claimed its key. *)
let add_invalid ctx update m = ctx.updates <- { update; mutation = Some m } :: ctx.updates

(* The finished batch, in order. Its valid updates are applied to the
   mirror, optimistically: the oracle reconciles against the switch. *)
let close t ctx =
  apply_valid t (List.rev ctx.valid);
  account_batch (List.rev ctx.updates)

(* The slot of the entry filed under [key] in [set]: its rank there. *)
let slot_of t set key =
  match Hashtbl.find_opt t.views.pos key with
  | Some p when Ranked.mem set p -> Some (Ranked.rank set p)
  | _ -> None

(* Slots of [set] whose entries an earlier update of this batch claimed. *)
let claimed t ctx set =
  Hashtbl.fold
    (fun k () acc -> match slot_of t set k with Some i -> i :: acc | None -> acc)
    ctx.taken []

(* [Rng.choose] over [set]'s entries minus the [excluded] slots: the same
   draw from the same candidates, found by counting past the excluded
   slots instead of building the list. *)
let choose_except t (set : Ranked.t) excluded =
  let excluded = List.sort_uniq Int.compare excluded in
  match set.size - List.length excluded with
  | 0 -> None
  | n ->
      let k = Rng.int t.rng n in
      let slot = List.fold_left (fun i x -> if x <= i then i + 1 else i) k excluded in
      Some t.views.at.(Ranked.select set slot)

let referables t ctx ~table ~key =
  match Hashtbl.find_opt ctx.referables (table, key) with
  | Some provided -> provided
  | None ->
      let keyed =
        List.filter_map
          (fun (k, e) ->
            match Entry.find_match e key with
            | Some (Entry.M_exact v) | Some (Entry.M_optional (Some v)) -> Some (k, v)
            | _ -> None)
          (State.entries_of_keyed t.mirror_ table)
      in
      let provided = (keyed, List.map snd keyed) in
      Hashtbl.add ctx.referables (table, key) provided;
      provided

(* Values usable to satisfy a @refers_to (table, key) reference, excluding
   entries being deleted in this batch. *)
let referable t ctx ~table ~key =
  let keyed, values = referables t ctx ~table ~key in
  if
    t.config.respect_dependencies
    && Hashtbl.fold (fun _ tbl acc -> acc || String.equal tbl table) ctx.tombstoned false
  then
    List.filter_map
      (fun (k, v) -> if Hashtbl.mem ctx.tombstoned k then None else Some v)
      keyed
  else values

(* A value guaranteed absent from the referable set (for Invalid Reference),
   including values pending insertion in this batch. *)
let unused_value t ctx ~table ~key ~width =
  let used = referable t ctx ~table ~key in
  let pending =
    List.filter_map
      (fun (tbl, k, v) ->
        if String.equal tbl table && String.equal k key then Some v else None)
      !(ctx.batch_provides)
  in
  let used = used @ pending in
  let rec find candidate attempts =
    let v = Bitvec.of_int ~width candidate in
    if attempts = 0 || not (List.exists (Bitvec.equal v) used) then v
    else find (candidate - 1) (attempts - 1)
  in
  find ((1 lsl min width 16) - 2) 64

(* --- valid generation --------------------------------------------------------- *)

let small_bv t width =
  (* Biased toward small values, which interact with references and
     restrictions more interestingly than uniform 128-bit noise. *)
  if Rng.int t.rng 2 = 0 then Bitvec.of_int ~width (1 + Rng.int t.rng (min 63 ((1 lsl min width 10) - 1)))
  else Rng.bitvec t.rng width

let gen_match_value t ctx (mf : P4info.match_field) =
  let refers v_gen =
    match mf.mf_refers_to with
    | Some (table, key) -> (
        match referable t ctx ~table ~key with
        | [] -> None
        | vs -> Some (Rng.choose t.rng vs))
    | None -> Some (v_gen ())
  in
  match mf.mf_kind with
  | Ast.Exact ->
      refers (fun () -> small_bv t mf.mf_width)
      |> Option.map (fun v -> Some (Entry.M_exact v))
  | Ast.Optional ->
      if Rng.int t.rng 2 = 0 then Some None
      else
        refers (fun () -> small_bv t mf.mf_width)
        |> Option.map (fun v -> Some (Entry.M_optional (Some v)))
  | Ast.Lpm ->
      let len = 1 + Rng.int t.rng mf.mf_width in
      let v = Rng.bitvec t.rng mf.mf_width in
      Some (Some (Entry.M_lpm (Prefix.make v len)))
  | Ast.Ternary ->
      if Rng.int t.rng 3 = 0 then Some None
      else begin
        let mask =
          let m = Rng.bitvec t.rng mf.mf_width in
          if Bitvec.is_zero m then Bitvec.ones mf.mf_width else m
        in
        let v = Rng.bitvec t.rng mf.mf_width in
        Some (Some (Entry.M_ternary (Ternary.make ~value:v ~mask)))
      end

let gen_invocation t ctx (ar : P4info.action_ref) =
  let args =
    List.map
      (fun (p : Ast.param) ->
        match p.p_refers_to with
        | Some (table, key) -> (
            match referable t ctx ~table ~key with
            | [] -> None
            | vs -> Some (Rng.choose t.rng vs))
        | None -> Some (small_bv t p.p_width))
      ar.ar_params
  in
  if List.exists Option.is_none args then None
  else Some { Entry.ai_name = ar.ar_name; ai_args = List.map Option.get args }

let gen_action t ctx (ti : P4info.table) =
  (* Avoid generating entries whose action is the bare default marker
     no_action in selector tables etc.; any permitted action is fine. *)
  let ar = Rng.choose t.rng ti.ti_actions in
  if ti.ti_selector then begin
    let members = 1 + Rng.int t.rng 3 in
    let invs =
      List.init members (fun _ ->
          gen_invocation t ctx (Rng.choose t.rng ti.ti_actions))
    in
    if List.exists Option.is_none invs then None
    else begin
      let invs = List.map Option.get invs in
      (* Sometimes duplicate a member: same-action buckets are valid per
         the P4Runtime spec and a known switch stumbling block (§6.1). *)
      let invs =
        match invs with
        | first :: _ when Rng.int t.rng 3 = 0 -> first :: invs
        | _ -> invs
      in
      Some (Entry.Weighted (List.map (fun i -> (i, 1 + Rng.int t.rng 4)) invs))
    end
  end
  else gen_invocation t ctx ar |> Option.map (fun i -> Entry.Single i)

let gen_entry t ctx (ti : P4info.table) =
  let matches =
    List.map
      (fun (mf : P4info.match_field) ->
        match gen_match_value t ctx mf with
        | None -> None (* unsatisfiable reference *)
        | Some None -> Some None (* omitted wildcard *)
        | Some (Some v) -> Some (Some { Entry.fm_field = mf.mf_name; fm_value = v }))
      ti.ti_match_fields
  in
  if List.exists Option.is_none matches then None
  else begin
    let matches = List.filter_map Fun.id (List.map Option.get matches) in
    let priority = if P4info.requires_priority ti then 1 + Rng.int t.rng 100 else 0 in
    match gen_action t ctx ti with
    | None -> None
    | Some action ->
        let entry = Entry.make ~priority ~table:ti.ti_name ~matches action in
        (* §7: with a compiled restriction BDD available, sample the
           constrained keys compliantly most of the time, so restricted
           tables also receive genuinely valid traffic. (Keys that carry
           @refers_to keep their reference-derived values.) *)
        let entry =
          match table_bdd t ti with
          | Some c when Rng.int t.rng 100 < 60 -> (
              match Bdd.sample_compliant c t.rng with
              | Some a ->
                  let unconstrained_by_refs (k, _) =
                    match P4info.find_match_field ti k with
                    | Some { mf_refers_to = Some _; _ } -> false
                    | _ -> true
                  in
                  merge_assignment ti entry
                    { a with values = List.filter unconstrained_by_refs a.values }
              | None -> entry)
          | _ -> entry
        in
        Some entry
  end

let skip_dead t ti =
  table_dead t ti
  && begin
       Telemetry.incr (Telemetry.get ()) "analysis.dead_tables_skipped";
       true
     end

(* A model without tables has nothing to insert. The test comes before
   any draw, so it never shifts the RNG stream. *)
let rec gen_valid_insert t ctx attempts =
  if attempts = 0 || t.info.pi_tables = [] then None
  else begin
    let ti =
      match t.greybox with
      | Some gb -> Greybox.pick_table gb t.info.pi_tables
      | None -> Rng.choose t.rng t.info.pi_tables
    in
    if skip_dead t ti then gen_valid_insert t ctx (attempts - 1)
    else
      match gen_entry t ctx ti with
      | Some e
        when Option.is_none (State.find t.mirror_ e)
             && (not (Hashtbl.mem ctx.taken (Entry.match_key e)))
             && State.count t.mirror_ ti.ti_name + pending_inserts ctx ti.ti_name
                < ti.ti_size ->
          Some e
      | _ -> gen_valid_insert t ctx (attempts - 1)
  end

(* The slots of the deletable view a valid delete may not target: claimed
   by an earlier update of this batch or, when [respect], providing a
   value a pending update references. *)
let undeletable t ctx ~respect =
  let v = t.views in
  let referenced =
    if respect then
      Refs.fold
        (fun r () acc ->
          List.fold_left
            (fun acc k -> match slot_of t v.deletable k with Some i -> i :: acc | None -> acc)
            acc
            (Option.value ~default:[] (Refs.find_opt v.provided r)))
        ctx.batch_refs []
    else []
  in
  claimed t ctx v.deletable @ referenced

let gen_valid_delete t ctx =
  choose_except t t.views.deletable
    (undeletable t ctx ~respect:t.config.respect_dependencies)

let gen_valid_modify t ctx =
  match choose_except t t.views.keyed (claimed t ctx t.views.keyed) with
  | None -> None
  | Some e -> (
      match P4info.find_table t.info e.e_table with
      | None -> None
      | Some ti ->
          gen_action t ctx ti
          |> Option.map (Entry.with_action e))

(* --- mutations (§4.2) --------------------------------------------------------- *)

let all_actions info =
  List.concat_map (fun (ti : P4info.table) -> ti.ti_actions) info.P4info.pi_tables

(* [e] with [f] applied to its action invocation (a selector's first
   member); [None] where [f] declines or there is no invocation. *)
let on_first_invocation (e : Entry.t) f =
  match e.e_action with
  | Entry.Single ai -> f ai |> Option.map (fun ai -> Entry.with_action e (Entry.Single ai))
  | Entry.Weighted ((ai, w) :: rest) ->
      f ai |> Option.map (fun ai -> Entry.with_action e (Entry.Weighted ((ai, w) :: rest)))
  | Entry.Weighted [] -> None

let mutate t ctx (e : Entry.t) mutation : Entry.t option =
  let ti = P4info.find_table t.info e.e_table in
  match (mutation, ti) with
  | "invalid_table_id", _ ->
      Some (Entry.with_table e (Printf.sprintf "ghost_table_%d" (Rng.int t.rng 1000)))
  | "invalid_table_action", Some ti -> (
      let foreign =
        all_actions t.info
        |> List.filter (fun (ar : P4info.action_ref) ->
               P4info.find_action ti ar.ar_name = None)
      in
      match foreign with
      | [] -> None
      | _ ->
          let ar = Rng.choose t.rng foreign in
          let args = List.map (fun (p : Ast.param) -> Rng.bitvec t.rng p.p_width) ar.ar_params in
          let inv = { Entry.ai_name = ar.ar_name; ai_args = args } in
          Some
            (Entry.with_action e
               (match e.e_action with
               | Entry.Single _ -> Entry.Single inv
               | Entry.Weighted ws -> Entry.Weighted ((inv, 1) :: List.tl ws))))
  | "invalid_match_field_id", _ -> (
      match e.e_matches with
      | [] -> None
      | fm :: rest -> Some (Entry.with_matches e ({ fm with fm_field = "ghost_field" } :: rest)))
  | "invalid_match_type", _ -> (
      let flip (fm : Entry.field_match) =
        match fm.fm_value with
        | Entry.M_exact v -> Some { fm with fm_value = Entry.M_lpm (Prefix.full v) }
        | Entry.M_lpm p -> Some { fm with fm_value = Entry.M_exact (Prefix.value p) }
        | Entry.M_ternary tn -> Some { fm with fm_value = Entry.M_exact (Ternary.value tn) }
        | Entry.M_optional (Some v) -> Some { fm with fm_value = Entry.M_ternary (Ternary.exact v) }
        | Entry.M_optional None -> None
      in
      let rec try_flip = function
        | [] -> None
        | fm :: rest -> (
            match flip fm with
            | Some fm' -> Some (fm' :: rest)
            | None -> Option.map (fun r -> fm :: r) (try_flip rest))
      in
      try_flip e.e_matches |> Option.map (Entry.with_matches e))
  | "duplicate_match_field", _ -> (
      match e.e_matches with
      | [] -> None
      | fm :: _ -> Some (Entry.with_matches e (fm :: e.e_matches)))
  | "missing_mandatory_match_field", Some ti -> (
      let mandatory =
        List.filter
          (fun (fm : Entry.field_match) ->
            match P4info.find_match_field ti fm.fm_field with
            | Some { mf_kind = Ast.Exact; _ } -> true
            | _ -> false)
          e.e_matches
      in
      match mandatory with
      | [] -> None
      | fm :: _ ->
          Some
            (Entry.with_matches e
               (List.filter
                  (fun (m : Entry.field_match) -> not (String.equal m.fm_field fm.fm_field))
                  e.e_matches)))
  | "wrong_action_arg_count", _ ->
      on_first_invocation e (fun ai ->
          match ai.ai_args with
          | [] -> Some { ai with ai_args = [ Bitvec.of_int ~width:8 1 ] }
          | _ :: rest -> Some { ai with ai_args = rest })
  | "wrong_action_arg_width", _ ->
      on_first_invocation e (fun ai ->
          match ai.ai_args with
          | [] -> None
          | a :: rest -> Some { ai with ai_args = Bitvec.zero_extend (Bitvec.width a + 8) a :: rest })
  | "invalid_action_selector_weight", _ -> (
      match e.e_action with
      | Entry.Weighted ((ai, _) :: rest) ->
          (* Strictly negative: [-1 * Rng.int t.rng 2] yielded weight 0 half
             the time, a possibly-valid update mislabeled as this invalid
             mutation (flaky oracle verdicts). Same single draw, so the RNG
             stream is unchanged. *)
          Some (Entry.with_action e (Entry.Weighted ((ai, -1 - Rng.int t.rng 2) :: rest)))
      | _ -> None)
  | "invalid_table_implementation", _ -> (
      match e.e_action with
      | Entry.Single ai -> Some (Entry.with_action e (Entry.Weighted [ (ai, 1) ]))
      | Entry.Weighted ((ai, _) :: _) -> Some (Entry.with_action e (Entry.Single ai))
      | Entry.Weighted [] -> None)
  | "invalid_reference", Some ti -> (
      (* Replace a reference (match or action arg) with a non-existent id. *)
      let try_match () =
        let rec go = function
          | [] -> None
          | (fm : Entry.field_match) :: rest -> (
              match P4info.find_match_field ti fm.fm_field with
              | Some { mf_refers_to = Some (table, key); mf_width; _ } -> (
                  match fm.fm_value with
                  | Entry.M_exact _ ->
                      let v = unused_value t ctx ~table ~key ~width:mf_width in
                      Some ({ fm with fm_value = Entry.M_exact v } :: rest)
                  | _ -> Option.map (fun r -> fm :: r) (go rest))
              | _ -> Option.map (fun r -> fm :: r) (go rest))
        in
        go e.e_matches |> Option.map (Entry.with_matches e)
      in
      let try_args () =
        on_first_invocation e (fun ai ->
            match P4info.find_action ti ai.ai_name with
            | None -> None
            | Some ar when List.compare_lengths ar.ar_params ai.ai_args <> 0 ->
                (* A greybox corpus base can carry an earlier mutation's
                   argument count; there is no argument to swap in place. *)
                None
            | Some ar ->
                let changed = ref false in
                let args =
                  List.map2
                    (fun (p : Ast.param) arg ->
                      match p.p_refers_to with
                      | Some (table, key) when not !changed ->
                          changed := true;
                          unused_value t ctx ~table ~key ~width:p.p_width
                      | _ -> arg)
                    ar.ar_params ai.ai_args
                in
                if !changed then Some { ai with ai_args = args } else None)
      in
      match try_match () with Some e' -> Some e' | None -> try_args ())
  | "constraint_violation", Some ti -> (
      match ti.ti_restriction with
      | None -> None
      | Some _ ->
          (* Candidate perturbations, kept syntactically valid: zero each
             exact key; force every 1-bit ternary key to 1 (violates
             mutual-exclusion restrictions); add full-mask matches on
             omitted ternary keys (violates ::mask == 0 restrictions). *)
          let zero_key (fm : Entry.field_match) =
            match fm.fm_value with
            | Entry.M_exact v ->
                Some
                  (Entry.with_matches e
                     (List.map
                        (fun (m : Entry.field_match) ->
                          if String.equal m.fm_field fm.fm_field then
                            { m with
                              fm_value = Entry.M_exact (Bitvec.zero (Bitvec.width v)) }
                          else m)
                        e.e_matches))
            | _ -> None
          in
          let all_flags_on =
            let flags =
              List.filter
                (fun (mf : P4info.match_field) ->
                  mf.mf_kind = Ast.Ternary && mf.mf_width = 1)
                ti.ti_match_fields
            in
            if List.length flags < 2 then None
            else
              Some
                (Entry.with_matches e
                   (List.map (fun (mf : P4info.match_field) ->
                        { Entry.fm_field = mf.mf_name;
                          fm_value =
                            Entry.M_ternary (Ternary.exact (Bitvec.of_int ~width:1 1)) })
                      flags
                    @ List.filter
                        (fun (m : Entry.field_match) ->
                          not
                            (List.exists
                               (fun (mf : P4info.match_field) ->
                                 String.equal mf.mf_name m.fm_field)
                               flags))
                        e.e_matches))
          in
          let fill_omitted =
            List.filter_map
              (fun (mf : P4info.match_field) ->
                if mf.mf_kind = Ast.Ternary && Entry.find_match e mf.mf_name = None then
                  Some
                    (Entry.with_matches e
                       ({ Entry.fm_field = mf.mf_name;
                          fm_value =
                            Entry.M_ternary
                              (Ternary.exact (Rng.bitvec t.rng mf.mf_width)) }
                        :: e.e_matches))
                else None)
              ti.ti_match_fields
          in
          let candidates =
            List.filter_map zero_key e.e_matches
            @ (match all_flags_on with Some c -> [ c ] | None -> [])
            @ fill_omitted
          in
          List.find_opt
            (fun cand -> Validate.constraint_compliant ti cand = Ok false)
            candidates)
  | "bdd_constraint_violation", Some ti -> (
      match table_bdd t ti with
      | None -> None
      | Some c ->
          Bdd.sample_near_violation c t.rng
          |> Option.map (fun a -> merge_assignment ti e a))
  | "zero_priority", Some ti ->
      if P4info.requires_priority ti then Some (Entry.with_priority e 0) else None
  | _, _ -> None

(* --- batch generation ---------------------------------------------------------- *)

let gen_base t ctx =
  (* Seed pool: with feedback enabled, some mutation bases come from
     corpus batches that reached novel edges — mutations of inputs the
     switch handled in an interesting way probe nearby behavior. *)
  let seeded =
    match t.greybox with
    | Some gb -> Greybox.pick_seed_entry gb
    | None -> None
  in
  match seeded with
  | Some e -> Some e
  | None -> (
      match gen_valid_insert t ctx 10 with
      | Some e -> Some e
      | None -> choose_except t t.views.keyed [])

let try_mutation t ctx mutation =
  match mutation with
  | "duplicate_insert" -> (
      match choose_except t t.views.keyed [] with
      | Some victim when not (Hashtbl.mem ctx.taken (Entry.match_key victim)) ->
          Some (Request.insert victim, "duplicate_insert")
      | _ -> None)
  | "delete_nonexistent" -> (
      match gen_valid_insert t ctx 10 with
      | Some ghost when Option.is_none (State.find t.mirror_ ghost) ->
          Some (Request.delete ghost, "delete_nonexistent")
      | _ -> None)
  | m -> (
      (* Several bases, since many mutations only apply to entries with a
         particular shape (restrictions, references, selectors, ...). *)
      let rec with_bases attempts =
        if attempts = 0 then None
        else
          match gen_base t ctx with
          | None -> None
          | Some base -> (
              match mutate t ctx base m with
              | Some e -> Some (Request.insert e, m)
              | None -> with_bases (attempts - 1))
      in
      with_bases 6)

let gen_invalid_update t ctx =
  (* Pick the mutation first (uniformly), so rarely-applicable but
     interesting mutations (constraint violations, selector weights) get a
     fair share; fall back to whatever applies. *)
  let preferred = Rng.choose t.rng mutations in
  match try_mutation t ctx preferred with
  | Some r -> Some r
  | None ->
      let rec fallback = function
        | [] -> None
        | m :: rest -> (
            match try_mutation t ctx m with Some r -> Some r | None -> fallback rest)
      in
      fallback (Rng.shuffle t.rng mutations)

(* Tables in @refers_to dependency order: referenced tables first. *)
let dependency_order (info : P4info.t) =
  let depends_on (ti : P4info.table) =
    let from_keys =
      List.filter_map (fun (mf : P4info.match_field) ->
          Option.map fst mf.mf_refers_to)
        ti.ti_match_fields
    in
    let from_params =
      List.concat_map
        (fun (ar : P4info.action_ref) ->
          List.filter_map (fun (p : Ast.param) -> Option.map fst p.p_refers_to)
            ar.ar_params)
        ti.ti_actions
    in
    List.sort_uniq String.compare
      (List.filter (fun n -> not (String.equal n ti.ti_name)) (from_keys @ from_params))
  in
  let placed = Hashtbl.create 16 in
  let order = ref [] in
  let rec place fuel (ti : P4info.table) =
    if fuel > 0 && not (Hashtbl.mem placed ti.ti_name) then begin
      List.iter
        (fun dep ->
          match P4info.find_table info dep with
          | Some dti -> place (fuel - 1) dti
          | None -> ())
        (depends_on ti);
      if not (Hashtbl.mem placed ti.ti_name) then begin
        Hashtbl.add placed ti.ti_name ();
        order := ti :: !order
      end
    end
  in
  List.iter (place 16) info.pi_tables;
  List.rev !order

(* The first entry of [table] in [set], in insertion order, whose slot
   (its rank in [set]) is not [excluded]. *)
let first_of t set ~table excluded =
  let v = t.views in
  let rec go p slot =
    if p >= v.next then None
    else if not (Ranked.mem set p) then go (p + 1) slot
    else if String.equal v.at.(p).e_table table && not (List.mem slot excluded) then
      Some v.at.(p)
    else go (p + 1) (slot + 1)
  in
  go 0 0

(* The first installed entry of [table] no earlier update of this batch
   claimed. *)
let first_unclaimed t ctx ~table = first_of t t.views.keyed ~table (claimed t ctx t.views.keyed)

let sweep t =
  Telemetry.with_span (Telemetry.get ()) "fuzzer.sweep" @@ fun () ->
  let batches = ref [] in
  let tables = dependency_order t.info in
  (* One batch per table, kept when anything went into it. *)
  let per_table fill =
    List.iter
      (fun ti ->
        let ctx = new_batch () in
        fill ctx ti;
        if ctx.updates <> [] then batches := close t ctx :: !batches)
      tables
  in
  (* Phase 1: valid inserts, a few per table, one batch per dependency
     rank (entries must not reference same-batch inserts). Tables whose
     restriction admits no entry are skipped outright. *)
  per_table (fun ctx (ti : P4info.table) ->
      if not (skip_dead t ti) then
        for _ = 1 to 3 do
          match gen_entry t ctx ti with
          | Some e
            when Option.is_none (State.find t.mirror_ e)
                 && claim ctx e
                 && State.count t.mirror_ ti.ti_name + pending_inserts ctx ti.ti_name
                    < ti.ti_size ->
              add_valid t ctx Request.Insert e
          | _ -> ()
        done);
  (* Phase 2: one valid modify and one valid delete per table. *)
  per_table (fun ctx (ti : P4info.table) ->
      (match first_unclaimed t ctx ~table:ti.ti_name with
      | Some e when claim ctx e ->
          Option.iter
            (fun action -> add_valid t ctx Request.Modify (Entry.with_action e action))
            (gen_action t ctx ti)
      | _ -> ());
      match
        first_of t t.views.deletable ~table:ti.ti_name (undeletable t ctx ~respect:true)
      with
      | Some e when claim ctx e -> add_valid t ctx Request.Delete e
      | _ -> ());
  (* Phase 3: every applicable mutation against every table. Each batch
     also carries one valid insert, so batch-level misbehaviour (e.g.
     aborting a whole batch over one bad delete) is observable as a
     spurious rejection of the valid update. *)
  per_table (fun ctx (ti : P4info.table) ->
      (match gen_valid_insert t ctx 10 with
      | Some e when claim ctx e -> add_valid t ctx Request.Insert e
      | _ -> ());
      List.iter
        (fun m ->
          let attempt =
            match m with
            | "duplicate_insert" ->
                first_unclaimed t ctx ~table:ti.ti_name
                |> Option.map (fun e -> (Request.insert e, m))
            | "delete_nonexistent" -> (
                match gen_entry t ctx ti with
                | Some ghost when Option.is_none (State.find t.mirror_ ghost) ->
                    Some (Request.delete ghost, m)
                | _ -> None)
            | m ->
                (* Some mutations need a base of a particular shape (e.g.
                   at least one present match); retry with fresh bases. *)
                let rec with_bases k =
                  if k = 0 then None
                  else
                    match gen_entry t ctx ti with
                    | Some base -> (
                        match mutate t ctx base m with
                        | Some e -> Some (Request.insert e, m)
                        | None -> with_bases (k - 1))
                    | None -> with_bases (k - 1)
                in
                with_bases 6
          in
          match attempt with
          | Some (u, m) when claim ctx u.entry -> add_invalid ctx u m
          | _ -> ())
        mutations);
  List.rev !batches

let next_batch t =
  Telemetry.with_span (Telemetry.get ()) "fuzzer.next_batch" @@ fun () ->
  let ctx = new_batch () in
  for _ = 1 to updates_per_batch do
    if Rng.int t.rng 100 < invalid_percent then begin
      match gen_invalid_update t ctx with
      | Some ((u : Request.update), m) when claim ctx u.entry -> add_invalid ctx u m
      | _ -> ()
    end
    else begin
      let r = Rng.int t.rng 100 in
      let op, gen =
        if r < delete_percent then (Request.Delete, gen_valid_delete)
        else if r < delete_percent + modify_percent then (Request.Modify, gen_valid_modify)
        else (Request.Insert, fun t ctx -> gen_valid_insert t ctx 10)
      in
      match gen t ctx with
      | Some e when claim ctx e -> add_valid t ctx op e
      | _ -> ()
    end
  done;
  close t ctx
