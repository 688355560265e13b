module Bitvec = Switchv_bitvec.Bitvec
module Prefix = Switchv_bitvec.Prefix
module Ternary = Switchv_bitvec.Ternary
module Match = Switchv_match.Index
module P4info = Switchv_p4ir.P4info

(* Per-table association from match key to entry, plus a sequence number to
   preserve insertion order. Filing an entry builds its key, which the
   entry then carries, so views and comparisons never recompute it. *)
type slot = { entry : Entry.t; seq : int }

(* An evaluator (lib/bmv2/compile.ml) describes a table's keys with a
   [key_spec] array; the first [index_lookup] against a table builds an
   indexed view ({!Switchv_match.Index}) which every subsequent insert /
   modify / delete maintains incrementally — including writes arriving
   through fault-injected sync paths, which all funnel through these
   functions. *)
type key_spec = { ks_name : string; ks_width : int; ks_kind : Match.kind }

type table_index = { ti_keys : key_spec array; ti_ix : slot Match.t }

(* Keyed by (table, match field, value): a value an entry provides, or a
   reference to one. *)
module Values = Hashtbl.Make (struct
  type t = string * string * Bitvec.t

  let equal (t1, k1, v1) (t2, k2, v2) =
    String.equal t1 t2 && String.equal k1 k2 && Bitvec.equal v1 v2

  let hash (t, k, v) = Hashtbl.hash (Hashtbl.hash t, Hashtbl.hash k, Bitvec.hash v)
end)

type t = {
  tables : (string, (string, slot) Hashtbl.t) Hashtbl.t;
  mutable next_seq : int;
  indexes : (string, table_index) Hashtbl.t;
  mutable values : int Values.t option;
      (* installed entries providing each (table, field, value) through an
         exact or optional match: the [@refers_to] existence check *)
  mutable refs : (P4info.t * int Values.t) option;
      (* @refers_to references to each (table, key, value) from installed
         entries, as the P4info they were built with declares them *)
}
(* Both counts are built on their first query and maintained from then
   on, so a state nobody asks (the ASIC's, a model's) never pays for them. *)

let create () =
  { tables = Hashtbl.create 16; next_seq = 0; indexes = Hashtbl.create 8; values = None;
    refs = None }

let table_tbl t name =
  match Hashtbl.find_opt t.tables name with
  | Some tbl -> tbl
  | None ->
      let tbl = Hashtbl.create 64 in
      Hashtbl.add t.tables name tbl;
      tbl

let copy t =
  (* Indexes and reference counts depend on the queries made; the copy
     rebuilds its own lazily. *)
  let fresh =
    { tables = Hashtbl.create 16; next_seq = t.next_seq; indexes = Hashtbl.create 8;
      values = Option.map Values.copy t.values; refs = None }
  in
  Hashtbl.iter (fun name tbl -> Hashtbl.add fresh.tables name (Hashtbl.copy tbl)) t.tables;
  fresh

let clear t =
  Hashtbl.reset t.tables;
  Hashtbl.reset t.indexes;
  t.values <- None;
  t.refs <- None;
  t.next_seq <- 0

(* --- maintained counts ----------------------------------------------------- *)

let bump counts k delta =
  let c = delta + Option.value ~default:0 (Values.find_opt counts k) in
  if c = 0 then Values.remove counts k else Values.replace counts k c

let provided (e : Entry.t) =
  List.filter_map
    (fun (fm : Entry.field_match) ->
      match fm.fm_value with
      | Entry.M_exact v | Entry.M_optional (Some v) -> Some (e.e_table, fm.fm_field, v)
      | _ -> None)
    e.e_matches

let count_refs info counts e delta =
  List.iter
    (fun (r : Validate.reference) -> bump counts (r.ref_table, r.ref_key, r.ref_value) delta)
    (Validate.references info e)

(* [exists_value] sees what a lookup sees: only each field's first match. *)
let count_values counts e delta =
  List.iter
    (fun ((_, field, v) as k) ->
      match Entry.find_match e field with
      | Some (Entry.M_exact v') | Some (Entry.M_optional (Some v')) when Bitvec.equal v v' ->
          bump counts k delta
      | _ -> ())
    (provided e)

(* Every mutation funnels through here, once per entry gained or lost. *)
let account t e delta =
  Option.iter (fun counts -> count_values counts e delta) t.values;
  Option.iter (fun (info, counts) -> count_refs info counts e delta) t.refs

let build t count =
  let counts = Values.create 64 in
  Hashtbl.iter
    (fun _ tbl -> Hashtbl.iter (fun _ slot -> count counts slot.entry 1) tbl)
    t.tables;
  counts

let value_counts t =
  match t.values with
  | Some counts -> counts
  | None ->
      let counts = build t count_values in
      t.values <- Some counts;
      counts

(* Reference counts for [info], compared by physical equality: a query
   with another P4info value rebuilds them from the installed entries. *)
let ref_counts t info =
  match t.refs with
  | Some (info', counts) when info' == info -> counts
  | _ ->
      let counts = build t (count_refs info) in
      t.refs <- Some (info, counts);
      counts

(* --- index maintenance --------------------------------------------------- *)

let mv_of_match = function
  | Entry.M_exact v -> Match.Mexact v
  | Entry.M_lpm p -> Match.Mlpm (Prefix.value p, Prefix.len p)
  | Entry.M_ternary tn -> Match.Mternary (Ternary.value tn, Ternary.mask tn)
  | Entry.M_optional o -> Match.Moptional o

let mvs_of_entry keys (e : Entry.t) =
  Array.map (fun ks -> Option.map mv_of_match (Entry.find_match e ks.ks_name)) keys

let index_add t table slot =
  match Hashtbl.find_opt t.indexes table with
  | None -> ()
  | Some ti ->
      Match.insert ti.ti_ix
        ~mvs:(mvs_of_entry ti.ti_keys slot.entry)
        ~priority:slot.entry.Entry.e_priority ~seq:slot.seq slot

let index_drop t table slot =
  match Hashtbl.find_opt t.indexes table with
  | None -> ()
  | Some ti ->
      Match.remove ti.ti_ix ~mvs:(mvs_of_entry ti.ti_keys slot.entry) ~seq:slot.seq

(* Winner under the interpreter's precedence order, served from the
   indexed view; built from the current entries on first use. A table's
   index is keyed by the first schema it was queried with. *)
let index_lookup t ~table ~keys values =
  let ti =
    match Hashtbl.find_opt t.indexes table with
    | Some ti -> ti
    | None ->
        let ix =
          Match.create
            (Array.map
               (fun ks -> { Match.key_width = ks.ks_width; key_kind = ks.ks_kind })
               keys)
        in
        let ti = { ti_keys = keys; ti_ix = ix } in
        Hashtbl.add t.indexes table ti;
        (match Hashtbl.find_opt t.tables table with
        | None -> ()
        | Some tbl -> Hashtbl.iter (fun _ slot -> index_add t table slot) tbl);
        ti
  in
  Match.lookup ti.ti_ix values |> Option.map (fun s -> s.entry)

let insert t entry =
  let tbl = table_tbl t entry.Entry.e_table in
  let key = Entry.match_key entry in
  if Hashtbl.mem tbl key then
    Error (Status.makef Status.Already_exists "entry already exists: %s" key)
  else begin
    let slot = { entry; seq = t.next_seq } in
    Hashtbl.add tbl key slot;
    t.next_seq <- t.next_seq + 1;
    index_add t entry.Entry.e_table slot;
    account t entry 1;
    Ok ()
  end

let modify t entry =
  let tbl = table_tbl t entry.Entry.e_table in
  let key = Entry.match_key entry in
  match Hashtbl.find_opt tbl key with
  | None -> Error (Status.makef Status.Not_found "no such entry: %s" key)
  | Some slot ->
      let slot' = { slot with entry } in
      Hashtbl.replace tbl key slot';
      index_drop t entry.Entry.e_table slot;
      index_add t entry.Entry.e_table slot';
      account t slot.entry (-1);
      account t entry 1;
      Ok ()

let delete t entry =
  let tbl = table_tbl t entry.Entry.e_table in
  let key = Entry.match_key entry in
  match Hashtbl.find_opt tbl key with
  | Some slot ->
      Hashtbl.remove tbl key;
      index_drop t entry.Entry.e_table slot;
      account t slot.entry (-1);
      Ok ()
  | None -> Error (Status.makef Status.Not_found "no such entry: %s" key)

let find t entry =
  let tbl = table_tbl t entry.Entry.e_table in
  Hashtbl.find_opt tbl (Entry.match_key entry) |> Option.map (fun s -> s.entry)

let slots_of t name =
  match Hashtbl.find_opt t.tables name with
  | None -> []
  | Some tbl -> Hashtbl.fold (fun _ slot acc -> slot :: acc) tbl []

let all_slots t =
  Hashtbl.fold
    (fun _ tbl acc -> Hashtbl.fold (fun _ slot acc -> slot :: acc) tbl acc)
    t.tables []

let in_order view slots = List.sort (fun a b -> Int.compare a.seq b.seq) slots |> List.map view
let entries_of t name = in_order (fun s -> s.entry) (slots_of t name)
let all t = in_order (fun s -> s.entry) (all_slots t)
let keyed s = (Entry.match_key s.entry, s.entry)
let entries_of_keyed t name = in_order keyed (slots_of t name)
let all_keyed t = in_order keyed (all_slots t)

let count t name =
  match Hashtbl.find_opt t.tables name with None -> 0 | Some tbl -> Hashtbl.length tbl

let total t = Hashtbl.fold (fun _ tbl acc -> acc + Hashtbl.length tbl) t.tables 0

let exists_value t ~table ~key value = Values.mem (value_counts t) (table, key, value)

let provides_referenced t info entry =
  let counts = ref_counts t info in
  List.exists (Values.mem counts) (provided entry)

let is_referenced t info entry =
  let counts = ref_counts t info in
  (* The installed entry under this key does not count against itself. *)
  let own = Values.create 8 in
  Option.iter (fun installed -> count_refs info own installed 1) (find t entry);
  List.exists
    (fun k ->
      Option.value ~default:0 (Values.find_opt counts k)
      > Option.value ~default:0 (Values.find_opt own k))
    (provided entry)

let find_keyed t table key =
  Option.bind (Hashtbl.find_opt t.tables table) (fun tbl -> Hashtbl.find_opt tbl key)

(* Keys are unique across tables (a key names its table), so two states
   are equal when they hold as many entries and every entry of one has a
   same-key, same-action counterpart in the other. *)
let equal a b =
  total a = total b
  && Hashtbl.fold
       (fun table tbl ok ->
         ok
         && Hashtbl.fold
              (fun key slot ok ->
                ok
                &&
                match find_keyed b table key with
                | Some s -> Entry.equal_action slot.entry.e_action s.entry.e_action
                | None -> false)
              tbl true)
       a.tables true

let diff a b =
  let out = ref [] in
  let each t f =
    Hashtbl.iter (fun table tbl -> Hashtbl.iter (fun key s -> f table key s) tbl) t.tables
  in
  each a (fun table key s ->
      match find_keyed b table key with
      | None -> out := Format.asprintf "only in first: %a" Entry.pp s.entry :: !out
      | Some s' ->
          if not (Entry.equal_action s.entry.e_action s'.entry.e_action) then
            out :=
              Format.asprintf "differs: %a vs %a" Entry.pp s.entry Entry.pp s'.entry :: !out);
  each b (fun table key s ->
      if find_keyed a table key = None then
        out := Format.asprintf "only in second: %a" Entry.pp s.entry :: !out);
  List.sort String.compare !out
