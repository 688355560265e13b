module Ast = Switchv_p4ir.Ast
module Cfg = Switchv_analysis.Cfg
module Telemetry = Switchv_telemetry.Telemetry
module Json = Switchv_telemetry.Telemetry.Json

type t = {
  entries : (string * int) list;
  covered : int;
  total : int;
}

(* The full edge key space of a program, from the same CFG the analyses
   use: two keys per condition node (branch ids match Symexec/Interp
   numbering) and one per table-action edge. Sorted and deduplicated — a
   table applied from several places contributes one set of action edges,
   which is also what the interpreter's counters observe.

   Memoized by physical equality on the program value: fabric campaigns
   call [of_registry] once per switch per report over the same shared
   program, and the greybox scheduler snapshots the key list around every
   injection — rebuilding the CFG each time made both O(calls * |CFG|).
   The cache is small and bounded; a new program value evicts the
   oldest entry. *)
let edge_keys_cache : (Ast.program * string list) list ref = ref []

let compute_edge_keys program =
  let cfg = Cfg.build program in
  let keys = ref [] in
  Cfg.iter
    (fun n ->
      match n.Cfg.n_kind with
      | Cfg.N_cond (id, _) ->
          keys :=
            Ast.coverage_key (Ast.branch_label id true)
            :: Ast.coverage_key (Ast.branch_label id false)
            :: !keys
      | Cfg.N_action (t, aname, role) ->
          keys := Ast.action_key t.Ast.t_name ~hit:(role = Cfg.Hit) aname :: !keys
      | _ -> ())
    cfg;
  List.sort_uniq String.compare !keys

let edge_keys program =
  match List.find_opt (fun (p, _) -> p == program) !edge_keys_cache with
  | Some (_, keys) -> keys
  | None ->
      let keys = compute_edge_keys program in
      edge_keys_cache :=
        (program, keys)
        :: List.filteri (fun i _ -> i < 7) !edge_keys_cache;
      keys

let of_registry ?(prefix = "") tele program =
  (* [prefix] reads a namespaced copy of the counters (e.g. a fabric
     campaign's per-switch [topo.sw.<i>.] re-emission) while keeping the
     canonical unprefixed keys in the map, so per-switch maps render and
     compare in the same format as the global one. *)
  let entries =
    List.map
      (fun k -> (k, Telemetry.counter tele (prefix ^ k)))
      (edge_keys program)
  in
  let covered = List.length (List.filter (fun (_, c) -> c > 0) entries) in
  { entries; covered; total = List.length entries }

let percent t =
  if t.total = 0 then 100. else 100. *. float_of_int t.covered /. float_of_int t.total

(* Canonical text form: sorted "key count" lines. Counts come from shard
   decomposition that depends only on the workload, never on --jobs, so
   this renders byte-identically for any jobs count — `make check-obs`
   cmp-gates exactly this. *)
let to_string t =
  let b = Buffer.create 512 in
  Buffer.add_string b "# switchv coverage map v1\n";
  Printf.bprintf b "# edges %d/%d\n" t.covered t.total;
  List.iter (fun (k, c) -> Printf.bprintf b "%s %d\n" k c) t.entries;
  Buffer.contents b

(* pid-unique temp name (same convention as the cache store): two
   concurrent runs pointed at the same --coverage-out must not clobber
   each other's half-written temp file. *)
let write_file t path =
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  let oc = open_out tmp in
  output_string oc (to_string t);
  close_out oc;
  Sys.rename tmp path

let to_json t =
  Json.obj
    [ ("edges_covered", Json.int t.covered);
      ("edges_total", Json.int t.total);
      ( "edges",
        Json.obj (List.map (fun (k, c) -> (k, Json.int c)) t.entries) ) ]

let pp fmt t =
  Format.fprintf fmt "coverage: %d/%d edges (%.1f%%)" t.covered t.total (percent t)
