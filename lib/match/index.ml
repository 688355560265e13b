(* Indexed table-entry lookup.

   The interpreter's reference semantics (lib/bmv2/interp.ml) order a
   table's entries by an explicit precedence — (priority descending,
   insertion seq ascending) when any key is ternary/optional, otherwise
   (LPM specificity descending, insertion seq ascending) — and the first
   matching entry wins. Equivalently: the winner is the matching entry
   that minimises the lexicographic pair (rank, seq), with

     rank = -priority                     (priority tables)
     rank = -sum of LPM prefix lengths    (everything else)

   This module computes that minimum by tuple-space search, for every
   table. Once canonicalised, every match value is a masked compare
   (exact = all ones, LPM = a prefix mask, optional = ones or zero,
   omitted = zero), so entries are grouped by their concatenated mask
   signature, each group a hash table from an int hash of the masked key
   to candidates, and a probe costs one hash lookup per distinct mask
   shape instead of one compare per entry. An exact table holds one
   shape; a routing table holds one per prefix length in use. Writes and
   probes fold the same hash ([Bitvec.hash_masked]) over the key limbs in
   place, and a probe re-checks each candidate's masked key
   ([Bitvec.equal_masked]), so a probe allocates nothing per group and a
   hash collision never returns a wrong winner.

   Entries whose widths disagree with the schema have no meaningful mask
   signature; they live in a residual linear list that reproduces the
   interpreter's scan exactly. The group winner and the residual winner
   are merged under the same (rank, seq) order, so lookup is equivalent
   to the reference for every entry shape.

   The module is deliberately independent of lib/p4runtime (which depends
   on it): match values are re-declared here and the payload type is
   abstract. Values are canonicalised (masked) on insert, so masked-key
   equality coincides with match semantics. *)

module Bitvec = Switchv_bitvec.Bitvec

type kind = Exact | Lpm | Ternary | Optional

type mv =
  | Mexact of Bitvec.t
  | Mlpm of Bitvec.t * int            (* value, prefix length *)
  | Mternary of Bitvec.t * Bitvec.t   (* value, mask *)
  | Moptional of Bitvec.t option      (* None = wildcard *)

type key = { key_width : int; key_kind : kind }

type 'a entry = {
  e_mvs : mv option array;  (* per key; None = omitted = wildcard *)
  e_key : Bitvec.t array;   (* grouped entries: masked value per key *)
  e_rank : int;
  e_seq : int;
  e_payload : 'a;
}

(* Bucket keys are [Bitvec.hash_masked] folds; the final mix brings the
   high bits the limb multiplications build down to the low bits the
   table indexes by. *)
module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash h = h lxor (h lsr 32) lxor (h lsr 17)
end)

(* One mask-signature group of the tuple-space search. A bucket holds
   every entry whose masked key folds to its hash, so a probe re-checks
   each candidate's key: a collision never returns a wrong winner. *)
type 'a group = {
  g_masks : Bitvec.t array;
  g_buckets : 'a entry list Int_tbl.t;
}

(* Writes find a group by its mask array; probes walk [group_list]. *)
module Masks_tbl = Hashtbl.Make (struct
  type t = Bitvec.t array

  let equal a b = Array.length a = Array.length b && Array.for_all2 Bitvec.equal a b
  let hash a = Array.fold_left (fun h m -> (h * 31) + Bitvec.hash m) 0 a
end)

type 'a t = {
  keys : key array;
  priority_mode : bool;
  groups : 'a group Masks_tbl.t;
  mutable group_list : 'a group list;
  mutable residual : 'a entry list;
}

let canonical_mv = function
  | Mexact v -> Mexact v
  | Moptional o -> Moptional o
  | Mlpm (v, len) when len >= 0 && len <= Bitvec.width v ->
      Mlpm (Bitvec.logand v (Bitvec.prefix_mask ~width:(Bitvec.width v) len), len)
  | Mlpm (v, len) -> Mlpm (v, len)
  | Mternary (v, m) when Bitvec.width v = Bitvec.width m ->
      Mternary (Bitvec.logand v m, m)
  | Mternary (v, m) -> Mternary (v, m)

let mv_width = function
  | Mexact v | Mlpm (v, _) | Mternary (v, _) | Moptional (Some v) -> Some (Bitvec.width v)
  | Moptional None -> None

(* Mirrors interp.ml's [match_value_ok] (omitted key = wildcard). *)
let mv_matches kv = function
  | Mexact v | Moptional (Some v) -> Bitvec.equal v kv
  | Moptional None -> true
  | Mlpm (v, len) ->
      Bitvec.width v = Bitvec.width kv
      && len >= 0 && len <= Bitvec.width kv
      && Bitvec.equal v (Bitvec.logand kv (Bitvec.prefix_mask ~width:(Bitvec.width kv) len))
  | Mternary (v, m) ->
      Bitvec.width m = Bitvec.width kv && Bitvec.equal v (Bitvec.logand kv m)

(* The residual scan's match test, written as a loop so a probe builds
   no closure. *)
let entry_matches e values =
  let n = Array.length e.e_mvs and i = ref 0 in
  while
    !i < n
    && match e.e_mvs.(!i) with None -> true | Some mv -> mv_matches values.(!i) mv
  do
    incr i
  done;
  !i = n

(* Mirrors interp.ml's [lpm_specificity]: only Mlpm values on LPM-kind
   keys contribute, so an exact value on an LPM key ranks as /0. *)
let specificity keys mvs =
  let acc = ref 0 in
  Array.iteri
    (fun i mv ->
      match (keys.(i).key_kind, mv) with
      | Lpm, Some (Mlpm (_, len)) -> acc := !acc + len
      | _ -> ())
    mvs;
  !acc

let create keys =
  let priority_mode =
    Array.exists (fun k -> k.key_kind = Ternary || k.key_kind = Optional) keys
  in
  { keys; priority_mode; groups = Masks_tbl.create 16; group_list = []; residual = [] }

(* --- classification ------------------------------------------------------ *)

let mask_of w = function
  | None | Some (Moptional None) -> Bitvec.zero w
  | Some (Mexact _) | Some (Moptional (Some _)) -> Bitvec.ones w
  | Some (Mlpm (_, len)) -> Bitvec.prefix_mask ~width:w len
  | Some (Mternary (_, m)) -> m

let masked_value w = function
  | None | Some (Moptional None) -> Bitvec.zero w
  | Some (Mexact v) | Some (Moptional (Some v)) -> v
  | Some (Mlpm (v, _)) | Some (Mternary (v, _)) -> v

(* Widths must agree with the schema for masked keys to be meaningful;
   anything off-schema is handled by the residual scan. *)
let widths_ok keys mvs =
  let ok = ref true in
  Array.iteri
    (fun i mv ->
      let w = keys.(i).key_width in
      (match Option.bind mv mv_width with
      | Some w' when w' <> w -> ok := false
      | _ -> ());
      match mv with
      | Some (Mternary (_, m)) when Bitvec.width m <> w -> ok := false
      | Some (Mlpm (_, len)) when len < 0 || len > w -> ok := false
      | _ -> ())
    mvs;
  !ok

let masks_of t mvs = Array.mapi (fun i mv -> mask_of t.keys.(i).key_width mv) mvs
let key_of t mvs = Array.mapi (fun i mv -> masked_value t.keys.(i).key_width mv) mvs

(* The bucket hash of [values] under a group's masks. A stored key is
   already masked, so it folds to the bucket of every probe it matches. *)
let bucket_hash masks values =
  let h = ref 0 in
  for i = 0 to Array.length masks - 1 do
    h := Bitvec.hash_masked !h values.(i) masks.(i)
  done;
  !h

(* --- insert / remove ------------------------------------------------------ *)

let insert t ~mvs ~priority ~seq payload =
  let mvs = Array.map (Option.map canonical_mv) mvs in
  let rank = if t.priority_mode then -priority else -specificity t.keys mvs in
  let e key = { e_mvs = mvs; e_key = key; e_rank = rank; e_seq = seq; e_payload = payload } in
  if not (widths_ok t.keys mvs) then t.residual <- e [||] :: t.residual
  else
    let masks = masks_of t mvs in
    let group =
      match Masks_tbl.find_opt t.groups masks with
      | Some g -> g
      | None ->
          let g = { g_masks = masks; g_buckets = Int_tbl.create 64 } in
          Masks_tbl.add t.groups masks g;
          t.group_list <- g :: t.group_list;
          g
    in
    let key = key_of t mvs in
    let h = bucket_hash masks key in
    let bucket = Option.value ~default:[] (Int_tbl.find_opt group.g_buckets h) in
    Int_tbl.replace group.g_buckets h (e key :: bucket)

let remove t ~mvs ~seq =
  let mvs = Array.map (Option.map canonical_mv) mvs in
  let keep e = e.e_seq <> seq in
  if not (widths_ok t.keys mvs) then t.residual <- List.filter keep t.residual
  else
    match Masks_tbl.find_opt t.groups (masks_of t mvs) with
    | None -> ()
    | Some g -> (
        let h = bucket_hash g.g_masks (key_of t mvs) in
        match Int_tbl.find_opt g.g_buckets h with
        | None -> ()
        | Some bucket -> (
            match List.filter keep bucket with
            | [] -> Int_tbl.remove g.g_buckets h
            | rest -> Int_tbl.replace g.g_buckets h rest))

(* --- lookup --------------------------------------------------------------- *)

(* Probes are written as loops over plain values, so the only allocation
   is the option of each improvement and the answer. *)
let better best e =
  match best with
  | None -> Some e
  | Some b ->
      if e.e_rank < b.e_rank || (e.e_rank = b.e_rank && e.e_seq < b.e_seq) then Some e
      else best

let rec key_matches masks values key i =
  i < 0
  || (Bitvec.equal_masked values.(i) masks.(i) key.(i) && key_matches masks values key (i - 1))

let rec best_in_bucket masks values best = function
  | [] -> best
  | e :: rest ->
      let best =
        if key_matches masks values e.e_key (Array.length masks - 1) then better best e else best
      in
      best_in_bucket masks values best rest

let rec best_in_groups values best = function
  | [] -> best
  | g :: rest ->
      let best =
        match Int_tbl.find_opt g.g_buckets (bucket_hash g.g_masks values) with
        | None -> best
        | Some bucket -> best_in_bucket g.g_masks values best bucket
      in
      best_in_groups values best rest

let rec best_in_residual values best = function
  | [] -> best
  | e :: rest ->
      best_in_residual values (if entry_matches e values then better best e else best) rest

let lookup t values =
  let best = best_in_groups values None t.group_list in
  match best_in_residual values best t.residual with
  | None -> None
  | Some e -> Some e.e_payload
