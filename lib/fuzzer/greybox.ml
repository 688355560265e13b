module Ast = Switchv_p4ir.Ast
module P4info = Switchv_p4ir.P4info
module Bitvec = Switchv_bitvec.Bitvec
module Rng = Switchv_bitvec.Rng
module Entry = Switchv_p4runtime.Entry
module Packet = Switchv_packet.Packet
module Coverage = Switchv_obs.Coverage
module Telemetry = Switchv_telemetry.Telemetry

(* FP4-style greybox feedback state. One instance per control-campaign
   shard: the novelty map starts empty and is fed exclusively by
   before/after counter *deltas* around the probes this shard injected,
   so its content — and every scheduling decision derived from it —
   depends only on (config, shard), never on which process the shard ran
   in or what the ambient registry accumulated before it. That is the whole
   determinism argument: shard-local novelty + delta capture makes
   greybox runs byte-identical at any --jobs, and the parent absorbing
   worker telemetry deltas additively is what "merges" the maps into
   the campaign-wide fuzzer.greybox.* totals. *)

type seed_input =
  | Batch of Entry.t list   (* entries of an admitted batch *)
  | Packet of int * string  (* probe packet: (ingress port, wire bytes) *)

type seed = {
  sd_input : seed_input;
  mutable sd_energy : int;  (* novel edges credited to this input *)
}

type t = {
  rng : Rng.t;
      (* All greybox draws come from this generator, never the fuzzer's:
         with the loop disabled no greybox draw happens at all, so the
         blind fuzzer's stream — and output — is bit-identical to a build
         without the feature. *)
  edge_keys : string list;  (* memoized full edge space, Coverage order *)
  novelty : (string, unit) Hashtbl.t;  (* edge keys this shard reached *)
  energy : (string, int) Hashtbl.t;    (* table name -> accumulated energy *)
  mutable seeds : seed list;           (* corpus, newest first, bounded *)
  mutable n_seeds : int;
}

let max_corpus = 256

let create ~program ~seed () =
  { (* decorrelate from the fuzzer rng, which campaigns seed identically *)
    rng = Rng.create (seed lxor 0x67726579);
    edge_keys = Coverage.edge_keys program;
    novelty = Hashtbl.create 64;
    energy = Hashtbl.create 16;
    seeds = [];
    n_seeds = 0 }

let novel_edges t = Hashtbl.length t.novelty
let corpus_size t = t.n_seeds

let covered t key = Hashtbl.mem t.novelty key

type snapshot = int array

let snapshot t tele =
  Array.of_list (List.map (Telemetry.counter tele) t.edge_keys)

let admit t input ~energy =
  Telemetry.incr (Telemetry.get ()) "fuzzer.greybox.corpus_admitted";
  t.seeds <- { sd_input = input; sd_energy = max 1 energy } :: t.seeds;
  t.n_seeds <- t.n_seeds + 1;
  if t.n_seeds > max_corpus then begin
    (* Drop the lowest-energy seed (oldest among ties): rare-edge
       discoverers stay schedulable for the whole campaign. *)
    let worst =
      List.fold_left (fun w s -> if s.sd_energy <= w.sd_energy then s else w)
        (List.hd t.seeds) t.seeds
    in
    let dropped = ref false in
    t.seeds <-
      List.filter
        (fun s ->
          if (not !dropped) && s == worst then begin
            dropped := true;
            false
          end
          else true)
        t.seeds;
    t.n_seeds <- t.n_seeds - 1
  end

(* Fold the counter delta since [before] into the novelty map; returns the
   number of edges that were new to this shard. When the execution found
   novelty, its input joins the corpus and the tables it touched gain
   energy — the power schedule below spends both. *)
let observe t tele ~before ~tables ?seed () =
  let after = snapshot t tele in
  let novel = ref 0 in
  List.iteri
    (fun i key ->
      if after.(i) > before.(i) && not (Hashtbl.mem t.novelty key) then begin
        incr novel;
        Hashtbl.replace t.novelty key ()
      end)
    t.edge_keys;
  if !novel > 0 then begin
    Telemetry.incr ~n:!novel tele "fuzzer.greybox.novel_edges";
    List.iter
      (fun table ->
        Hashtbl.replace t.energy table
          (!novel + Option.value ~default:0 (Hashtbl.find_opt t.energy table)))
      tables;
    if tables <> [] then
      Telemetry.incr ~n:(!novel * List.length tables) tele
        "fuzzer.greybox.energy_assigned";
    match seed with Some input -> admit t input ~energy:!novel | None -> ()
  end;
  !novel

(* --- power schedule ---------------------------------------------------------- *)

let table_energy t name =
  Option.value ~default:0 (Hashtbl.find_opt t.energy name)

(* Weighted table choice: 1 + energy per table, so tables that reached
   novel edges are favored without ever starving the rest. Exactly one
   draw either way, mirroring the uniform [Rng.choose] it replaces. *)
let pick_table t (tables : P4info.table list) =
  let weights =
    List.map (fun (ti : P4info.table) -> (ti, 1 + table_energy t ti.ti_name)) tables
  in
  if List.exists (fun (_, w) -> w > 1) weights then begin
    Telemetry.incr (Telemetry.get ()) "fuzzer.greybox.weighted_picks";
    Rng.choose_weighted t.rng weights
  end
  else Rng.choose t.rng tables

(* Occasionally hand the mutation engine a corpus entry as its base
   instead of a fresh one: a third of bases, energy-weighted across the
   control-plane seeds. *)
let pick_seed_entry t =
  let entries =
    List.concat_map
      (fun s ->
        match s.sd_input with
        | Batch ((_ :: _) as es) -> [ (es, s.sd_energy) ]
        | Batch [] | Packet _ -> [])
      t.seeds
  in
  match entries with
  | [] -> None
  | _ when Rng.int t.rng 3 <> 0 -> None
  | _ ->
      let es = Rng.choose_weighted t.rng entries in
      Telemetry.incr (Telemetry.get ()) "fuzzer.greybox.seeded_bases";
      Some (Rng.choose t.rng es)

(* --- probe packets ----------------------------------------------------------- *)

(* Boundary TTLs hit the punt/drop arms the routing tables guard on. *)
let interesting_ttls = [ 0; 1; 2; 64; 255 ]

let fresh_packet t =
  let octet bound = Rng.int t.rng bound in
  let dst = Printf.sprintf "10.%d.%d.%d" (octet 200) (octet 250) (1 + octet 250) in
  let p = Packet.simple_ipv4 ~src:"192.0.2.9" ~dst () in
  let ttl = List.nth interesting_ttls (Rng.int t.rng (List.length interesting_ttls)) in
  let p = Packet.set p ~header:"ipv4" ~field:"ttl" (Bitvec.of_int ~width:8 ttl) in
  let p =
    Packet.set p ~header:"ipv4" ~field:"dscp"
      (Bitvec.of_int ~width:6 (Rng.int t.rng 64))
  in
  Packet.to_bytes p

let mutate_bytes t bytes =
  let b = Bytes.of_string bytes in
  let flips = 1 + Rng.int t.rng 3 in
  for _ = 1 to flips do
    if Bytes.length b > 0 then
      Bytes.set b (Rng.int t.rng (Bytes.length b))
        (Char.chr (Rng.int t.rng 256))
  done;
  Bytes.to_string b

(* One probe: half the time a fresh random IPv4 frame, half a byte-level
   mutation of an energy-weighted corpus packet (which can flip ether_type
   or lengths into parser arms no well-formed IPv4 frame reaches). The
   stack maps unparseable bytes to a drop, so arbitrary mutations are
   safe. *)
let probe_packet t =
  let port = 1 + Rng.int t.rng 4 in
  let packets =
    List.concat_map
      (fun s ->
        match s.sd_input with
        | Packet (_, bytes) -> [ (bytes, s.sd_energy) ]
        | Batch _ -> [])
      t.seeds
  in
  let bytes =
    match packets with
    | [] -> fresh_packet t
    | _ when Rng.int t.rng 2 = 0 -> fresh_packet t
    | _ -> mutate_bytes t (Rng.choose_weighted t.rng packets)
  in
  (port, bytes)
