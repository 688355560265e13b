(* In-memory span recorder for the traced rep.

   The outside-in replica ([Traced]) wraps every call it makes into a
   library layer in [span]. Spans are kept in memory while the rep runs
   and written out once at the end, so the trace costs a clock read, a
   minor-words read and one small record per call. The JSONL output uses
   the campaign trace schema ([ev]/[span]/[ts]/[sid]/[psid]/[seq]), so
   [switchv trace-export --chrome] converts it like any campaign trace. *)

module Telemetry = Switchv_telemetry.Telemetry
module Json = Telemetry.Json

type span = {
  id : int;
  parent : int;  (* 0 for a root *)
  name : string;
  start : float;
  words0 : float;
  b_seq : int;
  mutable stop : float;
  mutable words : float;  (* minor-heap words allocated inside the span *)
  mutable e_seq : int;
}

type t = {
  on : bool;
  mutable next_id : int;
  mutable seq : int;
  mutable open_ : span list;
  mutable closed : span list;  (* most recently closed first *)
  mutable count : int;
}

let make on = { on; next_id = 1; seq = 0; open_ = []; closed = []; count = 0 }
let create () = make true

(* Records nothing: lets untraced set-up code share [Traced]'s helpers. *)
let disabled = make false

let count t = t.count

let span t name f =
  if not t.on then f ()
  else
  let parent = match t.open_ with s :: _ -> s.id | [] -> 0 in
  let s =
    { id = t.next_id; parent; name; words0 = Gc.minor_words ();
      start = Telemetry.Clock.now (); b_seq = t.seq; stop = 0.; words = 0.;
      e_seq = 0 }
  in
  t.next_id <- t.next_id + 1;
  t.seq <- t.seq + 1;
  t.open_ <- s :: t.open_;
  let finish () =
    s.stop <- Telemetry.Clock.now ();
    s.words <- Gc.minor_words () -. s.words0;
    s.e_seq <- t.seq;
    t.seq <- t.seq + 1;
    t.open_ <- (match t.open_ with _ :: rest -> rest | [] -> []);
    t.closed <- s :: t.closed;
    t.count <- t.count + 1
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

let duration s = s.stop -. s.start

(* --- per-layer table ---------------------------------------------------- *)

type layer = {
  calls : int;
  total_s : float;
  self_s : float;    (* duration minus the time covered by child spans *)
  self_words : float;
}

(* Children run inside their parent on one thread, so the covered part of
   a parent's interval is the sum of its direct children's durations. *)
let layers t =
  let child_s = Hashtbl.create 1024 and child_words = Hashtbl.create 1024 in
  let add tbl k v =
    Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k))
  in
  List.iter
    (fun s ->
      if s.parent <> 0 then begin
        add child_s s.parent (duration s);
        add child_words s.parent s.words
      end)
    t.closed;
  let by_name = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let covered tbl = Option.value ~default:0. (Hashtbl.find_opt tbl s.id) in
      let l =
        Option.value (Hashtbl.find_opt by_name s.name)
          ~default:{ calls = 0; total_s = 0.; self_s = 0.; self_words = 0. }
      in
      Hashtbl.replace by_name s.name
        { calls = l.calls + 1;
          total_s = l.total_s +. duration s;
          self_s = l.self_s +. duration s -. covered child_s;
          self_words = l.self_words +. s.words -. covered child_words })
    t.closed;
  Hashtbl.fold (fun name l acc -> (name, l) :: acc) by_name []
  |> List.sort (fun (_, a) (_, b) -> Float.compare b.self_s a.self_s)

(* Root spans (one per traced op), in the order they ran. *)
let roots t = List.rev (List.filter (fun s -> s.parent = 0) t.closed)

(* Durations of the spans named [name], grouped by the root they ran
   under, each group in the order the spans ran. *)
let durations_by_root t name =
  let root_of = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace root_of s.id s.parent) t.closed;
  let rec root id =
    match Hashtbl.find_opt root_of id with
    | Some 0 | None -> id
    | Some p -> root p
  in
  let groups = Hashtbl.create 16 in
  List.iter
    (fun s ->
      if String.equal s.name name then begin
        let r = root s.id in
        Hashtbl.replace groups r
          (duration s :: Option.value ~default:[] (Hashtbl.find_opt groups r))
      end)
    t.closed;
  (* [closed] is newest first, so consing restores run order. *)
  List.filter_map (fun r -> Hashtbl.find_opt groups r.id) (roots t)

(* --- JSONL output --------------------------------------------------------- *)

let write_jsonl t path =
  let events =
    List.concat_map
      (fun s ->
        [ ( s.b_seq,
            Json.obj
              [ ("ev", Json.str "b"); ("span", Json.str s.name);
                ("ts", Json.num s.start); ("sid", Json.int s.id);
                ("psid", if s.parent = 0 then "null" else Json.int s.parent);
                ("seq", Json.int s.b_seq) ] );
          ( s.e_seq,
            Json.obj
              [ ("ev", Json.str "e"); ("span", Json.str s.name);
                ("ts", Json.num s.stop); ("sid", Json.int s.id);
                ("dur_s", Json.num (duration s)); ("seq", Json.int s.e_seq) ] ) ])
      t.closed
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  List.iter
    (fun (_, line) ->
      output_string oc line;
      output_char oc '\n')
    events
