(* Fork-based worker pool.

   When there is nothing to parallelize, [map] runs every shard in order in
   this process. Otherwise the parent forks one worker per
   [Shard.assignment] slot *after* all expensive setup (parsed program,
   installed reference stack, symbolic encoding) so children inherit it
   copy-on-write for free. Each worker runs its assigned shards in order
   and streams one frame per shard back over a pipe; the parent
   multiplexes the pipes with [select] and reassembles results *by shard
   id*, so the merged list is independent of scheduling.

   Failure policy: a worker that crashes or goes silent past the deadline
   loses its remaining shards. Lost shards degrade coverage — they are
   logged and counted under [parallel.workers_failed] — but never abort
   the run. SIGINT tears the whole pool down. *)

module T = Switchv_telemetry.Telemetry
module Json = T.Json
module Jsonp = Switchv_telemetry.Jsonp

type worker = {
  pid : int;
  rfd : Unix.file_descr;
  dec : Ipc.decoder;
  shards : int list;            (* shards this worker owns, ascending *)
  mutable delivered : int;      (* frames received so far *)
  mutable last_activity : float;
  mutable open_ : bool;
}

(* --- frames -----------------------------------------------------------------

   Three frame kinds share a worker's pipe, told apart by their key: a
   batch of raw trace-event lines the parent re-emits into its own sink
   ("trace"), a telemetry heartbeat ("hb"), and one result envelope per
   shard ("shard", with "payload" or "error"). Telemetry travels as export
   deltas — heartbeats, then a final delta on each envelope — so absorbing
   every frame reproduces the worker's full export exactly. *)

let export_to_json (ex : T.export) =
  let histogram (hd : T.histogram_dump) =
    Json.obj
      [ ("buckets", Json.arr (List.map Json.int (Array.to_list hd.hd_buckets)));
        ("count", Json.int hd.hd_count); ("sum", Json.num hd.hd_sum);
        ("max", Json.num hd.hd_max) ]
  in
  Json.obj
    [ ("counters", Json.obj (List.map (fun (k, n) -> (k, Json.int n)) ex.ex_counters));
      ( "histograms",
        Json.obj (List.map (fun (k, hd) -> (k, histogram hd)) ex.ex_histograms) ) ]

let export_of_json j =
  let fields name =
    match Jsonp.member name j with Some (Jsonp.Obj kvs) -> kvs | _ -> []
  in
  let histogram v =
    let get name conv = Option.bind (Jsonp.member name v) conv in
    match (get "buckets" Jsonp.to_arr, get "count" Jsonp.to_int,
           get "sum" Jsonp.to_num, get "max" Jsonp.to_num) with
    | Some buckets, Some hd_count, Some hd_sum, Some hd_max ->
        let bucket b = Option.value ~default:0 (Jsonp.to_int b) in
        Some { T.hd_buckets = Array.of_list (List.map bucket buckets);
               hd_count; hd_sum; hd_max }
    | _ -> None
  in
  let keep conv (k, v) = Option.map (fun x -> (k, x)) (conv v) in
  { T.ex_counters = List.filter_map (keep Jsonp.to_int) (fields "counters");
    ex_histograms = List.filter_map (keep histogram) (fields "histograms") }

(* --- child --------------------------------------------------------------- *)

let heartbeat_s = 0.5

let run_child ~sid_base ~root_psid ~trace wfd shards task =
  (* One fresh registry per worker, seeded with its own span-id block so
     every span id in the campaign is globally unique, and with the
     parent's span open at fork time as the parent of its depth-0 spans. *)
  let reg = T.create () in
  T.seed_spans reg ~sid_base ~root_psid;
  let send fields = Ipc.write_frame wfd (Json.obj fields) in
  let pending = ref [] in
  if trace then
    T.set_sink reg (Some (fun line -> pending := line :: !pending));
  let flush_trace () =
    if !pending <> [] then begin
      let lines = List.rev !pending in
      pending := [];
      send [ ("trace", Json.arr (List.map Json.str lines)) ]
    end
  in
  let absorbed = ref { T.ex_counters = []; ex_histograms = [] } in
  let take_delta () =
    let delta = T.diff_export reg ~base:!absorbed in
    absorbed := T.export reg;
    delta
  in
  let last_flush = ref (Unix.gettimeofday ()) in
  (* Piggy-back on span finishes (packet injections, solver checks, ...):
     no timers, and a worker wedged inside one long computation simply
     stops heartbeating, which is what the parent's deadline is for. *)
  T.set_tick reg
    (Some
       (fun () ->
         let now = Unix.gettimeofday () in
         if now -. !last_flush >= heartbeat_s then begin
           last_flush := now;
           flush_trace ();
           let delta = take_delta () in
           if delta.T.ex_counters <> [] || delta.T.ex_histograms <> [] then
             send [ ("hb", Json.int 1); ("telemetry", export_to_json delta) ]
         end));
  List.iter
    (fun shard ->
      let result =
        match
          T.with_registry reg (fun () ->
              T.with_span reg "parallel.shard"
                ~attrs:[ ("shard", string_of_int shard) ] (fun () -> task shard))
        with
        | p -> ("payload", Json.str p)
        | exception e -> ("error", Json.str (Printexc.to_string e))
      in
      flush_trace ();
      let telemetry = export_to_json (take_delta ()) in
      send [ ("shard", Json.int shard); result; ("telemetry", telemetry) ])
    shards

(* --- parent -------------------------------------------------------------- *)

let tick_s = 0.25

(* A worker silent this long is assumed wedged and killed. *)
let deadline_s = 300.

let reap pid =
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

let kill_quietly pid signal =
  try Unix.kill pid signal with Unix.Unix_error _ -> ()

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Fork the workers, run [parent_shards] here, and collect one payload per
   shard: [None] for a shard that was lost (already counted and logged). *)
let fork_run ~parent_shards ~jobs ~shards task =
  let tele = T.get () in
  (* The pool span is the stitching anchor: it is open when the workers
     fork, so every worker's [parallel.shard] root hangs off it in the
     campaign trace. *)
  T.with_span tele "parallel.pool" @@ fun () ->
  let payloads = Array.make shards None in
  let lost fmt =
    T.incr tele "parallel.workers_failed";
    Printf.eprintf ("switchv: " ^^ fmt ^^ "\n%!")
  in
  let remote =
    List.filter (fun s -> not (List.mem s parent_shards)) (List.init shards Fun.id)
  in
  let plan =
    Shard.assignment ~jobs ~shards:(List.length remote)
    |> Array.map (List.map (List.nth remote))
    |> Array.to_list
    |> List.filter (fun l -> l <> [])
  in
  (* stdout/stderr are flushed first so buffered output is not emitted
     twice; each write end is closed in the parent before the next fork,
     so no child holds a copy of another worker's write end and EOF on a
     pipe reliably means its worker is gone. *)
  flush stdout;
  flush stderr;
  let root_psid = T.current_sid tele in
  let trace = T.tracing tele in
  let workers =
    List.map
      (fun shard_list ->
        let rfd, wfd = Unix.pipe ~cloexec:false () in
        let sid_base = T.alloc_sid_block tele in
        match Unix.fork () with
        | 0 ->
            Unix.close rfd;
            (try run_child ~sid_base ~root_psid ~trace wfd shard_list task
             with _ -> ());
            close_quietly wfd;
            Unix._exit 0
        | pid ->
            Unix.close wfd;
            { pid; rfd; dec = Ipc.decoder (); shards = shard_list; delivered = 0;
              last_activity = Unix.gettimeofday (); open_ = true })
      plan
  in
  let close w =
    if w.open_ then begin
      close_quietly w.rfd;
      w.open_ <- false
    end
  in
  let lose w reason =
    (* Any shard this worker had not yet delivered is gone; record why. *)
    let missing = List.filteri (fun i _ -> i >= w.delivered) w.shards in
    if missing <> [] then
      lost "worker %d lost shard(s) %s: %s" w.pid
        (String.concat ", " (List.map string_of_int missing))
        reason
  in
  let teardown () =
    List.iter
      (fun w ->
        kill_quietly w.pid Sys.sigkill;
        close w)
      workers;
    List.iter (fun w -> reap w.pid) workers
  in
  let prev_int =
    (* On Ctrl-C: kill and reap every worker, restore the old handler, and
       re-raise so the caller's cleanup still runs. *)
    try
      Some
        (Sys.signal Sys.sigint
           (Sys.Signal_handle
              (fun _ ->
                teardown ();
                raise Sys.Break)))
    with Invalid_argument _ | Sys_error _ -> None
  in
  let restore_int () =
    match prev_int with
    | Some h -> ( try Sys.set_signal Sys.sigint h with _ -> ())
    | None -> ()
  in
  let handle_result w j =
    let get name conv = Option.bind (Jsonp.member name j) conv in
    Option.iter (fun tj -> T.absorb tele (export_of_json tj)) (Jsonp.member "telemetry" j);
    w.delivered <- w.delivered + 1;
    match (get "shard" Jsonp.to_int, get "payload" Jsonp.to_str) with
    | Some s, payload when s >= 0 && s < shards -> (
        payloads.(s) <- payload;
        if payload = None then
          match get "error" Jsonp.to_str with
          | Some e -> lost "worker %d failed shard %d: %s" w.pid s e
          | None -> lost "worker %d sent an empty frame for shard %d" w.pid s)
    | _ -> Printf.eprintf "switchv: worker %d sent frame with bad shard id\n%!" w.pid
  in
  let handle_frame w frame =
    (* Only result envelopes count towards [delivered]. *)
    match Jsonp.parse frame with
    | Ok j -> (
        match (Jsonp.member "trace" j, Jsonp.member "hb" j) with
        | Some (Jsonp.Arr lines), _ ->
            if T.tracing tele then
              List.iter (fun l -> Option.iter (T.emit_raw tele) (Jsonp.to_str l)) lines
        | Some _, _ -> ()
        | None, Some _ ->
            Option.iter (fun tj -> T.absorb tele (export_of_json tj))
              (Jsonp.member "telemetry" j)
        | None, None -> handle_result w j)
    | Error _ ->
        w.delivered <- w.delivered + 1;
        Printf.eprintf "switchv: worker %d sent an unparseable frame\n%!" w.pid
  in
  let buf = Bytes.create 65536 in
  let finish () =
    let rec drain w =
      match Ipc.next w.dec with
      | Some frame ->
          handle_frame w frame;
          drain w
      | None -> ()
      | exception Ipc.Corrupt msg ->
          close w;
          kill_quietly w.pid Sys.sigkill;
          lose w (Printf.sprintf "corrupt stream: %s" msg)
    in
    (* Parent shards run in-process, after the forks, so workers compute
       concurrently with them. A Ctrl-C while one runs ends the pool like
       one anywhere else; any other failure loses only that shard. *)
    List.iter
      (fun s ->
        match task s with
        | p -> payloads.(s) <- Some p
        | exception Sys.Break -> raise Sys.Break
        | exception e -> lost "parent shard %d failed: %s" s (Printexc.to_string e))
      parent_shards;
    let rec loop () =
      match List.filter (fun w -> w.open_) workers with
      | [] -> ()
      | ws ->
          let readable =
            match Unix.select (List.map (fun w -> w.rfd) ws) [] [] tick_s with
            | r, _, _ -> r
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
          in
          let now = Unix.gettimeofday () in
          List.iter
            (fun w ->
              if List.mem w.rfd readable then begin
                match Unix.read w.rfd buf 0 (Bytes.length buf) with
                | 0 ->
                    (* EOF: worker finished (all frames delivered) or died. *)
                    close w;
                    reap w.pid;
                    if Ipc.pending w.dec then lose w "exited mid-frame"
                    else if w.delivered < List.length w.shards then
                      lose w "worker exited early (crash?)"
                | n ->
                    w.last_activity <- now;
                    Ipc.feed w.dec buf n;
                    drain w
                | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
                | exception Unix.Unix_error (e, _, _) ->
                    close w;
                    kill_quietly w.pid Sys.sigkill;
                    reap w.pid;
                    lose w (Printf.sprintf "read error: %s" (Unix.error_message e))
              end
              else if w.open_ && now -. w.last_activity > deadline_s then begin
                (* Silent past the deadline: assume wedged and reclaim. *)
                kill_quietly w.pid Sys.sigkill;
                close w;
                reap w.pid;
                lose w (Printf.sprintf "no output for %.0fs, killed" deadline_s)
              end)
            ws;
          loop ()
    in
    loop ()
  in
  (match finish () with
  | () -> restore_int ()
  | exception e ->
      teardown ();
      restore_int ();
      raise e);
  payloads

let map ?(parent_shards = []) ~jobs ~shards ~encode ~decode task =
  if jobs <= 1 || shards <= 1 then List.init shards task
  else
    fork_run ~parent_shards ~jobs ~shards (fun s -> encode (task s))
    |> Array.to_list
    |> List.mapi (fun s payload ->
           Option.bind payload (fun p ->
               match decode p with
               | Ok r -> Some r
               | Error e ->
                   (* Same degradation contract as a crashed worker: drop
                      the shard, keep the campaign. *)
                   T.incr (T.get ()) "parallel.workers_failed";
                   Printf.eprintf "switchv: dropping undecodable shard %d: %s\n%!"
                     s e;
                   None))
    |> List.filter_map Fun.id
