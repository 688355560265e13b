module Repro = Switchv_triage.Repro
module Telemetry = Switchv_telemetry.Telemetry
module Json = Telemetry.Json
module Jsonp = Switchv_telemetry.Jsonp
module Shard = Switchv_parallel.Shard
module Pool = Switchv_parallel.Pool

type sink = {
  detector : Report.detector;
  cap : int;
  (* Kept beside the list so that a budget check is O(1), not a
     [List.length]. A shard's sink starts at its parent's count. *)
  mutable count : int;
  mutable rev_incidents : Report.incident list;
}

let sink ~cap detector = { detector; cap; count = 0; rev_incidents = [] }

let room s = s.count < s.cap

let record s ?context ?repro (kind, detail) =
  s.count <- s.count + 1;
  Telemetry.incr (Telemetry.get ()) "campaign.incidents";
  s.rev_incidents <-
    Report.incident ?context ?repro s.detector ~kind ~detail :: s.rev_incidents

let add s ?context ?repro kind detail =
  if room s then record s ?context ?repro (kind, detail)

let add_batch s ?context ?repro incidents =
  if room s then List.iter (record s ?context ?repro) incidents

let incidents s = List.rev s.rev_incidents

type totals = (string * float) list

let total totals name = Option.value ~default:0. (List.assoc_opt name totals)

(* Each contribution is clamped at zero: a worker whose clock stepped
   backwards must not subtract time from the merged total. *)
let sum results =
  List.fold_left
    (List.fold_left (fun acc (name, v) ->
         (name, total acc name +. Float.max 0. v) :: List.remove_assoc name acc))
    [] results

(* The one shard payload: incidents with their reproducers, then the named
   totals. [Json.num] round-trips floats exactly. *)
let encode (incidents, totals) =
  Json.obj
    [ ("incidents", Json.arr (List.map Report.incident_ipc_to_json incidents));
      ("totals", Json.obj (List.map (fun (k, v) -> (k, Json.num v)) totals)) ]

let decode payload =
  let ( let* ) = Result.bind in
  let all f xs =
    List.fold_right
      (fun x acc ->
        let* acc = acc in
        let* y = f x in
        Ok (y :: acc))
      xs (Ok [])
  in
  let* j = Jsonp.parse payload in
  match (Jsonp.member "incidents" j, Jsonp.member "totals" j) with
  | Some (Jsonp.Arr incidents), Some (Jsonp.Obj totals) ->
      let* incidents = all Report.incident_of_ipc_json incidents in
      let* totals =
        all
          (fun (k, v) ->
            Option.to_result ~none:"shard payload: bad total"
              (Option.map (fun x -> (k, x)) (Jsonp.to_num v)))
          totals
      in
      Ok (incidents, totals)
  | _ -> Error "shard payload: missing incidents or totals"

let run ?(jobs = 1) ?parent_shards parent ~shards shard work =
  let shards = max 1 shards in
  let slices = Shard.partition ~shards work in
  let base = parent.count in
  let results =
    Pool.map ?parent_shards ~jobs ~shards ~encode ~decode (fun s ->
        let local = { parent with count = base; rev_incidents = [] } in
        let totals = shard s local slices.(s) in
        (incidents local, totals))
  in
  let merged = List.concat_map fst results in
  let merged =
    if shards > 1 then List.filteri (fun i _ -> i < parent.cap - base) merged
    else merged
  in
  parent.count <- base + List.length merged;
  parent.rev_incidents <- List.rev_append merged parent.rev_incidents;
  sum (List.map snd results)
