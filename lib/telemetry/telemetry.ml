type clock = unit -> float

(* --- monotonic-ish wall clock ------------------------------------------------ *)

(* [Unix.gettimeofday] is a wall clock: NTP steps (or an operator touching
   the clock) can move it backwards mid-campaign, which used to surface as
   negative durations in reports and bench JSON. The stdlib exposes no
   monotonic clock without C stubs, so we settle for monotonic-ish: never
   return a timestamp smaller than one already handed out. A forked worker
   inherits the floor, which only tightens the guarantee. *)
module Clock = struct
  let last = ref neg_infinity

  let now () =
    let t = Unix.gettimeofday () in
    if t > !last then last := t;
    !last

  let duration ~since =
    let d = now () -. since in
    if d > 0. then d else 0.
end

(* --- histograms ------------------------------------------------------------ *)

(* Log-spaced latency buckets in seconds (1µs .. 10s); observations above
   the last bound land in an implicit overflow bucket whose effective upper
   edge is the maximum observed value. *)
let default_bounds =
  [| 1e-6; 2.5e-6; 5e-6; 1e-5; 2.5e-5; 5e-5; 1e-4; 2.5e-4; 5e-4; 1e-3; 2.5e-3;
     5e-3; 1e-2; 2.5e-2; 5e-2; 0.1; 0.25; 0.5; 1.; 2.5; 5.; 10. |]

type histogram = {
  bounds : float array;
  buckets : int array;               (* length = Array.length bounds + 1 *)
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_max : float;
}

let make_histogram () =
  { bounds = default_bounds;
    buckets = Array.make (Array.length default_bounds + 1) 0;
    h_count = 0;
    h_sum = 0.;
    h_max = neg_infinity }

let histogram_observe h v =
  let n = Array.length h.bounds in
  let rec find i = if i >= n || v <= h.bounds.(i) then i else find (i + 1) in
  let i = find 0 in
  h.buckets.(i) <- h.buckets.(i) + 1;
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. v;
  if v > h.h_max then h.h_max <- v

(* Rank-based estimate with linear interpolation inside the target bucket:
   a quantile whose rank falls exactly on a cumulative bucket edge returns
   that bucket's upper bound exactly (deterministic for tests). *)
let histogram_quantile h p =
  if h.h_count = 0 then None
  else begin
    let target = p *. float_of_int h.h_count in
    let nb = Array.length h.buckets in
    let rec go i cum =
      if i >= nb then h.h_max
      else begin
        let c = h.buckets.(i) in
        let cum' = cum +. float_of_int c in
        if c > 0 && cum' >= target then begin
          let lo = if i = 0 then 0. else h.bounds.(i - 1) in
          let hi = if i < Array.length h.bounds then h.bounds.(i) else h.h_max in
          let frac = (target -. cum) /. float_of_int c in
          let frac = if frac < 0. then 0. else if frac > 1. then 1. else frac in
          lo +. ((hi -. lo) *. frac)
        end
        else go (i + 1) cum'
      end
    in
    Some (go 0 0.)
  end

(* --- registry --------------------------------------------------------------- *)

type sink = string -> unit

(* Span ids are partitioned into blocks so ids allocated in forked workers
   never collide with the parent's: the parent allocates a fresh block per
   worker ([alloc_sid_block]) and the worker seeds its registry from it
   ([seed_spans]). Block 0 belongs to the process that created the
   registry; [sid_block] recovers the block (= worker number) from any id,
   which the trace tooling uses as a thread id. *)
let sid_block_bits = 30

let sid_block sid = sid lsr sid_block_bits

type t = {
  clock : clock;
  mutable on : bool;
  mutable sink : sink option;
  counters : (string, int ref) Hashtbl.t;
  histograms : (string, histogram) Hashtbl.t;
  mutable span_stack : (string * int) list;  (* innermost first: name, sid *)
  mutable seq : int;
  mutable next_sid : int;
  mutable sid_base : int;        (* first sid of this registry's block *)
  mutable next_block : int;      (* next worker block to hand out *)
  mutable root_psid : int option;(* parent sid for spans opened at depth 0 *)
  mutable tick : (unit -> unit) option;
  mutable in_tick : bool;
}

let create ?(clock = Unix.gettimeofday) () =
  { clock;
    on = true;
    sink = None;
    counters = Hashtbl.create 64;
    histograms = Hashtbl.create 32;
    span_stack = [];
    seq = 0;
    next_sid = 1;
    sid_base = 1;
    next_block = 1;
    root_psid = None;
    tick = None;
    in_tick = false }

let default = create ()

let current = ref default

let get () = !current

let with_registry t f =
  let previous = !current in
  current := t;
  Fun.protect ~finally:(fun () -> current := previous) f

let set_enabled t on = t.on <- on
let enabled t = t.on

let reset t =
  Hashtbl.reset t.counters;
  Hashtbl.reset t.histograms;
  t.span_stack <- [];
  t.seq <- 0;
  t.next_sid <- t.sid_base

(* --- span-id plumbing (fork stitching) --------------------------------------- *)

let alloc_sid_block t =
  let b = t.next_block in
  t.next_block <- b + 1;
  b lsl sid_block_bits

let seed_spans t ~sid_base ~root_psid =
  t.sid_base <- sid_base;
  t.next_sid <- sid_base;
  t.root_psid <- root_psid

let current_sid t =
  match t.span_stack with (_, sid) :: _ -> Some sid | [] -> t.root_psid

let set_tick t tick = t.tick <- tick

let run_tick t =
  match t.tick with
  | Some f when not t.in_tick ->
      t.in_tick <- true;
      Fun.protect ~finally:(fun () -> t.in_tick <- false) f
  | _ -> ()

(* --- counters --------------------------------------------------------------- *)

let incr ?(n = 1) t name =
  if t.on then begin
    match Hashtbl.find_opt t.counters name with
    | Some r -> r := !r + n
    | None -> Hashtbl.replace t.counters name (ref n)
  end

let counter t name =
  match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

(* --- histograms (registry level) --------------------------------------------- *)

let observe t name v =
  if t.on then begin
    let h =
      match Hashtbl.find_opt t.histograms name with
      | Some h -> h
      | None ->
          let h = make_histogram () in
          Hashtbl.replace t.histograms name h;
          h
    in
    histogram_observe h v
  end

let quantile t name p =
  match Hashtbl.find_opt t.histograms name with
  | Some h -> histogram_quantile h p
  | None -> None

(* --- JSON ------------------------------------------------------------------- *)

module Json = struct
  let escape s =
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let str s = "\"" ^ escape s ^ "\""

  let num f =
    match Float.classify_float f with
    | FP_nan | FP_infinite -> "null"
    | _ ->
        (* Shortest representation that round-trips: %.12g covers most
           values compactly; fall back to %.17g (always exact) when it
           loses precision — absolute wall-clock timestamps need it. *)
        let s = Printf.sprintf "%.12g" f in
        let s = if float_of_string s = f then s else Printf.sprintf "%.17g" f in
        (* "1e-06" is valid JSON; "1." is not. *)
        if String.length s > 0 && s.[String.length s - 1] = '.' then s ^ "0" else s

  let int i = string_of_int i
  let bool b = if b then "true" else "false"

  let obj fields =
    "{" ^ String.concat "," (List.map (fun (k, v) -> str k ^ ":" ^ v) fields) ^ "}"

  let arr items = "[" ^ String.concat "," items ^ "]"

  let rec to_string = function
    | Jsonp.Null -> "null"
    | Bool b -> bool b
    | Num f when Float.is_integer f && Float.abs f <= 2. ** 52. ->
        string_of_int (int_of_float f)
    | Num f -> num f
    | Str s -> str s
    | Arr xs -> arr (List.map to_string xs)
    | Obj fields -> obj (List.map (fun (k, v) -> (k, to_string v)) fields)

  let check s = Result.map ignore (Jsonp.parse s)
end

(* --- spans / trace events ----------------------------------------------------- *)

let set_sink t sink = t.sink <- sink
let tracing t = t.on && t.sink <> None

let attrs_field attrs =
  match attrs with
  | [] -> []
  | attrs -> [ ("attrs", Json.obj (List.map (fun (k, v) -> (k, Json.str v)) attrs)) ]

let emit_raw t line =
  match t.sink with
  | None -> ()
  | Some write -> write line

let emit t fields = emit_raw t (Json.obj fields)

let parent_field t =
  match t.span_stack with
  | [] -> "null"
  | (parent, _) :: _ -> Json.str parent

let psid_field t =
  match current_sid t with None -> "null" | Some sid -> Json.int sid

let next_seq t =
  let s = t.seq in
  t.seq <- s + 1;
  s

let next_sid t =
  let s = t.next_sid in
  t.next_sid <- s + 1;
  s

let with_span ?(attrs = []) t name f =
  if not t.on then f ()
  else begin
    let depth = List.length t.span_stack in
    let start = t.clock () in
    let sid = next_sid t in
    if tracing t then
      emit t
        ([ ("ev", Json.str "b"); ("span", Json.str name); ("ts", Json.num start);
           ("sid", Json.int sid); ("psid", psid_field t);
           ("depth", Json.int depth); ("parent", parent_field t);
           ("seq", Json.int (next_seq t)) ]
        @ attrs_field attrs);
    t.span_stack <- (name, sid) :: t.span_stack;
    let finish () =
      (match t.span_stack with _ :: rest -> t.span_stack <- rest | [] -> ());
      let stop = t.clock () in
      let dur = stop -. start in
      observe t name dur;
      if tracing t then
        emit t
          [ ("ev", Json.str "e"); ("span", Json.str name); ("ts", Json.num stop);
            ("sid", Json.int sid); ("dur_s", Json.num dur);
            ("depth", Json.int depth); ("seq", Json.int (next_seq t)) ];
      run_tick t
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let event ?(attrs = []) t name =
  if tracing t then
    emit t
      ([ ("ev", Json.str "i"); ("span", Json.str name); ("ts", Json.num (t.clock ()));
         ("sid", Json.int (next_sid t)); ("psid", psid_field t);
         ("depth", Json.int (List.length t.span_stack)); ("parent", parent_field t);
         ("seq", Json.int (next_seq t)) ]
      @ attrs_field attrs)

let with_trace_channel t oc f =
  let previous = t.sink in
  set_sink t
    (Some
       (fun line ->
         output_string oc line;
         output_char oc '\n'));
  Fun.protect
    ~finally:(fun () ->
      flush oc;
      set_sink t previous)
    f

(* --- snapshots ---------------------------------------------------------------- *)

type histogram_summary = {
  hs_count : int;
  hs_sum : float;
  hs_p50 : float;
  hs_p90 : float;
  hs_p99 : float;
  hs_max : float;
}

type snapshot = {
  snap_counters : (string * int) list;
  snap_histograms : (string * histogram_summary) list;
}

let snapshot t =
  let counters =
    Hashtbl.fold (fun name r acc -> (name, !r) :: acc) t.counters []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let histograms =
    Hashtbl.fold
      (fun name h acc ->
        if h.h_count = 0 then acc
        else begin
          let q p = Option.value ~default:0. (histogram_quantile h p) in
          ( name,
            { hs_count = h.h_count;
              hs_sum = h.h_sum;
              hs_p50 = q 0.5;
              hs_p90 = q 0.9;
              hs_p99 = q 0.99;
              hs_max = h.h_max } )
          :: acc
        end)
      t.histograms []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  { snap_counters = counters; snap_histograms = histograms }

let pp_duration fmt s =
  if s < 1e-3 then Format.fprintf fmt "%.0fµs" (s *. 1e6)
  else if s < 1. then Format.fprintf fmt "%.2fms" (s *. 1e3)
  else Format.fprintf fmt "%.2fs" s

let pp_snapshot fmt snap =
  Format.fprintf fmt "@[<v>";
  if snap.snap_counters <> [] then begin
    Format.fprintf fmt "telemetry counters:@,";
    List.iter
      (fun (name, v) -> Format.fprintf fmt "  %-40s %12d@," name v)
      snap.snap_counters
  end;
  if snap.snap_histograms <> [] then begin
    Format.fprintf fmt "telemetry latency (count / p50 / p90 / p99 / max / total):@,";
    List.iter
      (fun (name, h) ->
        Format.fprintf fmt "  %-40s %8d  %a %a %a %a %a@," name h.hs_count pp_duration
          h.hs_p50 pp_duration h.hs_p90 pp_duration h.hs_p99 pp_duration h.hs_max
          pp_duration h.hs_sum)
      snap.snap_histograms
  end;
  Format.fprintf fmt "@]"

(* --- export / absorb (fork merge) --------------------------------------------- *)

type histogram_dump = {
  hd_buckets : int array;
  hd_count : int;
  hd_sum : float;
  hd_max : float;
}

type export = {
  ex_counters : (string * int) list;
  ex_histograms : (string * histogram_dump) list;
}

let export t =
  let counters =
    Hashtbl.fold (fun name r acc -> (name, !r) :: acc) t.counters []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let histograms =
    Hashtbl.fold
      (fun name h acc ->
        if h.h_count = 0 then acc
        else
          ( name,
            { hd_buckets = Array.copy h.buckets;
              hd_count = h.h_count;
              hd_sum = h.h_sum;
              hd_max = h.h_max } )
          :: acc)
      t.histograms []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  { ex_counters = counters; ex_histograms = histograms }

let absorb t ex =
  List.iter (fun (name, n) -> incr ~n t name) ex.ex_counters;
  if t.on then
    List.iter
      (fun (name, d) ->
        if d.hd_count > 0 then begin
          let h =
            match Hashtbl.find_opt t.histograms name with
            | Some h -> h
            | None ->
                let h = make_histogram () in
                Hashtbl.replace t.histograms name h;
                h
          in
          (* Bucket layouts agree (both sides use [default_bounds]); the
             [min] only guards against a future bounds change racing an
             old worker. *)
          let nb = min (Array.length h.buckets) (Array.length d.hd_buckets) in
          for i = 0 to nb - 1 do
            h.buckets.(i) <- h.buckets.(i) + d.hd_buckets.(i)
          done;
          h.h_count <- h.h_count + d.hd_count;
          h.h_sum <- h.h_sum +. d.hd_sum;
          if d.hd_max > h.h_max then h.h_max <- d.hd_max
        end)
      ex.ex_histograms

(* Subtract a previously-taken export from the registry's current state.
   Because counters and histogram buckets are monotonic, the difference is
   itself a valid export; a stream of diffs absorbed in order sums to
   exactly the full export, which is what lets workers stream telemetry
   heartbeats mid-shard without double counting. *)
let diff_export t ~base =
  let cur = export t in
  let counters =
    List.filter_map
      (fun (name, v) ->
        let v0 =
          Option.value ~default:0 (List.assoc_opt name base.ex_counters)
        in
        if v - v0 <> 0 then Some (name, v - v0) else None)
      cur.ex_counters
  in
  let histograms =
    List.filter_map
      (fun (name, d) ->
        match List.assoc_opt name base.ex_histograms with
        | None -> Some (name, d)
        | Some d0 ->
            let dc = d.hd_count - d0.hd_count in
            if dc <= 0 then None
            else begin
              let buckets = Array.copy d.hd_buckets in
              let nb = min (Array.length buckets) (Array.length d0.hd_buckets) in
              for i = 0 to nb - 1 do
                buckets.(i) <- buckets.(i) - d0.hd_buckets.(i)
              done;
              Some
                ( name,
                  { hd_buckets = buckets;
                    hd_count = dc;
                    hd_sum = d.hd_sum -. d0.hd_sum;
                    hd_max = d.hd_max } )
            end)
      cur.ex_histograms
  in
  { ex_counters = counters; ex_histograms = histograms }

let snapshot_to_json snap =
  Json.obj
    [ ( "counters",
        Json.obj (List.map (fun (name, v) -> (name, Json.int v)) snap.snap_counters) );
      ( "histograms",
        Json.obj
          (List.map
             (fun (name, h) ->
               ( name,
                 Json.obj
                   [ ("count", Json.int h.hs_count); ("sum_s", Json.num h.hs_sum);
                     ("p50_s", Json.num h.hs_p50); ("p90_s", Json.num h.hs_p90);
                     ("p99_s", Json.num h.hs_p99); ("max_s", Json.num h.hs_max) ] ))
             snap.snap_histograms) ) ]
