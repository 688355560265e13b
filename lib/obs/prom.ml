module Telemetry = Switchv_telemetry.Telemetry

(* --- rendering (exposition format 0.0.4) ----------------------------------- *)

let is_name_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  || c = '_' || c = ':'

let metric_name name =
  let b = Bytes.of_string name in
  Bytes.iteri (fun i c -> if not (is_name_char c) then Bytes.set b i '_') b;
  "switchv_" ^ Bytes.to_string b

let escape_help s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let float_str f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%g" f

type gauge = {
  g_name : string;   (* already in Prometheus form, e.g. switchv_edges_covered *)
  g_help : string;
  g_value : float;
}

let header buf name help typ =
  Printf.bprintf buf "# HELP %s %s\n" name (escape_help help);
  Printf.bprintf buf "# TYPE %s %s\n" name typ

let help_for raw_name =
  Option.value ~default:"(undocumented)" (Docs.doc_for raw_name)

(* Render the registry (plus computed gauges, e.g. live coverage) in the
   Prometheus text exposition format. Counters keep their dotted name
   mapped through [metric_name]; span histograms get a [_seconds] suffix
   and explicit [le] bucket edges from the shared bounds. *)
let render ?(gauges = []) tele =
  let buf = Buffer.create 4096 in
  List.iter
    (fun g ->
      header buf g.g_name g.g_help "gauge";
      Printf.bprintf buf "%s %s\n" g.g_name (float_str g.g_value))
    gauges;
  let ex = Telemetry.export tele in
  List.iter
    (fun (name, v) ->
      let m = metric_name name in
      header buf m (help_for name) "counter";
      Printf.bprintf buf "%s %d\n" m v)
    ex.Telemetry.ex_counters;
  let bounds = Telemetry.default_bounds in
  List.iter
    (fun (name, (d : Telemetry.histogram_dump)) ->
      let m = metric_name name ^ "_seconds" in
      header buf m (help_for name) "histogram";
      let cum = ref 0 in
      Array.iteri
        (fun i bound ->
          if i < Array.length d.hd_buckets then cum := !cum + d.hd_buckets.(i);
          Printf.bprintf buf "%s_bucket{le=\"%g\"} %d\n" m bound !cum)
        bounds;
      Printf.bprintf buf "%s_bucket{le=\"+Inf\"} %d\n" m d.hd_count;
      Printf.bprintf buf "%s_sum %s\n" m (float_str d.hd_sum);
      Printf.bprintf buf "%s_count %d\n" m d.hd_count)
    ex.Telemetry.ex_histograms;
  Buffer.contents buf

(* --- linting ---------------------------------------------------------------- *)

(* A small validity checker for the exposition format, used by
   [make check-obs] and the test suite: metric names well-formed, every
   sample preceded by its family's # TYPE, every family documented with a
   # HELP, families contiguous and not redefined, label syntax and sample
   values parseable, histogram suffixes used consistently, and the text
   ending in a newline. *)

let valid_name s =
  s <> ""
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true | _ -> false)
  && String.for_all is_name_char s

let strip_suffix name =
  let try_one suffix =
    let ls = String.length suffix and ln = String.length name in
    if ln > ls && String.sub name (ln - ls) ls = suffix then
      Some (String.sub name 0 (ln - ls))
    else None
  in
  match try_one "_bucket" with
  | Some base -> Some (base, `Bucket)
  | None -> (
      match try_one "_sum" with
      | Some base -> Some (base, `Sum)
      | None -> (
          match try_one "_count" with
          | Some base -> Some (base, `Count)
          | None -> None))

(* Parse [name{labels} value] into (name, labels, value-string). Returns
   an error message on malformed label syntax. *)
let parse_sample line =
  let n = String.length line in
  let i = ref 0 in
  while !i < n && is_name_char line.[!i] do Stdlib.incr i done;
  let name = String.sub line 0 !i in
  let labels = ref [] in
  let err = ref None in
  (if !i < n && line.[!i] = '{' then begin
     Stdlib.incr i;
     let fine = ref true in
     while !fine && !i < n && line.[!i] <> '}' do
       let ls = !i in
       while !i < n && is_name_char line.[!i] do Stdlib.incr i done;
       let lname = String.sub line ls (!i - ls) in
       if lname = "" || !i >= n || line.[!i] <> '=' then begin
         err := Some "malformed label name";
         fine := false
       end
       else begin
         Stdlib.incr i;
         if !i >= n || line.[!i] <> '"' then begin
           err := Some "label value must be quoted";
           fine := false
         end
         else begin
           Stdlib.incr i;
           let b = Buffer.create 8 in
           let closed = ref false in
           while (not !closed) && !fine && !i < n do
             (match line.[!i] with
             | '"' -> closed := true
             | '\\' ->
                 Stdlib.incr i;
                 if !i >= n || not (List.mem line.[!i] [ '\\'; '"'; 'n' ]) then begin
                   err := Some "bad escape in label value";
                   fine := false
                 end
                 else Buffer.add_char b line.[!i]
             | c -> Buffer.add_char b c);
             Stdlib.incr i
           done;
           if not !closed then begin
             err := Some "unterminated label value";
             fine := false
           end
           else begin
             labels := (lname, Buffer.contents b) :: !labels;
             if !i < n && line.[!i] = ',' then Stdlib.incr i
           end
         end
       end
     done;
     if !fine then
       if !i < n && line.[!i] = '}' then Stdlib.incr i
       else err := Some "unterminated label set"
   end);
  match !err with
  | Some e -> Error e
  | None ->
      let rest = String.trim (String.sub line !i (n - !i)) in
      Ok (name, List.rev !labels, rest)

let parse_value s =
  (* value [timestamp]; Prometheus allows +Inf/-Inf/NaN. *)
  match String.split_on_char ' ' s |> List.filter (fun x -> x <> "") with
  | [] -> Error "missing sample value"
  | value :: rest ->
      if List.length rest > 1 then Error "trailing tokens after timestamp"
      else if
        (match value with "+Inf" | "-Inf" | "NaN" -> true | _ -> false)
        || float_of_string_opt value <> None
      then
        match rest with
        | [] -> Ok ()
        | [ ts ] ->
            if float_of_string_opt ts <> None then Ok ()
            else Error "malformed timestamp"
        | _ -> Error "trailing tokens after timestamp"
      else Error (Printf.sprintf "malformed sample value %S" value)

let lint text =
  let errors = ref [] in
  let add lineno msg = errors := Printf.sprintf "line %d: %s" lineno msg :: !errors in
  if text = "" then errors := [ "empty exposition" ]
  else begin
    if text.[String.length text - 1] <> '\n' then
      errors := [ "exposition must end with a newline" ];
    let helped = Hashtbl.create 32 in
    let typed = Hashtbl.create 32 in
    let finished = Hashtbl.create 32 in
    let current = ref None in
    let lines = String.split_on_char '\n' text in
    List.iteri
      (fun idx line ->
        let lineno = idx + 1 in
        if line = "" then ()
        else if String.length line >= 1 && line.[0] = '#' then begin
          let meta kind =
            let prefix = "# " ^ kind ^ " " in
            let lp = String.length prefix in
            if String.length line > lp && String.sub line 0 lp = prefix then
              let rest = String.sub line lp (String.length line - lp) in
              match String.index_opt rest ' ' with
              | Some i ->
                  Some (String.sub rest 0 i,
                        String.sub rest (i + 1) (String.length rest - i - 1))
              | None -> Some (rest, "")
            else None
          in
          match meta "HELP" with
          | Some (name, help) ->
              if not (valid_name name) then
                add lineno (Printf.sprintf "invalid metric name %S in HELP" name);
              if help = "" then add lineno (name ^ ": empty HELP text");
              if Hashtbl.mem helped name then
                add lineno (name ^ ": duplicate HELP")
              else Hashtbl.replace helped name ()
          | None -> (
              match meta "TYPE" with
              | Some (name, typ) ->
                  if not (valid_name name) then
                    add lineno (Printf.sprintf "invalid metric name %S in TYPE" name);
                  if
                    not
                      (List.mem typ
                         [ "counter"; "gauge"; "histogram"; "summary"; "untyped" ])
                  then add lineno (name ^ ": unknown type " ^ typ);
                  if Hashtbl.mem typed name then
                    add lineno (name ^ ": duplicate TYPE")
                  else Hashtbl.replace typed name typ;
                  if Hashtbl.mem finished name then
                    add lineno (name ^ ": TYPE after the family's samples ended")
              | None -> () (* free-form comment *))
        end
        else begin
          match parse_sample line with
          | Error e -> add lineno e
          | Ok (name, labels, rest) ->
              if not (valid_name name) then
                add lineno (Printf.sprintf "invalid metric name %S" name)
              else begin
                (match parse_value rest with
                | Ok () -> ()
                | Error e -> add lineno (name ^ ": " ^ e));
                let family, role =
                  match strip_suffix name with
                  | Some (base, role)
                    when Hashtbl.find_opt typed base = Some "histogram" ->
                      (base, Some role)
                  | _ -> (name, None)
                in
                (match role with
                | Some `Bucket when not (List.mem_assoc "le" labels) ->
                    add lineno (name ^ ": _bucket sample without an le label")
                | _ -> ());
                if not (Hashtbl.mem typed family) then
                  add lineno (family ^ ": sample without a preceding TYPE");
                if not (Hashtbl.mem helped family) then
                  add lineno (family ^ ": sample without a preceding HELP");
                (match !current with
                | Some f when f = family -> ()
                | Some f ->
                    Hashtbl.replace finished f ();
                    if Hashtbl.mem finished family then
                      add lineno (family ^ ": family not contiguous");
                    current := Some family
                | None -> current := Some family)
              end
        end)
      lines
  end;
  List.rev !errors
