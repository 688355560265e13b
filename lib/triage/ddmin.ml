module Telemetry = Switchv_telemetry.Telemetry

exception Out_of_probes

(* Split [xs] into [n] contiguous chunks of near-equal length (the first
   [len mod n] chunks get the extra element). *)
let split xs n =
  let len = List.length xs in
  let base = len / n and extra = len mod n in
  let rec take k xs chunk =
    if k = 0 then (List.rev chunk, xs)
    else
      match xs with
      | x :: rest -> take (k - 1) rest (x :: chunk)
      | [] -> (List.rev chunk, [])
  in
  let rec go i xs acc =
    if i >= n then List.rev acc
    else begin
      let size = base + if i < extra then 1 else 0 in
      let chunk, rest = take size xs [] in
      go (i + 1) rest (chunk :: acc)
    end
  in
  go 0 xs []

let run_stats ~max_probes ~check xs =
  let tele = Telemetry.get () in
  Telemetry.incr ~n:0 tele "triage.ddmin_probes";
  let probes = ref 0 in
  (* Smallest input observed to fail; the answer if the budget runs dry. *)
  let best = ref xs in
  let test ys =
    if !probes >= max_probes then raise Out_of_probes;
    incr probes;
    Telemetry.incr tele "triage.ddmin_probes";
    let fails = check ys in
    if fails && List.length ys < List.length !best then best := ys;
    fails
  in
  let minimized =
    try
      if not (test xs) then xs (* flaky/vacuous reproducer: do not touch *)
      else if test [] then []
      else begin
        let cur = ref xs and len = ref (List.length xs) and n = ref 2 in
        let adopt ys next_n =
          cur := ys;
          len := List.length ys;
          n := max 2 (min next_n !len)
        in
        (try
           while !len >= 2 do
             let chunks = split !cur !n in
             let rec subsets = function
               | [] -> false
               | c :: rest -> if test c then (adopt c 2; true) else subsets rest
             in
             let complements () =
               let rec go i =
                 if i >= !n then false
                 else begin
                   let comp =
                     List.concat (List.filteri (fun j _ -> j <> i) chunks)
                   in
                   if test comp then (adopt comp (!n - 1); true) else go (i + 1)
                 end
               in
               (* At n = 2 the complements are the chunks just tested. *)
               !n > 2 && go 0
             in
             if not (subsets chunks || complements ()) then
               if !n >= !len then raise Exit else n := min !len (2 * !n)
           done
         with Exit -> ());
        !cur
      end
    with Out_of_probes -> !best
  in
  (minimized, !probes)

let run ~max_probes ~check xs = fst (run_stats ~max_probes ~check xs)
