(* A MiniSat-style CDCL solver. Literal encoding: literal = 2*var for the
   positive phase, 2*var+1 for the negative phase.

   The search loops allocate nothing: clauses are bare literal arrays,
   "no reason" is the [no_reason] sentinel rather than an option, and
   watch lists and the trail are int-typed arrays.

   A solve resumes from the trail the last one left. Levels 1..k decide
   the assumptions in order, so the levels deciding the prefix a query
   shares with the last one are kept. Clauses join at level 0
   ([add_clause] drops the trail first), so a kept level is always the
   propagation closure of its assumption prefix under the current
   database. *)

module Lit = struct
  type t = int

  let make v sign = (v lsl 1) lor (if sign then 0 else 1)
  let var l = l lsr 1
  let sign l = l land 1 = 0
  let neg l = l lxor 1
  let pp fmt l = Format.fprintf fmt "%s%d" (if sign l then "" else "-") (var l)
end

(* A clause is its literal array; [lits.(0)] and [lits.(1)] are watched. *)
type clause = int array

(* The reason of decisions and of facts without one. *)
let no_reason : clause = [||]

type t = {
  mutable nvars : int;
  mutable assigns : int array;      (* -1 unassigned / 0 false / 1 true *)
  mutable level : int array;
  mutable reason : clause array;    (* [no_reason] for decisions *)
  mutable phase : bool array;       (* saved phase *)
  mutable seen : bool array;
  mutable mark : int array;         (* [add_clause] scratch: lit + 1 per var *)
  mutable watches : clause array array;  (* indexed by literal *)
  mutable nwatches : int array;     (* live prefix of each watch list *)
  mutable trail : int array;        (* literal trail *)
  mutable trail_size : int;
  mutable trail_lim : int array;    (* decision level boundaries *)
  mutable nlevels : int;
  mutable qhead : int;
  mutable cursor : int;             (* [order] positions below are assigned *)
  mutable next_var : int;           (* variables below are assigned *)
  mutable assumed : int array;      (* level i + 1 decides assumed.(i) *)
  mutable scratch : int array;      (* [add_clause] literal buffer *)
  mutable ok : bool;                (* false once a top-level conflict found *)
  (* statistics *)
  mutable n_conflicts : int;
  mutable n_decisions : int;
  mutable n_propagations : int;
  mutable n_restarts : int;
  mutable n_learned : int;
  mutable n_levels_kept : int;
}

let create () =
  { nvars = 0;
    assigns = Array.make 16 (-1);
    level = Array.make 16 0;
    reason = Array.make 16 no_reason;
    phase = Array.make 16 false;
    seen = Array.make 16 false;
    mark = Array.make 16 0;
    watches = Array.make 32 [||];
    nwatches = Array.make 32 0;
    trail = Array.make 16 0;
    trail_size = 0;
    trail_lim = Array.make 16 0;
    nlevels = 0;
    qhead = 0;
    cursor = 0;
    next_var = 0;
    assumed = [||];
    scratch = Array.make 16 0;
    ok = true;
    n_conflicts = 0;
    n_decisions = 0;
    n_propagations = 0;
    n_restarts = 0;
    n_learned = 0;
    n_levels_kept = 0 }

let num_vars t = t.nvars

let grow a fill =
  let b = Array.make (2 * Array.length a) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let new_var t =
  let v = t.nvars in
  t.nvars <- v + 1;
  if v >= Array.length t.assigns then begin
    t.assigns <- grow t.assigns (-1);
    t.level <- grow t.level 0;
    t.reason <- grow t.reason no_reason;
    t.phase <- grow t.phase false;
    t.seen <- grow t.seen false;
    t.mark <- grow t.mark 0;
    t.trail <- grow t.trail 0;
    t.watches <- grow t.watches [||];
    t.nwatches <- grow t.nwatches 0
  end;
  v

let lit_value t l =
  let a = t.assigns.(l lsr 1) in
  if a < 0 then -1 else if l land 1 = 0 then a else 1 - a

let enqueue t l reason =
  let v = l lsr 1 in
  t.assigns.(v) <- 1 - (l land 1);
  t.level.(v) <- t.nlevels;
  t.reason.(v) <- reason;
  t.trail.(t.trail_size) <- l;
  t.trail_size <- t.trail_size + 1

let watch t l (c : clause) =
  let n = t.nwatches.(l) in
  let ws = t.watches.(l) in
  let ws =
    if n < Array.length ws then ws
    else begin
      let bigger = Array.make (max 4 (2 * n)) no_reason in
      Array.blit ws 0 bigger 0 n;
      t.watches.(l) <- bigger;
      bigger
    end
  in
  ws.(n) <- c;
  t.nwatches.(l) <- n + 1

let attach_clause t (c : clause) =
  (* Watch the first two literals. *)
  watch t (Lit.neg c.(0)) c;
  watch t (Lit.neg c.(1)) c

(* Copy [lits] into [t.scratch] from position [n] on, dropping duplicates
   and false literals (the trail is at level 0); returns the count kept, or
   -1 when the clause is a tautology or already true. [t.mark] remembers
   the literal seen per variable (plus one); the caller clears it. *)
let rec collect t n = function
  | [] -> n
  | l :: rest ->
      let v = l lsr 1 in
      let m = t.mark.(v) in
      if m = l + 1 then collect t n rest
      else if m <> 0 then -1
      else begin
        t.mark.(v) <- l + 1;
        let value = lit_value t l in
        if value = 1 then -1
        else if value = 0 then collect t n rest
        else begin
          if n = Array.length t.scratch then t.scratch <- grow t.scratch 0;
          t.scratch.(n) <- l;
          collect t (n + 1) rest
        end
      end

let rec clear_marks mark = function
  | [] -> ()
  | l :: rest -> mark.(l lsr 1) <- 0; clear_marks mark rest

(* Propagate all enqueued facts. Returns the conflicting clause, or
   [no_reason] when there is none. *)
let propagate t =
  let conflict = ref no_reason in
  while !conflict == no_reason && t.qhead < t.trail_size do
    let p = t.trail.(t.qhead) in
    t.qhead <- t.qhead + 1;
    t.n_propagations <- t.n_propagations + 1;
    (* Clauses moved to another watch list never land on [p]'s own: their
       new watch is a literal that is not false, and [neg p] is. *)
    let ws = t.watches.(p) in
    let n = t.nwatches.(p) in
    let falsel = Lit.neg p in
    let i = ref 0 and j = ref 0 in
    while !i < n do
      let c = ws.(!i) in
      incr i;
      if !conflict != no_reason then begin
        (* Copy the remaining watchers unchanged. *)
        ws.(!j) <- c;
        incr j
      end
      else begin
        (* Make sure the false literal is c.(1). *)
        if c.(0) = falsel then begin
          c.(0) <- c.(1);
          c.(1) <- falsel
        end;
        if lit_value t c.(0) = 1 then begin
          (* Clause already satisfied; keep watching. *)
          ws.(!j) <- c;
          incr j
        end
        else begin
          (* Look for a new literal to watch. *)
          let len = Array.length c in
          let k = ref 2 in
          while !k < len && lit_value t c.(!k) = 0 do incr k done;
          if !k < len then begin
            let l = c.(!k) in
            c.(1) <- l;
            c.(!k) <- falsel;
            watch t (Lit.neg l) c
          end
          else begin
            (* Unit or conflicting. *)
            ws.(!j) <- c;
            incr j;
            if lit_value t c.(0) = 0 then conflict := c
            else enqueue t c.(0) c
          end
        end
      end
    done;
    t.nwatches.(p) <- !j
  done;
  !conflict

(* First-UIP conflict analysis. Returns (learned clause lits, backjump level).
   learned.(0) is the asserting literal. *)
let analyze t confl =
  let learnt = ref [] in
  let seen = t.seen in
  let path = ref 0 in
  let p = ref (-1) in
  let confl = ref confl in
  let idx = ref (t.trail_size - 1) in
  let btlevel = ref 0 in
  let continue = ref true in
  while !continue do
    let c = !confl in
    let start = if !p = -1 then 0 else 1 in
    for k = start to Array.length c - 1 do
      let q = c.(k) in
      let v = Lit.var q in
      if (not seen.(v)) && t.level.(v) > 0 then begin
        seen.(v) <- true;
        if t.level.(v) >= t.nlevels then incr path
        else begin
          learnt := q :: !learnt;
          if t.level.(v) > !btlevel then btlevel := t.level.(v)
        end
      end
    done;
    (* Select next literal to look at. *)
    while not seen.(Lit.var t.trail.(!idx)) do decr idx done;
    let l = t.trail.(!idx) in
    decr idx;
    p := l;
    confl := t.reason.(Lit.var l);
    seen.(Lit.var l) <- false;
    decr path;
    if !path <= 0 then continue := false
  done;
  let learnt = Lit.neg !p :: !learnt in
  (* Clear seen flags. *)
  List.iter (fun l -> t.seen.(Lit.var l) <- false) learnt;
  (Array.of_list learnt, !btlevel)

let cancel_until t lvl =
  if t.nlevels > lvl then begin
    let bound = t.trail_lim.(lvl) in
    for i = t.trail_size - 1 downto bound do
      let l = t.trail.(i) in
      let v = Lit.var l in
      t.phase.(v) <- Lit.sign l;
      t.assigns.(v) <- -1;
      t.reason.(v) <- no_reason;
      if v < t.next_var then t.next_var <- v
    done;
    t.trail_size <- bound;
    t.nlevels <- lvl;
    t.qhead <- bound;
    t.cursor <- 0
  end

let new_decision_level t =
  (* Assumptions already true open a level without assigning a variable,
     so levels can outnumber variables. *)
  if t.nlevels = Array.length t.trail_lim then t.trail_lim <- grow t.trail_lim 0;
  t.trail_lim.(t.nlevels) <- t.trail_size;
  t.nlevels <- t.nlevels + 1

let add_clause t (lits : Lit.t list) =
  if t.ok then begin
    (* Clauses join at the root: a kept trail may already falsify this one,
       and dropping false literals is sound only under level-0 values. *)
    cancel_until t 0;
    let lits = (lits :> int list) in
    let n = collect t 0 lits in
    clear_marks t.mark lits;
    if n = 0 then t.ok <- false
    else if n = 1 then enqueue t t.scratch.(0) no_reason
    else if n > 1 then attach_clause t (Array.sub t.scratch 0 n)
  end

(* Luby sequence (1 1 2 1 1 2 4 ...): luby i with i >= 1. *)
let rec luby i =
  let k = ref 1 in
  while (1 lsl !k) - 1 < i do incr k done;
  if (1 lsl !k) - 1 = i then 1 lsl (!k - 1)
  else luby (i - (1 lsl (!k - 1)) + 1)

type result = Sat | Unsat
type assumption_result = A_sat | A_unsat of Lit.t list

exception Unsat_exn
exception Restart

(* MiniSat's analyzeFinal: [p] is an assumption literal found falsified at
   its decision point. Walk the trail above level 0 backwards from the
   (already enqueued) implication of [~p], expanding propagation reasons and
   collecting the decision literals reached — under assumption solving every
   decision at those levels is itself an assumption — into the unsat core.
   Literals implied at level 0 do not depend on assumptions and are skipped.
   Must run before [cancel_until]: it reads the live trail. *)
let analyze_final t p =
  let core = ref [ p ] in
  if t.nlevels > 0 then begin
    let seen = t.seen in
    seen.(Lit.var p) <- true;
    let bound = t.trail_lim.(0) in
    for i = t.trail_size - 1 downto bound do
      let l = t.trail.(i) in
      let v = Lit.var l in
      if seen.(v) then begin
        let r = t.reason.(v) in
        if r == no_reason then begin
          (* A decision above level 0: an assumption literal (possibly the
             negation of [p] itself when assumptions directly conflict). *)
          if l <> p then core := l :: !core
        end
        else
          Array.iter
            (fun q -> if t.level.(Lit.var q) > 0 then seen.(Lit.var q) <- true)
            r;
        seen.(v) <- false
      end
    done;
    seen.(Lit.var p) <- false
  end;
  !core

(* The one decision rule past the assumptions: the first literal of
   [order] whose variable is unassigned, else the lowest-index unassigned
   variable in its saved phase, else -1 (all assigned). Decisions taken
   from [order] always use the literal's own polarity: together with the
   fixed scan order this makes the model found a pure function of the
   clause set's meaning — the lexicographically preferred model w.r.t.
   [order] — independent of learned clauses, the kept trail, and restart
   timing; any completion of the rest leaves the ordered variables as they
   are. Positions before [t.cursor] and variables before [t.next_var] are
   known to be assigned; only backtracking unassigns, and [cancel_until]
   moves both back. *)
let pick t (order : int array) =
  let n = Array.length order in
  let i = ref t.cursor in
  while !i < n && t.assigns.(Lit.var order.(!i)) >= 0 do incr i done;
  t.cursor <- !i;
  if !i < n then order.(!i)
  else begin
    let v = ref t.next_var in
    while !v < t.nvars && t.assigns.(!v) >= 0 do incr v done;
    t.next_var <- !v;
    if !v < t.nvars then Lit.make !v t.phase.(!v) else -1
  end

let decide t l =
  t.n_decisions <- t.n_decisions + 1;
  new_decision_level t;
  enqueue t l no_reason

(* The number of leading levels that decide the same assumptions for
   [assumptions] as for the last solve. *)
let shared_levels t (assumptions : int array) =
  let n = min t.nlevels (min (Array.length t.assumed) (Array.length assumptions)) in
  let k = ref 0 in
  while !k < n && t.assumed.(!k) = assumptions.(!k) do incr k done;
  !k

let solve_with_assumptions ?(order = [||]) t assumptions =
  if not t.ok then A_unsat []
  else begin
    let assumptions = Array.of_list (assumptions :> int list) in
    let kept = shared_levels t assumptions in
    cancel_until t kept;
    t.n_levels_kept <- t.n_levels_kept + kept;
    t.assumed <- assumptions;
    t.cursor <- 0;
    let core = ref [] in
    try
      let restart_n = ref 0 in
      let rec search_forever () =
        incr restart_n;
        let budget = 100 * luby !restart_n in
        let conflicts_here = ref 0 in
        (try
           while true do
             let confl = propagate t in
             if confl != no_reason then begin
               t.n_conflicts <- t.n_conflicts + 1;
               incr conflicts_here;
               if t.nlevels = 0 then begin
                 t.ok <- false;
                 raise Unsat_exn
               end;
               let learnt, btlevel = analyze t confl in
               cancel_until t btlevel;
               (if Array.length learnt = 1 then enqueue t learnt.(0) no_reason
                else begin
                  t.n_learned <- t.n_learned + 1;
                  attach_clause t learnt;
                  enqueue t learnt.(0) learnt
                end);
               if !conflicts_here >= budget then begin
                 t.n_restarts <- t.n_restarts + 1;
                 cancel_until t 0;
                 raise Restart
               end
             end
             else if t.nlevels < Array.length assumptions then begin
               (* Decide next: assumptions first, then [pick]. *)
               let p = assumptions.(t.nlevels) in
               match lit_value t p with
               | 1 -> new_decision_level t
               | 0 ->
                   (* Conflicts with the assumptions: report which. *)
                   core := analyze_final t p;
                   raise Unsat_exn
               | _ -> decide t p
             end
             else begin
               let l = pick t order in
               if l < 0 then raise Exit (* all assigned: SAT *)
               else decide t l
             end
           done
         with Restart -> ());
        search_forever ()
      in
      (try search_forever () with Exit -> ());
      A_sat
    with Unsat_exn ->
      (* Distinguish global unsat from assumption-relative unsat: if [ok]
         was cleared, the instance is globally unsat (empty core); otherwise
         only the assumptions failed, the levels below the failed one stay
         for the next solve, and the solver stays usable. *)
      if not t.ok then cancel_until t 0;
      A_unsat !core
  end

let solve ?(assumptions = []) t =
  match solve_with_assumptions t assumptions with
  | A_sat -> Sat
  | A_unsat _ -> Unsat

let value t v = if t.assigns.(v) >= 0 then t.assigns.(v) = 1 else t.phase.(v)
let num_learned t = t.n_learned

let stats t =
  [ ("conflicts", t.n_conflicts);
    ("decisions", t.n_decisions);
    ("propagations", t.n_propagations);
    ("restarts", t.n_restarts);
    ("learned", t.n_learned);
    ("levels_kept", t.n_levels_kept) ]
