(** Periodic one-line stderr progress for a running campaign: goals
    solved, packets injected, incidents, live coverage, and an ETA
    extrapolated from goal completion. *)

val render :
  Switchv_telemetry.Telemetry.t ->
  coverage:(unit -> (int * int) option) ->
  elapsed:float ->
  string
(** The line itself (no trailing newline) — exposed for tests. *)

type t

val start :
  Switchv_telemetry.Telemetry.t -> coverage:(unit -> (int * int) option) -> t
(** Emit a line on stderr every 2 s on a background thread until [stop]. *)

val stop : t -> unit
