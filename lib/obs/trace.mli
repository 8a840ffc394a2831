(** Hierarchical span tracing and decision provenance, with
    {e per-domain} sinks.

    The tracer records two kinds of events into an in-memory sink:

    - {b spans} (begin/end pairs) forming a tree — pipeline stages,
      per-level hyperplane searches. A span of category ["stage"] is the
      pipeline's only stage timer: {!fold_spans} and {!summary} derive
      exclusive self-times and inclusive totals from recorded events;
    - {b instants} — point-in-time decision events (why an SCC pair was
      cut, whether an ILP solve was warm or cold, which degradation
      rung fired) with structured {!Json.t} arguments.

    Every domain owns an independent sink in domain-local storage:
    {!enable}, {!events}, {!capture} etc. act on the calling domain's
    sink only.  Emission is therefore lock-free — no mutex, no
    cross-domain interleaving — and concurrent {!capture}s on
    different domains (one per in-flight request in the serving
    daemon) cannot lose or mix events.

    The default sink is {e null}: {!on} is a single [Atomic.get] of
    the count of domains with an enabled sink, and every emit function
    returns immediately when it reads zero, so instrumented hot paths
    cost one atomic load when tracing is off.  Call sites that build
    argument lists should guard with [if Trace.on () then ...] so the
    allocation is skipped too.

    Timestamps are microseconds relative to the calling domain's most
    recent {!enable}/{!reset}, clamped to be non-decreasing (Chrome's
    trace viewer requires monotone timestamps).  The timestamp source
    defaults to the wall clock; [Linalg.Clock] installs the monotonic
    clock via {!set_clock} at link time. *)

type phase = B | E | I

type event = {
  ph : phase;
  name : string;
  cat : string;
  ts : float;  (** microseconds since {!enable}/{!reset} *)
  args : (string * Json.t) list;
}

(** Is any domain's sink active? One [Atomic.get] — the only check hot
    paths pay when tracing is off. *)
val on : unit -> bool

(** Replace the timestamp source (seconds, as a float). Installed once
    at link time by [Linalg.Clock]; tests may swap in a fake clock. *)
val set_clock : (unit -> float) -> unit

(** Start recording into a fresh sink {e on the calling domain} (drops
    that domain's prior events, re-zeroes its clock). *)
val enable : unit -> unit

(** Stop the calling domain's recording. Events stay readable until
    the next {!enable}. *)
val disable : unit -> unit

(** Drop the calling domain's recorded events and re-zero its clock,
    keeping the enabled/disabled state. *)
val reset : unit -> unit

(** The calling domain's recorded events, in emission order. *)
val events : unit -> event list

val event_count : unit -> int

(** {2 Emission} — all no-ops when the calling domain's sink is off. *)

val begin_span : ?args:(string * Json.t) list -> cat:string -> string -> unit
val end_span : string -> unit

(** [span ~cat name f] wraps [f ()] in a begin/end pair (ended on
    exceptions too). *)
val span : ?args:(string * Json.t) list -> cat:string -> string -> (unit -> 'a) -> 'a

val instant : ?args:(string * Json.t) list -> cat:string -> string -> unit

(** {2 Reconstruction} — over an explicit event list: a capture's, a
    recording's, or [events ()] for the calling domain's sink. *)

(** One closed span: inclusive ([total]) and exclusive ([self])
    seconds. *)
type span = { name : string; cat : string; total : float; self : float }

(** [fold_spans ?cat f acc events] folds [f] over the closed spans of
    [events] in close order. With [cat], only spans of that category
    are seen, and [self] is the span's duration minus that of its
    direct children of the same category; without, every span is seen.
    Spans still open at the end of the list are skipped. *)
val fold_spans : ?cat:string -> ('a -> span -> 'a) -> 'a -> event list -> 'a

(** Per-name [(self, total)] second sums of the spans of category
    [cat], in first-close order. With [cat = "stage"] these are the
    pipeline's stage times. *)
val summary : cat:string -> event list -> (string * float * float) list

(** [with_recording f] runs [f] under a fresh enabled sink and returns
    its result with the recorded events; the previous sink state
    (on/off and events) is NOT restored — callers own their domain's
    tracer. *)
val with_recording : (unit -> 'a) -> 'a * event list

(** [capture f] runs [f] under a fresh recording like {!with_recording}
    but saves the calling domain's entire sink state first and
    restores it afterwards (also on exceptions — the captured events
    are then lost). Captures therefore nest, and concurrent captures
    on different domains are independent. This is what the serving
    daemon uses to harvest per-request decision events. *)
val capture : (unit -> 'a) -> 'a * event list
