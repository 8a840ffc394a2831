(** The [BENCH_*.json] records and the one gate evaluator over them.

    Every bench experiment appends the same record schema to its file,
    and every [--check] is {!check}: the experiment's gate table
    evaluated over the newest record. Kept apart from the bench driver
    so the schema and the verdicts can be tested without running a
    benchmark. *)

(** [Exact]: the same commit reproduces the value on any host (work
    counters, the counts the driver fixes). [Timed]: everything else. *)
type kind = Exact | Timed

type metric = { value : float; unit : string; kind : kind }

type record = {
  label : string;
  smoke : bool;
  experiment : string;
  host : string;
  metrics : (string * metric) list;  (** dotted names, record order *)
}

(** The record file of an experiment ([analyze] shares the pipeline's). *)
val file_of : string -> string

(** [record ~experiment ~label ~smoke ~host fields] flattens nested
    result fields to dotted metric names (booleans as 0/1, non-finite
    numbers kept as NaN), with unit and kind derived from each name. *)
val record :
  experiment:string ->
  label:string ->
  smoke:bool ->
  host:string ->
  (string * Obs.Json.t) list ->
  record

(** Every record of a file, oldest first ([[]] if there is no file).
    Raises [Failure] on a file or record that does not parse. *)
val read_runs : string -> record list

(** Append a record, replacing an earlier one with the same label and
    experiment. *)
val append_run : string -> record -> unit

(** {2 Gates} *)

type op = Le | Ge | Eq

type bound =
  | Const of float
  | Times of float * string  (** k x another metric of the same record *)
  | Baseline of float  (** k x the same metric of the baseline record *)

(** [full_only] rows are skipped on smoke records. *)
type row = { metric : string; op : op; bound : bound; full_only : bool }

(** With [baseline], every exact metric of the checked record must also
    equal the baseline's. *)
type table = { rows : row list; baseline : bool }

(** The gate table of each checked experiment: pipeline, serve, soak,
    scale. *)
val gates : (string * table) list

type verdict =
  | Met of float * float  (** value, bound *)
  | Violated of float * float
  | Unusable of string
      (** the record lacks the metric (or the bound's metric), or it is
          not finite: fails *)
  | Skipped of string
      (** no baseline, a timed row against another host's baseline, or
          a full-scale row on a smoke record *)

val failed : verdict -> bool

(** [evaluate table ?baseline r]: the table's rows, plus one equality
    row per exact metric of [r] when the table has a baseline, each
    with its verdict. *)
val evaluate : table -> ?baseline:record -> record -> (row * verdict) list

(** One printed gate line. *)
val describe : row * verdict -> string

(** [check ?file experiment] evaluates [experiment]'s table over its
    newest record in [file] (default {!file_of}), against the newest
    earlier full-scale record of the experiment when the table has a
    baseline. Prints one line per row; [true] when none fails. *)
val check : ?file:string -> string -> bool
