(** Process-wide performance counters for the exact-arithmetic pipeline.

    The refs are bumped directly on the hot paths (a single [incr]); the
    stage timers accumulate wall-clock time per named pipeline stage.
    The bench harness and the CLI read these to report where the
    optimization time goes, and the CI benchmark job serializes them
    into [BENCH_pipeline.json]. *)

(** Count of {!Bigint} results that did not fit the immediate [Small]
    representation and had to allocate a [Big] magnitude. *)
val promotions : int ref

(** Count of [Big] results that folded back into [Small]. *)
val demotions : int ref

val lp_pivots : int ref
val lp_solves : int ref

(** Branch-and-bound entries (one per ILP problem). *)
val ilp_solves : int ref

(** Branch-and-bound tree nodes (one LP relaxation each). *)
val bb_nodes : int ref

(** {2 Incremental-engine counters} *)

(** LP re-solves that started from a saved basis (dual-simplex
    constraint additions and primal objective swaps) and completed
    without falling back to a cold solve. *)
val warm_starts : int ref

(** Warm re-solves that had to fall back to a cold two-phase solve
    (basis incompatibility or a dual-simplex iteration cap). *)
val warm_fallbacks : int ref

(** Dual-simplex pivots performed by warm re-solves. The total simplex
    effort of a run is [lp_pivots + dual_pivots]. *)
val dual_pivots : int ref

(** Farkas-system memoization: structurally identical dependence
    polyhedra share one multiplier elimination ({!Pluto.Farkas}). *)
val farkas_cache_hits : int ref

val farkas_cache_misses : int ref

(** {2 Static-analysis (wisecheck) counters}

    One bump per finding emitted by [Analysis.Wisecheck.certify],
    keyed by severity. *)

val findings_error : int ref
val findings_warning : int ref
val findings_info : int ref

(** {2 Reduction (wisereduce) counters}

    Facts proven by the reduction detector
    ([Analysis.Reduction.detect]) and [Parallel_reduction] loops
    certified "race-free up to reduction reassociation" by wisecheck. *)

val reductions_detected : int ref
val reductions_certified : int ref

(** {2 LP-dfp engine counters}

    The decoupled scheduling engine (per-level LP relaxation +
    dimension-matching clustering, after pluto-lp-dfp) solves no
    integer programs on its happy path; these separate its work from
    the branch-and-bound counters above. *)

(** Pure-LP lexicographic stages solved by the lp-dfp engine (one per
    objective vector per hyperplane level; no branching). *)
val lp_relax_solves : int ref

(** Cluster recovery rounds: one per dependence-connected statement
    cluster whose rational solution was scaled to an integral
    hyperplane. *)
val cluster_rounds : int ref

(** Levels the clustering could not certify (rational optimum
    unscalable or scaled row not provably legal) and that were handed
    back to the ILP engine. *)
val dfp_fallbacks : int ref

(** [time stage f] runs [f ()] and adds its wall-clock duration to the
    accumulator for [stage] (even if [f] raises). Timers are
    {e exclusive}: when stages nest, the inner stage's time is
    subtracted from the enclosing stage, so stage times are disjoint
    and sum to at most the outermost wall time. When the {!Obs.Trace}
    sink is on, each stage additionally records a span (category
    ["stage"]), so traces can re-derive these accumulators. *)
val time : string -> (unit -> 'a) -> 'a

(** Install a callback invoked with each completed stage's name and
    {e exclusive} duration in seconds (same accounting as
    {!stage_times}). The serving daemon uses this to feed per-stage
    latency histograms without [linalg] depending on the metrics
    registry. The default is a no-op; installation is atomic, so it is
    safe against concurrent solves. *)
val set_stage_observer : (string -> float -> unit) -> unit

(** Accumulated (stage, seconds) pairs, in first-use order. *)
val stage_times : unit -> (string * float) list

(** All counters as (name, value) pairs, including zeros. *)
val all_counters : unit -> (string * int) list

(** Reset every counter and timer to zero. *)
val reset : unit -> unit

val pp : Format.formatter -> unit -> unit
