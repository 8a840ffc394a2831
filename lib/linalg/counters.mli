(** Process-wide performance counters for the exact-arithmetic pipeline.

    The refs are bumped directly on the hot paths (a single [incr]).
    The bench harness and the CLI read them to report where the
    optimization work goes, and the CI benchmark job serializes them
    into [BENCH_pipeline.json]. Per-stage wall time is not kept here:
    each pipeline stage is an {!Obs.Trace} span of category ["stage"],
    and readers fold the spans they recorded ({!Obs.Trace.summary}). *)

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

(** All counters as (name, value) pairs, including zeros, in one fixed
    order (cold payloads, [Serve.Protocol.solver_counter_names] and the
    benchmark's counter deltas depend on it). *)
val all_counters : unit -> (string * int) list

(** Reset every counter to zero. *)
val reset : unit -> unit

val pp : Format.formatter -> unit -> unit
