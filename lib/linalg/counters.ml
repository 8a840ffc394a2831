(* Process-wide performance counters for the exact-arithmetic pipeline.

   Everything here is deliberately cheap: the hot paths (simplex pivots,
   bignum promotions) bump a plain int ref; the stage timers accumulate
   wall-clock seconds into a small hashtable keyed by stage name. *)

let promotions = ref 0
let demotions = ref 0
let lp_pivots = ref 0
let lp_solves = ref 0
let ilp_solves = ref 0
let bb_nodes = ref 0

(* incremental-engine counters (warm-started dual simplex + Farkas
   memoization) *)
let warm_starts = ref 0
let warm_fallbacks = ref 0
let dual_pivots = ref 0
let farkas_cache_hits = ref 0
let farkas_cache_misses = ref 0

(* wisecheck (lib/analysis) finding counters, bumped once per emitted
   finding so the bench harness can report analysis verdict volumes
   alongside the timing of the "analysis" stage *)
let findings_error = ref 0
let findings_warning = ref 0
let findings_info = ref 0

(* wisereduce counters: reduction facts proven by the detector and
   Parallel_reduction loops certified "race-free up to reduction
   reassociation" by wisecheck *)
let reductions_detected = ref 0
let reductions_certified = ref 0

(* lp-dfp engine counters (per-level LP relaxation + clustering instead
   of branch-and-bound): pure-LP lexmin stages, cluster recovery rounds,
   and levels the clustering could not certify (handed back to the ILP
   engine) *)
let lp_relax_solves = ref 0
let cluster_rounds = ref 0
let dfp_fallbacks = ref 0

let all_counters () =
  [ ("lp_solves", !lp_solves);
    ("lp_pivots", !lp_pivots);
    ("ilp_solves", !ilp_solves);
    ("bb_nodes", !bb_nodes);
    ("warm_starts", !warm_starts);
    ("warm_fallbacks", !warm_fallbacks);
    ("dual_pivots", !dual_pivots);
    ("farkas_cache_hits", !farkas_cache_hits);
    ("farkas_cache_misses", !farkas_cache_misses);
    ("findings_error", !findings_error);
    ("findings_warning", !findings_warning);
    ("findings_info", !findings_info);
    ("reductions_detected", !reductions_detected);
    ("reductions_certified", !reductions_certified);
    ("lp_relax_solves", !lp_relax_solves);
    ("cluster_rounds", !cluster_rounds);
    ("dfp_fallbacks", !dfp_fallbacks);
    ("big_promotions", !promotions);
    ("big_demotions", !demotions) ]

(* --- stage wall-clock timers ----------------------------------------- *)

(* Timers are exclusive (self-time): when stages nest, the inner stage's
   elapsed time is subtracted from the enclosing stage, so the per-stage
   accumulators are disjoint and sum to at most the outermost wall
   time. *)

let stages : (string, float) Hashtbl.t = Hashtbl.create 8
let stage_order : string list ref = ref []

(* child-time accumulators of the currently active (nested) timers,
   innermost first *)
let active : float ref list ref = ref []

let add_stage name dt =
  match Hashtbl.find_opt stages name with
  | Some acc -> Hashtbl.replace stages name (acc +. dt)
  | None ->
    stage_order := name :: !stage_order;
    Hashtbl.add stages name dt

(* Stage observer: a hook the serving daemon installs to feed each
   completed stage's exclusive duration into its latency histograms
   ([wisefuse_stage_duration_us]). Kept as an [Atomic] function cell so
   installation is race-free against concurrent solves; the default is
   a no-op, so non-serving binaries pay one atomic load per stage. *)
let stage_observer : (string -> float -> unit) Atomic.t =
  Atomic.make (fun _ _ -> ())

let set_stage_observer f = Atomic.set stage_observer f

let time name f =
  (* every stage is also a trace span (category "stage"), so a recorded
     trace can re-derive these accumulators: the span tree's exclusive
     self-times reconcile with [stage_times] *)
  if Obs.Trace.on () then Obs.Trace.begin_span ~cat:"stage" name;
  let t0 = Clock.now () in
  let children = ref 0.0 in
  active := children :: !active;
  Fun.protect
    ~finally:(fun () ->
      let dt = Clock.now () -. t0 in
      (match !active with
      | c :: rest when c == children ->
        active := rest;
        (* charge the whole span to the parent, keep only self time *)
        (match rest with parent :: _ -> parent := !parent +. dt | [] -> ())
      | _ -> () (* unbalanced via an exotic exception path; be lenient *));
      let self = dt -. !children in
      add_stage name self;
      (Atomic.get stage_observer) name self;
      Obs.Trace.end_span name)
    f

let stage_times () =
  List.rev_map (fun n -> (n, Hashtbl.find stages n)) !stage_order

let reset () =
  promotions := 0;
  demotions := 0;
  lp_pivots := 0;
  lp_solves := 0;
  ilp_solves := 0;
  bb_nodes := 0;
  warm_starts := 0;
  warm_fallbacks := 0;
  dual_pivots := 0;
  farkas_cache_hits := 0;
  farkas_cache_misses := 0;
  findings_error := 0;
  findings_warning := 0;
  findings_info := 0;
  reductions_detected := 0;
  reductions_certified := 0;
  lp_relax_solves := 0;
  cluster_rounds := 0;
  dfp_fallbacks := 0;
  Hashtbl.reset stages;
  stage_order := []

let pp fmt () =
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun (n, v) -> if v <> 0 then Format.fprintf fmt "%-20s %d@," n v)
    (all_counters ());
  List.iter
    (fun (n, s) -> Format.fprintf fmt "%-20s %.3f ms@," n (s *. 1e3))
    (stage_times ());
  Format.fprintf fmt "@]"
