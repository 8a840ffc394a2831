(* Process-wide performance counters for the exact-arithmetic pipeline.

   Everything here is deliberately cheap: the hot paths (simplex pivots,
   bignum promotions) bump a plain int ref. Each counter is declared
   once, with the name it is reported under; [all_counters] and [reset]
   read that one table, in declaration order. Stage wall time is not
   counted here: it is the ["stage"] spans of [Obs.Trace]. *)

let table : (string * int ref) list ref = ref []

let counter name =
  let r = ref 0 in
  table := (name, r) :: !table;
  r

let lp_solves = counter "lp_solves"
let lp_pivots = counter "lp_pivots"
let ilp_solves = counter "ilp_solves"
let bb_nodes = counter "bb_nodes"

(* incremental-engine counters (warm-started dual simplex + Farkas
   memoization) *)
let warm_starts = counter "warm_starts"
let warm_fallbacks = counter "warm_fallbacks"
let dual_pivots = counter "dual_pivots"
let farkas_cache_hits = counter "farkas_cache_hits"
let farkas_cache_misses = counter "farkas_cache_misses"

(* wisecheck (lib/analysis) finding counters, bumped once per emitted
   finding so the bench harness can report analysis verdict volumes
   alongside the timing of the "analysis" stage *)
let findings_error = counter "findings_error"
let findings_warning = counter "findings_warning"
let findings_info = counter "findings_info"

(* wisereduce counters: reduction facts proven by the detector and
   Parallel_reduction loops certified "race-free up to reduction
   reassociation" by wisecheck *)
let reductions_detected = counter "reductions_detected"
let reductions_certified = counter "reductions_certified"

(* lp-dfp engine counters (per-level LP relaxation + clustering instead
   of branch-and-bound): pure-LP lexmin stages, cluster recovery rounds,
   and levels the clustering could not certify (handed back to the ILP
   engine) *)
let lp_relax_solves = counter "lp_relax_solves"
let cluster_rounds = counter "cluster_rounds"
let dfp_fallbacks = counter "dfp_fallbacks"

(* bignum representation changes *)
let promotions = counter "big_promotions"
let demotions = counter "big_demotions"

let all_counters () = List.rev_map (fun (n, r) -> (n, !r)) !table
let reset () = List.iter (fun (_, r) -> r := 0) !table

let pp fmt () =
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun (n, v) -> if v <> 0 then Format.fprintf fmt "%-20s %d@," n v)
    (all_counters ());
  Format.fprintf fmt "@]"
