(* The daemon's instrument bundle: every serve outcome, the protocol
   ops, latency histograms split by cache class, per-engine solve
   latency, per-stage pipeline latency, and callback-sampled
   cache/breaker/backlog gauges — all in one [Obs.Metrics] registry
   scraped by the "metrics" protocol op.

   Classification happens in exactly one place ([classify], from the
   response envelope the client is about to receive), so the scrape
   totals reconcile with the wire by construction:

     wisefuse_serve_requests_total
       == sum over wisefuse_serve_outcomes_total{outcome=*}
        + sum over wisefuse_serve_ops_total{op=*}

   — an invariant the soak bench asserts against its own request
   ledger, hostile traffic included.

   Unlike [Linalg.Counters] (reset per cold solve for deterministic
   per-request deltas, scrubbed by fault recovery), these instruments
   are never reset: scrape totals are monotone across recoveries,
   which the soak bench also asserts. *)

module M = Obs.Metrics

let outcome_labels =
  [ "hit"; "coalesced"; "cold"; "degraded"; "shed"; "oversized"; "breaker";
    "internal"; "draining"; "parse"; "usage"; "diagnostic"; "error" ]

let op_labels = [ "ping"; "stats"; "health"; "metrics"; "shutdown"; "other" ]

let engine_labels = [ "ilp"; "lp-dfp"; "none" ]

type t = {
  reg : M.registry;
  requests : M.counter;
  outcomes : (string * M.counter) list;
  ops : (string * M.counter) list;
  degraded : (string * M.counter) list;  (* by resilience rung *)
  overruns : M.counter;
  dur_hit : M.histogram;
  dur_cold : M.histogram;
  dur_other : M.histogram;
  solve : (string * M.histogram) list;  (* by engine actually used *)
  stage_m : Mutex.t;
  stages : (string, M.histogram) Hashtbl.t;  (* by pipeline stage *)
}

type sources = {
  cache_stats : unit -> Cache.stats;
  breaker_open : unit -> int;
  breaker_trips : unit -> int;
  breaker_rejects : unit -> int;
  inflight : unit -> int;
  queued : unit -> int;
  shed_total : unit -> int;
  recovered_total : unit -> int;
  uptime_s : unit -> float;
}

let create ?(enabled = true) (src : sources) =
  let reg = M.create ~enabled () in
  let counters ~name ~help labels key =
    List.map
      (fun l -> (l, M.counter reg ~name ~help ~labels:[ (key, l) ] ()))
      labels
  in
  let histograms ~name ~help labels key =
    List.map
      (fun l -> (l, M.histogram reg ~name ~help ~labels:[ (key, l) ] ()))
      labels
  in
  let requests =
    M.counter reg ~name:"wisefuse_serve_requests_total"
      ~help:"Request lines answered (every outcome and protocol op)." ()
  in
  let outcomes =
    counters ~name:"wisefuse_serve_outcomes_total"
      ~help:"Answered requests by serve outcome." outcome_labels "outcome"
  in
  let ops =
    counters ~name:"wisefuse_serve_ops_total"
      ~help:"Protocol ops answered, by op." op_labels "op"
  in
  let degraded =
    counters ~name:"wisefuse_serve_degraded_total"
      ~help:"Degraded (uncached) schedule responses by resilience rung."
      Fusion.Resilient.rung_names "rung"
  in
  let overruns =
    M.counter reg ~name:"wisefuse_serve_overruns_total"
      ~help:"Requests whose wall time exceeded their deadline budget." ()
  in
  let dur cls =
    M.histogram reg ~name:"wisefuse_request_duration_us"
      ~help:
        "Request wall latency in microseconds, by cache class (hit \
         includes coalesced)."
      ~labels:[ ("class", cls) ] ()
  in
  let dur_hit = dur "hit" in
  let dur_cold = dur "cold" in
  let dur_other = dur "other" in
  let solve =
    histograms ~name:"wisefuse_solve_duration_us"
      ~help:"Cold-solve wall latency in microseconds by engine used."
      engine_labels "engine"
  in
  (* callback-sampled views of tallies that already live elsewhere
     (cache lock, breaker table, server atomics): sampled at scrape
     time, monotone because their sources are *)
  let cs f = fun () -> f (src.cache_stats ()) in
  M.counter_fn reg ~name:"wisefuse_cache_hits_total"
    ~help:"Content-addressed cache hits." (cs (fun s -> s.Cache.hits));
  M.counter_fn reg ~name:"wisefuse_cache_misses_total"
    ~help:"Content-addressed cache misses." (cs (fun s -> s.Cache.misses));
  M.counter_fn reg ~name:"wisefuse_cache_evictions_total"
    ~help:"LRU evictions." (cs (fun s -> s.Cache.evictions));
  M.gauge_fn reg ~name:"wisefuse_cache_entries"
    ~help:"Entries currently cached." (cs (fun s -> s.Cache.entries));
  M.gauge_fn reg ~name:"wisefuse_cache_capacity" ~help:"Cache capacity."
    (cs (fun s -> s.Cache.capacity));
  M.counter_fn reg ~name:"wisefuse_breaker_trips_total"
    ~help:"Circuit-breaker state transitions to open." src.breaker_trips;
  M.counter_fn reg ~name:"wisefuse_breaker_rejects_total"
    ~help:"Requests rejected while a breaker was open." src.breaker_rejects;
  M.gauge_fn reg ~name:"wisefuse_breaker_open"
    ~help:"Fingerprints with an open breaker." src.breaker_open;
  M.counter_fn reg ~name:"wisefuse_shed_total"
    ~help:"Schedule requests shed by admission control." src.shed_total;
  M.counter_fn reg ~name:"wisefuse_recovered_total"
    ~help:"Exceptions firewalled by the solve-path recovery."
    src.recovered_total;
  M.gauge_fn reg ~name:"wisefuse_inflight"
    ~help:"Requests admitted and not yet answered." src.inflight;
  M.gauge_fn reg ~name:"wisefuse_queued"
    ~help:"Socket connections waiting for a worker." src.queued;
  M.gauge_fn reg ~name:"wisefuse_uptime_seconds" ~help:"Daemon uptime."
    (fun () -> int_of_float (src.uptime_s ()));
  {
    reg;
    requests;
    outcomes;
    ops;
    degraded;
    overruns;
    dur_hit;
    dur_cold;
    dur_other;
    solve;
    stage_m = Mutex.create ();
    stages = Hashtbl.create 16;
  }

let enabled t = M.enabled t.reg

(* --- classification ------------------------------------------------------ *)

type class_ = Outcome of string | Op of string

let member = Obs.Json.member
let str name j = Option.bind (member name j) Obs.Json.to_string_opt

let classify response =
  match str "status" response with
  | Some "ok" ->
    if member "key" response <> None then (
      match str "cache" response with
      | Some "hit" ->
        let coalesced =
          match member "serve" response with
          | Some s ->
            Option.bind (member "coalesced" s) Obs.Json.to_bool_opt
            = Some true
          | None -> false
        in
        if coalesced then Outcome "coalesced" else Outcome "hit"
      | Some "miss" -> Outcome "cold"
      | Some "uncached" -> Outcome "degraded"
      | _ -> Outcome "error")
    else if member "pong" response <> None then Op "ping"
    else if member "stats" response <> None then Op "stats"
    else if member "health" response <> None then Op "health"
    else if member "metrics" response <> None then Op "metrics"
    else if member "bye" response <> None then Op "shutdown"
    else Op "other"
  | Some "error" -> (
    let code =
      Option.value
        (Option.bind (member "error" response) (fun e ->
             Option.bind (member "code" e) Obs.Json.to_string_opt))
        ~default:"?"
    in
    match code with
    | "overloaded" -> Outcome "shed"
    | "oversized" -> Outcome "oversized"
    | "breaker" -> Outcome "breaker"
    | "internal" -> Outcome "internal"
    | "draining" -> Outcome "draining"
    | "parse" -> Outcome "parse"
    | "usage" -> Outcome "usage"
    | c when String.contains c ':' ->
      (* typed pipeline diagnostics ("phase:code") *)
      Outcome "diagnostic"
    | _ -> Outcome "error")
  | _ -> Outcome "error"

let bump tbl label fallback =
  match List.assoc_opt label tbl with
  | Some c -> M.inc c
  | None -> ( match List.assoc_opt fallback tbl with
    | Some c -> M.inc c
    | None -> ())

let record_response t ~wall_us response =
  let cls = classify response in
  let label = match cls with Outcome l | Op l -> l in
  if enabled t then begin
    M.inc t.requests;
    (match cls with
    | Outcome l -> bump t.outcomes l "error"
    | Op l -> bump t.ops l "other");
    let us = int_of_float wall_us in
    (match cls with
    | Outcome ("hit" | "coalesced") -> M.observe t.dur_hit us
    | Outcome "cold" -> M.observe t.dur_cold us
    | _ -> M.observe t.dur_other us);
    (match cls with
    | Outcome "degraded" ->
      let rung =
        Option.value
          (Option.bind (member "result" response) (str "rung"))
          ~default:"identity"
      in
      bump t.degraded rung "identity"
    | _ -> ());
    let overrun =
      Option.bind (member "serve" response) (fun s ->
          Option.bind (member "overrun_ms" s) Obs.Json.to_float_opt)
    in
    match overrun with
    | Some o when o > 0.0 -> M.inc t.overruns
    | _ -> ()
  end;
  label

let record_solve t ~engine_used ~solve_ms =
  if enabled t then
    let h =
      match List.assoc_opt engine_used t.solve with
      | Some h -> h
      | None -> List.assoc "none" t.solve
    in
    M.observe h (int_of_float (solve_ms *. 1e3))

(* Stage names arrive dynamically from the solve's stage spans; the
   first observation of a stage registers its histogram (under a
   mutex — registration is rare, observation is not). *)
let observe_stage t ~stage ~seconds =
  if enabled t then begin
    let h =
      Mutex.protect t.stage_m (fun () ->
          match Hashtbl.find_opt t.stages stage with
          | Some h -> h
          | None ->
            let h =
              M.histogram t.reg ~name:"wisefuse_stage_duration_us"
                ~help:
                  "Exclusive pipeline-stage wall time in microseconds \
                   (self time of each closed stage span)."
                ~labels:[ ("stage", stage) ] ()
            in
            Hashtbl.add t.stages stage h;
            h)
    in
    M.observe h (int_of_float (seconds *. 1e6))
  end

(* --- read-side ----------------------------------------------------------- *)

let exposition t =
  if enabled t then M.exposition t.reg
  else "# wisefuse telemetry disabled\n"

let requests_total t = M.counter_value t.requests
let outcome_total t label =
  match List.assoc_opt label t.outcomes with
  | Some c -> M.counter_value c
  | None -> 0

let op_total t label =
  match List.assoc_opt label t.ops with
  | Some c -> M.counter_value c
  | None -> 0

let outcome_totals t =
  List.map (fun (l, c) -> (l, M.counter_value c)) t.outcomes

let op_totals t = List.map (fun (l, c) -> (l, M.counter_value c)) t.ops

let duration_quantile t cls q =
  let h =
    match cls with
    | `Hit -> t.dur_hit
    | `Cold -> t.dur_cold
    | `Other -> t.dur_other
  in
  M.hist_quantile h q

(* the compact snapshot carried by "health" envelopes *)
let snapshot t =
  let sum l = List.fold_left (fun acc (_, v) -> acc + v) 0 l in
  let oc = outcome_totals t in
  let errors =
    List.filter
      (fun (l, _) ->
        not (List.mem l [ "hit"; "coalesced"; "cold"; "degraded" ]))
      oc
  in
  [ ("requests", requests_total t);
    ("hit", outcome_total t "hit");
    ("coalesced", outcome_total t "coalesced");
    ("cold", outcome_total t "cold");
    ("degraded", outcome_total t "degraded");
    ("errors", sum errors);
    ("ops", sum (op_totals t)) ]
