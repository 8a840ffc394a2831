(* wiseserve: the long-lived scheduling daemon.

   Requests stream in as line-delimited JSON (stdio or a Unix socket),
   are keyed by Fingerprint and answered from the content-addressed
   Cache when possible. A miss runs the full certified pipeline —
   Fusion.Model.optimize under a nested trace capture (so the decision
   events become the response's explain chain), then wisecheck under a
   capture of its own — and stores the payload, rendered once, for
   every later request with the same content. The stage spans of both
   captures feed this server's per-stage latency histograms, also those
   that closed before a solve raised.

   Every request line goes through two steps. [admit] parses it,
   applies admission (oversized, draining, overload shedding), answers
   protocol ops, usage and breaker errors, and probes the cache; a hit
   is answered right there. Only a miss reaches [solve], carried as
   its parsed request, program and key, so nothing is parsed, built or
   fingerprinted twice. A name memo (kernel, size, model, engine,
   reductions -> key) lets a repeated request skip the program build
   and the fingerprint altogether: the protocol names only registry
   kernels, whose programs are pure functions of name and size.

   Concurrency model (OCaml 5 domains). With [--stdio --domains N] the
   reading domain runs [admit] inline and writes every answer it can;
   a hit streams its envelope around the payload's pre-rendered bytes
   straight to the channel, so it neither waits behind a cold solve
   nor allocates much (OCaml 5.1 reports the top heap as the sum of
   each domain's own peak, so whatever the reader keeps alive adds to
   the daemon's figure). Misses go to a pool of N worker domains. The
   synchronous paths — [--domains 1], and each socket connection, one
   worker per connection — run [admit] then [solve] in sequence. Cold
   solves serialize under one solver lock, because the exact-arithmetic
   pipeline keeps process-wide state (the Farkas memo table, the
   pipeline counters, the trace sink); holding the lock also makes the
   per-request counter deltas exact — the response's "serve" section
   proves a hit performed zero LP pivots and zero B&B nodes, and a miss
   reports precisely its own solver work, while its payload's counters
   hold nothing but that solve's. (Running cold solves in parallel,
   with per-domain solver state, was measured slower on 2 vCPUs.)
   Concurrent requests for the SAME key coalesce: the second requester
   blocks on the solver lock, re-probes the cache, and leaves with the
   first one's entry (a hit, never a duplicate solve).

   Hardening (wiseharden): every request solves under a fresh deadline
   budget (client "deadline_ms", server default/cap), so a pathological
   SCoP degrades down the resilience ladder instead of holding the
   solver lock indefinitely; degraded results are served ("uncached")
   but never stored, keeping the cache byte-pure. Any exception that
   escapes the solve path is firewalled at the request boundary: the
   global solver state is scrubbed back to the known-clean baseline
   (counter reset + Farkas memo reset — the same baseline every cold
   solve starts from) before the solver lock is released, and the
   client gets a typed "internal" error. Repeated failures for one
   fingerprint trip a TTL'd circuit breaker (Breaker). Admission
   control sheds schedule requests with a typed "overloaded" error once
   the pending-work gauge passes config.max_pending; protocol ops
   (ping/stats/health/shutdown) are always served. Input lines longer
   than config.max_line_bytes are answered with a typed "oversized"
   error without buffering them. SIGTERM/SIGINT drain the socket
   server: in-flight requests finish, new work is rejected, the socket
   is unlinked, and the process exits 0. *)

type config = {
  domains : int;
  cache_capacity : int;
  max_pending : int;  (* admission high-water mark (in-flight + queued) *)
  max_line_bytes : int;  (* longer request lines answer "oversized" *)
  default_deadline_ms : int option;  (* applied when the client sends none *)
  max_deadline_ms : int;  (* cap on client-requested deadlines *)
  breaker_threshold : int;  (* consecutive failures that open the breaker *)
  breaker_ttl_s : float;  (* how long an open breaker rejects *)
  metrics : bool;  (* mint live telemetry instruments (scrape via "metrics") *)
  trace_sample : int;
      (* capture a span trace for every Nth request (0 = never); the
         envelope gains "trace_id" and a compact "trace" summary *)
  access_log : string option;  (* JSONL access log path (None = off) *)
}

let default_config =
  {
    domains = 1;
    cache_capacity = 512;
    max_pending = 64;
    max_line_bytes = 1 lsl 20;
    default_deadline_ms = Some 10_000;
    max_deadline_ms = 300_000;
    breaker_threshold = 3;
    breaker_ttl_s = 30.0;
    metrics = true;
    trace_sample = 0;
    access_log = None;
  }

(* what a schedule request names: kernel, size, model, engine,
   reductions — the key of the name memo *)
type names = string * int option * string * string * bool

type t = {
  config : config;
  cache : Cache.t;
  breaker : Breaker.t;
  solver : Mutex.t;  (* serializes cold solves and the global solver state *)
  out : Mutex.t;  (* serializes response emission in pool modes *)
  names : (names, string) Hashtbl.t;  (* the name -> key memo *)
  names_lock : Mutex.t;
  stop : bool Atomic.t;
  requests : int Atomic.t;
  inflight : int Atomic.t;  (* requests admitted and not yet answered *)
  queued : int Atomic.t;  (* connections waiting for a socket worker *)
  shed : int Atomic.t;  (* schedule requests refused by admission control *)
  recovered : int Atomic.t;  (* exceptions caught by the solve firewall *)
  started : float;  (* Clock.now — uptime survives NTP steps *)
  seq : int Atomic.t;  (* answered-line sequence, drives trace sampling *)
  telemetry : Telemetry.t;
  access : Access.t option;
  mutable on_stop : unit -> unit;
      (* wakes a blocked accept loop after a shutdown request *)
}

let create ?(config = default_config) () =
  let cache = Cache.create ~capacity:config.cache_capacity in
  let breaker =
    Breaker.create ~threshold:config.breaker_threshold
      ~ttl_s:config.breaker_ttl_s
  in
  let inflight = Atomic.make 0 in
  let queued = Atomic.make 0 in
  let shed = Atomic.make 0 in
  let recovered = Atomic.make 0 in
  let started = Linalg.Clock.now () in
  let telemetry =
    Telemetry.create ~enabled:config.metrics
      {
        Telemetry.cache_stats = (fun () -> Cache.stats cache);
        breaker_open = (fun () -> Breaker.open_count breaker);
        breaker_trips = (fun () -> Breaker.trips breaker);
        breaker_rejects = (fun () -> Breaker.rejects breaker);
        inflight = (fun () -> Atomic.get inflight);
        queued = (fun () -> Atomic.get queued);
        shed_total = (fun () -> Atomic.get shed);
        recovered_total = (fun () -> Atomic.get recovered);
        uptime_s = (fun () -> Linalg.Clock.now () -. started);
      }
  in
  {
    config;
    cache;
    breaker;
    solver = Mutex.create ();
    out = Mutex.create ();
    names = Hashtbl.create (min config.cache_capacity 1024);
    names_lock = Mutex.create ();
    stop = Atomic.make false;
    requests = Atomic.make 0;
    inflight;
    queued;
    shed;
    recovered;
    started;
    seq = Atomic.make 0;
    telemetry;
    access = Option.map (fun path -> Access.open_ ~path) config.access_log;
    on_stop = (fun () -> ());
  }

let cache t = t.cache
let breaker t = t.breaker
let telemetry t = t.telemetry
let stopping t = Atomic.get t.stop
let backlog t = Atomic.get t.inflight + Atomic.get t.queued

(* Flush and close the access log (idempotent; no-op without one).
   The serving loops call this on every exit path; tests driving
   [handle_line] directly call it before reading the file. *)
let close t = Option.iter Access.close t.access

(* --- building the cached result payload --------------------------------- *)

let row_json = function
  | Pluto.Sched.Hyp h ->
    Obs.Json.Obj
      [ ("hyp", Obs.Json.List (List.map (fun c -> Obs.Json.Int c) (Array.to_list h))) ]
  | Pluto.Sched.Beta b -> Obs.Json.Obj [ ("beta", Obs.Json.Int b) ]

let sched_json (prog : Scop.Program.t) (sched : Pluto.Sched.t) =
  Obs.Json.List
    (Array.to_list
       (Array.mapi
          (fun i rows ->
            Obs.Json.Obj
              [ ("stmt", Obs.Json.Str prog.Scop.Program.stmts.(i).Scop.Statement.name);
                ("rows", Obs.Json.List (List.map row_json rows)) ])
          sched))

(* outermost fusion partition, statement id order; derived from the icc
   nests when the structural model served the request *)
let partition_json (opt : Fusion.Model.optimized) =
  let part =
    match (opt.Fusion.Model.scheduler, opt.Fusion.Model.icc) with
    | Some res, _ -> res.Pluto.Scheduler.outer_partition
    | None, Some r ->
      let n = Array.length r.Icc.Icc_model.prog.Scop.Program.stmts in
      let part = Array.make n 0 in
      List.iteri
        (fun idx (nst : Icc.Icc_model.nest) ->
          List.iter (fun id -> part.(id) <- idx) nst.Icc.Icc_model.stmts)
        r.Icc.Icc_model.nests;
      part
    | None, None -> [||]
  in
  Obs.Json.List (List.map (fun p -> Obs.Json.Int p) (Array.to_list part))

let artifacts (opt : Fusion.Model.optimized) =
  match (opt.Fusion.Model.scheduler, opt.Fusion.Model.icc) with
  | Some res, _ ->
    ( res.Pluto.Scheduler.prog,
      res.Pluto.Scheduler.all_deps,
      res.Pluto.Scheduler.sched )
  | None, Some r ->
    (r.Icc.Icc_model.prog, r.Icc.Icc_model.deps, r.Icc.Icc_model.sched)
  | None, None -> assert false

let wisecheck_json prog (r : Analysis.Wisecheck.report) =
  Obs.Json.Obj
    [ ("errors", Obs.Json.Int r.Analysis.Wisecheck.errors);
      ("warnings", Obs.Json.Int r.Analysis.Wisecheck.warnings);
      ("infos", Obs.Json.Int r.Analysis.Wisecheck.infos);
      ("certified", Obs.Json.Bool (Analysis.Wisecheck.certified r));
      ( "findings",
        Obs.Json.List
          (List.map (Analysis.Finding.json prog) r.Analysis.Wisecheck.findings) ) ]

(* Each closed stage span of a solve's captured events is one
   observation of that stage's latency histogram (exclusive time, in
   close order); a server observes only the solves it ran. *)
let observe_stages t events =
  if Telemetry.enabled t.telemetry then
    Obs.Trace.fold_spans ~cat:"stage"
      (fun () (s : Obs.Trace.span) ->
        Telemetry.observe_stage t.telemetry ~stage:s.name ~seconds:s.self)
      () events

let explain_lines ex =
  let text = Format.asprintf "%a" Fusion.Explain.pp ex in
  String.split_on_char '\n' text
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (fun l -> Obs.Json.Str l)

(* One cold solve. Must be called with [t.solver] held: it resets the
   process-wide counters and the Farkas memo so the payload (explain
   chain and counters included) is a pure function of the request
   content — which is what makes cached responses byte-identical to
   fresh solves. The chaos hook is consulted here, under the lock, so a
   planned fault is consumed by exactly one solve. Returns the payload,
   the dependence-set fingerprint, and whether the resilience ladder
   degraded (degraded payloads must not be cached: a deadline or an
   injected fault is request-local state, and caching its result would
   poison every later request for the same content). Its stage spans
   feed [t]'s stage histograms. *)
let solve t ?budget ~kernel ~model ~size ~engine ~reductions prog =
  Linalg.Counters.reset ();
  Pluto.Farkas.reset_cache ();
  let fault = !Chaos.solve_fault () in
  let budget =
    (* An Exhaust fault starves the budget instead of sabotaging the LP
       layer itself: solver rungs trip, but the unbudgeted identity
       verification stays sound, so the ladder settles typed. *)
    match fault with
    | Some Chaos.Exhaust -> Some (Chaos.starved_budget ())
    | _ -> budget
  in
  (* a solve that raises still observes the stages that closed *)
  let run () =
    Obs.Trace.capture ~raised:(observe_stages t) (fun () ->
        Fusion.Model.optimize ?budget ~engine ~reductions model prog)
  in
  let opt, events =
    match fault with
    | None -> run ()
    | Some fault -> Chaos.apply fault run
  in
  let aprog, deps, sched = artifacts opt in
  (* certification gets a capture of its own: the explain chain must
     read only what [optimize] emitted, and wisecheck's race checks
     emit ilp.bb events too *)
  let report, checked =
    Obs.Trace.capture ~raised:(observe_stages t) (fun () ->
        Analysis.Wisecheck.certify aprog deps sched opt.Fusion.Model.ast)
  in
  observe_stages t events;
  observe_stages t checked;
  let ex = { Fusion.Explain.kernel; model; outcome = opt; events } in
  let rung, degraded =
    match opt.Fusion.Model.resilience with
    | Some o -> (Fusion.Resilient.rung_name o.Fusion.Resilient.rung,
                 Fusion.Resilient.degraded o)
    | None -> ("structural", false)
  in
  (* requested choice plus the per-level solver that actually ran
     ("none" when the structural icc model served the request) *)
  let engine_used =
    match opt.Fusion.Model.scheduler with
    | Some res -> Pluto.Engine.kind_name res.Pluto.Scheduler.engine
    | None -> "none"
  in
  let payload =
    Obs.Json.Obj
      [ ("kernel", Obs.Json.Str kernel);
        ("model", Obs.Json.Str (Fusion.Model.name model));
        ("size", Obs.Json.Int size);
        ("engine", Obs.Json.Str (Pluto.Engine.choice_name engine));
        ("engine_used", Obs.Json.Str engine_used);
        ("reductions", Obs.Json.Str (if reductions then "on" else "off"));
        ("rung", Obs.Json.Str rung);
        ("degraded", Obs.Json.Bool degraded);
        ("schedule", sched_json aprog sched);
        ("partition", partition_json opt);
        ("wisecheck", wisecheck_json aprog report);
        ("explain", Obs.Json.List (explain_lines ex));
        ( "counters",
          Obs.Json.Obj
            (List.map
               (fun (n, v) -> (n, Obs.Json.Int v))
               (Linalg.Counters.all_counters ())) ) ]
  in
  (payload, Fingerprint.deps_key deps, degraded)

(* --- per-request observability ------------------------------------------- *)

(* splitmix64 finalizer over (start time, sequence number): unique,
   cheap, and stable within a run — no global RNG state to contend on *)
let gen_trace_id t n =
  let mix z =
    let open Int64 in
    let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
    logxor z (shift_right_logical z 31)
  in
  Printf.sprintf "%016Lx"
    (mix
       (Int64.add
          (Int64.bits_of_float t.started)
          (Int64.mul (Int64.of_int (n + 1)) 0x9E3779B97F4A7C15L)))

(* Compact summary of a sampled request's captured events: completed
   spans (of any category, in close order) with their durations, plus
   the raw event count. *)
let trace_json events =
  let spans =
    Obs.Trace.fold_spans
      (fun acc (s : Obs.Trace.span) ->
        Obs.Json.Obj
          [ ("name", Obs.Json.Str s.name);
            ("cat", Obs.Json.Str s.cat);
            ("us", Obs.Json.Float (Obs.Json.round2 (s.total *. 1e6))) ]
        :: acc)
      [] events
  in
  Obs.Json.Obj
    [ ("events", Obs.Json.Int (List.length events));
      ("spans", Obs.Json.List (List.rev spans)) ]

(* One answered line's bookkeeping: when it started, its sequence
   number and whether that number samples a trace. *)
type line = { wall0 : float; n : int; sampled : bool }

let start_line t =
  let n = Atomic.fetch_and_add t.seq 1 in
  Atomic.incr t.requests;
  {
    wall0 = Linalg.Clock.now ();
    n;
    sampled = t.config.trace_sample > 0 && n mod t.config.trace_sample = 0;
  }

(* Run one step of a sampled line under a per-domain capture: a
   concurrent sampled request on another domain records independently,
   and the nested capture inside [solve] still composes. *)
let captured (l : line) f =
  if l.sampled then
    let r, events = Obs.Trace.capture f in
    (r, Some events)
  else (f (), None)

(* An answer ready for the wire: the envelope, and the pre-rendered
   bytes of its "result" when that is a payload rendered once. *)
type reply = { response : Obs.Json.t; result_bytes : string option }

let plain response = { response; result_bytes = None }

(* The single exit point for every answered line: stamp the sampled
   trace into the envelope, feed telemetry (outcome counters, latency
   histograms) and the access log. Both read the envelope's tree, so a
   reply that goes out as pre-rendered bytes is classified and logged
   exactly like a rendered one. The telemetry-off, no-access-log path
   costs two loads and a float subtraction. *)
let finish t (l : line) ?events reply =
  let trace = Option.map (fun ev -> (gen_trace_id t l.n, trace_json ev)) events in
  let response =
    match (trace, reply.response) with
    | Some (tid, tr), Obs.Json.Obj fields ->
      Obs.Json.Obj (fields @ [ ("trace_id", Obs.Json.Str tid); ("trace", tr) ])
    | _, j -> j
  in
  (if Telemetry.enabled t.telemetry || t.access <> None then begin
     let wall_us = Linalg.Clock.elapsed_us ~since:l.wall0 in
     let outcome = Telemetry.record_response t.telemetry ~wall_us response in
     match t.access with
     | None -> ()
     | Some a ->
       Access.log a
         (Access.render ~ts:(Unix.gettimeofday ()) ~wall_us
            ~trace_id:(Option.map fst trace) ~outcome response)
   end);
  { reply with response }

(* [finish] for a line that was admitted: it leaves the in-flight
   gauge once answered *)
let settle t l ?events reply =
  Fun.protect
    ~finally:(fun () -> Atomic.decr t.inflight)
    (fun () -> finish t l ?events reply)

(* One reply line to a channel, flushed. A payload's pre-rendered bytes
   go out as they are, so the line is [Protocol.to_line] of the
   envelope without rendering the payload again. *)
let output_reply oc r =
  (match r.result_bytes with
  | None -> output_string oc (Protocol.to_line r.response)
  | Some bytes -> Obs.Json.output_spliced oc ~name:"result" ~bytes r.response);
  output_char oc '\n';
  flush oc

(* --- request handling ---------------------------------------------------- *)

let solver_deltas () =
  let all = Linalg.Counters.all_counters () in
  List.map
    (fun n -> (n, Option.value (List.assoc_opt n all) ~default:0))
    Protocol.solver_counter_names

(* The deadline a request actually solves under: the client's ask,
   capped — or the server default when the client sent none. *)
let effective_deadline t requested =
  match requested with
  | Some d -> Some (min d t.config.max_deadline_ms)
  | None -> t.config.default_deadline_ms

let hit_reply ~id ~key ~coalesced ~wall0 ?deadline_ms (e : Cache.entry) =
  if Obs.Trace.on () then
    Obs.Trace.instant ~cat:"serve" "serve.cache-hit"
      ~args:
        [ ("key", Obs.Json.Str key); ("coalesced", Obs.Json.Bool coalesced) ];
  let wall_us = Linalg.Clock.elapsed_us ~since:wall0 in
  {
    response =
      Protocol.schedule_response ~id ~key ~cache_state:"hit"
        ~serve:
          (Protocol.serve_section ~coalesced ?deadline_ms ~wall_us
             ~solver:Protocol.zero_solver ())
        ~result:e.Cache.payload;
    result_bytes = Some e.Cache.rendered;
  }

(* A solve failure (typed diagnostic or firewalled exception) feeds the
   per-fingerprint breaker; crossing the threshold opens it. *)
let note_failure t key =
  if Breaker.record_failure t.breaker key && Obs.Trace.on () then
    Obs.Trace.instant ~cat:"serve" "serve.breaker"
      ~args:[ ("key", Obs.Json.Str key); ("state", Obs.Json.Str "open") ]

(* Poisoned-state recovery: an exception escaped the solve path, so the
   process-wide solver state is suspect (half-bumped counters, a
   partially filled Farkas memo). Scrub everything back to the baseline
   every cold solve starts from, while the solver lock is still held —
   the next solve provably sees clean state. The trace sink needs no
   repair here: [Obs.Trace.capture] restores it on exceptions. *)
let recover t ~key exn =
  Linalg.Counters.reset ();
  Pluto.Farkas.reset_cache ();
  Atomic.incr t.recovered;
  if Obs.Trace.on () then
    Obs.Trace.instant ~cat:"serve" "serve.recovered"
      ~args:
        [ ("key", Obs.Json.Str key);
          ("exn", Obs.Json.Str (Printexc.to_string exn)) ];
  note_failure t key

(* The name -> key memo, bounded by the cache capacity: a full memo is
   emptied and refills from the requests that follow. *)
let memo_locked t f =
  Mutex.lock t.names_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.names_lock) f

let memo_find t names = memo_locked t (fun () -> Hashtbl.find_opt t.names names)

let memo_add t names key =
  memo_locked t (fun () ->
      if Hashtbl.length t.names >= t.config.cache_capacity then
        Hashtbl.reset t.names;
      Hashtbl.replace t.names names key)

let memo_size t = memo_locked t (fun () -> Hashtbl.length t.names)

(* Validate a schedule request's names, build its program and
   fingerprint it; [Error] carries a usage message. *)
let resolve ~kernel ~size ~model:model_name ~engine:engine_name ~reductions =
  match Kernels.Registry.find kernel with
  | exception Not_found ->
    Error (Printf.sprintf "unknown kernel %S (see `wisefuse list')" kernel)
  | entry -> (
    match Fusion.Model.of_name model_name with
    | exception Not_found -> Error (Printf.sprintf "unknown model %S" model_name)
    | model -> (
      match Pluto.Engine.of_string engine_name with
      | None ->
        Error
          (Printf.sprintf
             "unknown engine %S (expected \"ilp\", \"lp-dfp\" or \"auto\")"
             engine_name)
      | Some engine -> (
        let n = Option.value size ~default:entry.Kernels.Registry.model_size in
        match entry.Kernels.Registry.program ~n () with
        | exception Invalid_argument msg ->
          Error (Printf.sprintf "cannot build %s at size %d: %s" kernel n msg)
        | prog ->
          Ok (model, engine, n, prog, Fingerprint.key ~engine ~reductions ~model prog))))

(* A cache miss handed from [admit] to [solve]. *)
type miss = {
  line : line;
  id : Obs.Json.t;
  kernel : string;
  model : Fusion.Model.t;
  size : int;
  engine : Pluto.Engine.choice;
  reductions : bool;
  deadline_ms : int option;
  prog : Scop.Program.t;
  key : string;
}

type admitted = Answer of reply | Miss of miss

let admit_schedule t (line : line) ~id ~kernel ~size ~model ~engine ~reductions
    ~deadline_ms:requested =
  let deadline_ms = effective_deadline t requested in
  let names = (kernel, size, model, engine, reductions) in
  let probe key = Option.map (fun e -> (key, e)) (Cache.find_quiet t.cache key) in
  let hit (key, e) =
    let args =
      if Obs.Trace.on () then
        [ ("kernel", Obs.Json.Str kernel); ("model", Obs.Json.Str model);
          ("engine", Obs.Json.Str engine); ("key", Obs.Json.Str key) ]
      else []
    in
    Obs.Trace.span ~cat:"serve" ~args "serve.request" (fun () ->
        Cache.count_hit t.cache;
        Answer
          (hit_reply ~id ~key ~coalesced:false ~wall0:line.wall0 ?deadline_ms e))
  in
  match Option.bind (memo_find t names) probe with
  | Some found -> hit found
  | None -> (
    match resolve ~kernel ~size ~model ~engine ~reductions with
    | Error message -> Answer (plain (Protocol.error_response ~id ~code:"usage" ~message))
    | Ok (model, engine, n, prog, key) -> (
      memo_add t names key;
      match probe key with
      | Some found -> hit found
      | None -> (
        match Breaker.check t.breaker key with
        | Breaker.Open remaining ->
          if Obs.Trace.on () then
            Obs.Trace.instant ~cat:"serve" "serve.breaker"
              ~args:
                [ ("key", Obs.Json.Str key); ("state", Obs.Json.Str "reject") ];
          Answer
            (plain
               (Protocol.error_response ~id ~code:"breaker"
                  ~message:
                    (Printf.sprintf
                       "circuit open for this fingerprint after repeated \
                        failures (retry in %.1fs)"
                       remaining)))
        | Breaker.Closed ->
          Miss
            { line; id; kernel; model; size = n; engine; reductions;
              deadline_ms; prog; key })))

let admit_op t line ({ id; op } : Protocol.request) =
  let answer response = Answer (plain response) in
  match op with
  | Protocol.Ping -> answer (Protocol.pong_response ~id)
  | Protocol.Stats ->
    answer
      (Protocol.stats_response ~id
         ~uptime_s:(Linalg.Clock.now () -. t.started)
         ~requests:(Atomic.get t.requests) (Cache.stats t.cache))
  | Protocol.Health ->
    let draining = Atomic.get t.stop in
    let backlog = backlog t in
    answer
      (Protocol.health_response ~id
         ~ready:((not draining) && backlog <= t.config.max_pending)
         ~draining ~backlog ~max_pending:t.config.max_pending
         ~breaker_open:(Breaker.open_count t.breaker)
         ~uptime_s:(Linalg.Clock.now () -. t.started)
         ~snapshot:(Telemetry.snapshot t.telemetry)
         (Cache.stats t.cache))
  | Protocol.Metrics ->
    answer (Protocol.metrics_response ~id ~text:(Telemetry.exposition t.telemetry))
  | Protocol.Shutdown ->
    (* idempotent: a second shutdown (op or signal) during drain finds
       the flag already set and just answers again *)
    Atomic.set t.stop true;
    t.on_stop ();
    answer (Protocol.shutdown_response ~id)
  | Protocol.Schedule _ when Atomic.get t.stop ->
    answer
      (Protocol.error_response ~id ~code:"draining"
         ~message:"server is draining; schedule request rejected")
  | Protocol.Schedule _ when backlog t > t.config.max_pending ->
    Atomic.incr t.shed;
    if Obs.Trace.on () then
      Obs.Trace.instant ~cat:"serve" "serve.shed"
        ~args:
          [ ("backlog", Obs.Json.Int (backlog t));
            ("max_pending", Obs.Json.Int t.config.max_pending) ];
    answer
      (Protocol.error_response ~id ~code:"overloaded"
         ~message:
           (Printf.sprintf "backlog %d over high-water mark %d; retry later"
              (backlog t) t.config.max_pending))
  | Protocol.Schedule { kernel; size; model; engine; reductions; deadline_ms } ->
    admit_schedule t line ~id ~kernel ~size ~model ~engine ~reductions
      ~deadline_ms

let oversized_reply t =
  let l = start_line t in
  finish t { l with sampled = false }
    (plain
       (Protocol.error_response ~id:Obs.Json.Null ~code:"oversized"
          ~message:
            (Printf.sprintf "request line exceeds %d bytes"
               t.config.max_line_bytes)))

(* Step one for a request line: everything short of a cold solve.
   Blank lines are ignored ([None]). Never raises: anything unexpected
   becomes an "internal" error envelope so the stream stays alive. This
   is the admission boundary: oversized lines, drain rejections and
   overload shedding are all decided here, before any solver work. An
   [Answer] is finished (traced, counted, logged); a [Miss] stays in
   flight until [answer_miss] answers it. *)
let admit t line =
  if String.length line > t.config.max_line_bytes then
    Some (Answer (oversized_reply t))
  else
    let text = String.trim line in
    if text = "" then None
    else begin
      Atomic.incr t.inflight;
      let l = start_line t in
      let step, events =
        captured l (fun () ->
            match Protocol.parse_request text with
            | Error pe ->
              Answer
                (plain
                   (Protocol.error_response ~id:pe.Protocol.err_id
                      ~code:pe.Protocol.code ~message:pe.Protocol.message))
            | Ok req -> (
              try admit_op t l req
              with e ->
                (* last-resort firewall for non-solve surprises *)
                Answer
                  (plain
                     (Protocol.error_response ~id:req.Protocol.id
                        ~code:"internal" ~message:(Printexc.to_string e)))))
      in
      match step with
      | Answer r -> Some (Answer (settle t l ?events r))
      | Miss _ as m -> Some m (* a sampled miss is traced by its solve *)
    end

(* Step two: the cold solve of a miss, under the solver lock. *)
let solve_miss t (m : miss) =
  let args =
    if Obs.Trace.on () then
      [ ("kernel", Obs.Json.Str m.kernel);
        ("model", Obs.Json.Str (Fusion.Model.name m.model));
        ("engine", Obs.Json.Str (Pluto.Engine.choice_name m.engine));
        ("key", Obs.Json.Str m.key) ]
    else []
  in
  let { id; key; deadline_ms; _ } = m in
  let wall0 = m.line.wall0 in
  Obs.Trace.span ~cat:"serve" ~args "serve.request" (fun () ->
      Mutex.lock t.solver;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.solver)
        (fun () ->
          (* double-checked: someone may have solved this key while we
             waited for the lock *)
          match Cache.find_quiet t.cache key with
          | Some e ->
            Cache.count_hit t.cache;
            hit_reply ~id ~key ~coalesced:true ~wall0 ?deadline_ms e
          | None -> (
            let budget =
              Option.map (fun ms -> Linalg.Budget.make ~ms ()) deadline_ms
            in
            match
              Obs.Trace.span ~cat:"serve" "serve.schedule" (fun () ->
                  let t0 = Linalg.Clock.now () in
                  let payload, deps_fp, degraded =
                    solve t ?budget ~kernel:m.kernel ~model:m.model ~size:m.size
                      ~engine:m.engine ~reductions:m.reductions m.prog
                  in
                  (payload, deps_fp, degraded, Linalg.Clock.elapsed_ms ~since:t0))
            with
            | payload, deps_fp, degraded, solve_ms ->
              Breaker.record_success t.breaker key;
              let engine_used =
                Option.value
                  (Option.bind
                     (Obs.Json.member "engine_used" payload)
                     Obs.Json.to_string_opt)
                  ~default:"none"
              in
              Telemetry.record_solve t.telemetry ~engine_used ~solve_ms;
              (* degraded = this request's deadline (or an injected
                 fault) shaped the result; it is valid for this caller
                 but must not be served to anyone else. A stored payload
                 goes out as the bytes the cache rendered. *)
              let cache_state, result_bytes =
                if degraded then ("uncached", None)
                else begin
                  Cache.add t.cache key ~payload ~deps_fp ~solve_ms;
                  ( "miss",
                    Option.map
                      (fun (e : Cache.entry) -> e.rendered)
                      (Cache.find_quiet t.cache key) )
                end
              in
              Cache.count_miss t.cache;
              let solver = solver_deltas () in
              let wall_us = Linalg.Clock.elapsed_us ~since:wall0 in
              {
                response =
                  Protocol.schedule_response ~id ~key ~cache_state
                    ~serve:(Protocol.serve_section ?deadline_ms ~wall_us ~solver ())
                    ~result:payload;
                result_bytes;
              }
            | exception Pluto.Diagnostics.Error d ->
              (* typed failure: deterministic for this content, so it
                 feeds the breaker; the diagnostics path raises before
                 mutating anything a reset-at-solve-start would not fix *)
              note_failure t key;
              plain
                (Protocol.error_response ~id
                   ~code:
                     (Pluto.Diagnostics.phase_name d.Pluto.Diagnostics.phase
                     ^ ":" ^ d.Pluto.Diagnostics.code)
                   ~message:d.Pluto.Diagnostics.message)
            | exception e ->
              (* the exception firewall: scrub global solver state
                 before the lock is released, then answer typed instead
                 of dying *)
              recover t ~key e;
              plain
                (Protocol.error_response ~id ~code:"internal"
                   ~message:(Printexc.to_string e)))))

(* Answer an admitted miss: solve it, then finish the line. Never
   raises. *)
let answer_miss t (m : miss) =
  let r, events =
    captured m.line (fun () ->
        try solve_miss t m
        with e ->
          plain
            (Protocol.error_response ~id:m.id ~code:"internal"
               ~message:(Printexc.to_string e)))
  in
  settle t m.line ?events r

(* Both steps in sequence — the synchronous paths. *)
let answer t line =
  match admit t line with
  | None -> None
  | Some (Answer r) -> Some r
  | Some (Miss m) -> Some (answer_miss t m)

(* One request line in, one response line out (no trailing newline). *)
let handle_line t line =
  Option.map (fun r -> Protocol.to_line r.response) (answer t line)

(* --- serving loops ------------------------------------------------------- *)

(* Bounded line framing: read up to [max] bytes of one
   newline-terminated line. An overlong line is consumed to its
   newline (or EOF) but never buffered past the cap, so hostile input
   cannot grow the heap; the caller answers it with a typed
   "oversized" error and the stream stays framed. *)
let read_line_bounded ic ~max =
  let buf = Buffer.create 256 in
  let rec go overflow =
    match input_char ic with
    | exception End_of_file ->
      if overflow then `Oversized
      else if Buffer.length buf = 0 then `Eof
      else `Line (Buffer.contents buf)
    | '\n' -> if overflow then `Oversized else `Line (Buffer.contents buf)
    | c ->
      if Buffer.length buf >= max then go true
      else begin
        Buffer.add_char buf c;
        go overflow
      end
  in
  go false

(* Both SIGTERM and SIGINT mean: stop taking work, finish what is in
   flight, clean up, exit 0 — the contract the CI serve job asserts. A
   second signal during the drain is tolerated (logged, no raise, no
   re-entry). [immediate] is the stdio path, where the main thread sits
   in a blocking read that a flag cannot interrupt: there the handler
   cleans up and exits directly. *)
let install_drain_signals ?(immediate = false) t cleanup =
  let drain signal_name =
    if Atomic.compare_and_set t.stop false true then begin
      Printf.eprintf "wiseserve: caught %s, draining\n%!" signal_name;
      if immediate then begin
        cleanup ();
        exit 0
      end
      else t.on_stop ()
    end
    else Printf.eprintf "wiseserve: caught %s, already draining\n%!" signal_name
  in
  List.iter
    (fun (s, name) ->
      try Sys.set_signal s (Sys.Signal_handle (fun _ -> drain name))
      with Invalid_argument _ -> ())
    [ (Sys.sigterm, "SIGTERM"); (Sys.sigint, "SIGINT") ]

(* The synchronous loop — [--domains 1] and each socket connection:
   read a line, answer it, write the reply, until EOF or a shutdown
   request. Replies come back in request order. *)
let rec serve_sync t ic oc =
  let more =
    match read_line_bounded ic ~max:t.config.max_line_bytes with
    | `Eof -> false
    | `Oversized ->
      output_reply oc (oversized_reply t);
      true
    | `Line line ->
      Option.iter (output_reply oc) (answer t line);
      true
  in
  if more && not (Atomic.get t.stop) then serve_sync t ic oc

let serve_channels t ic oc =
  if t.config.domains <= 1 then serve_sync t ic oc
  else begin
    let read () =
      if Atomic.get t.stop then `Eof
      else read_line_bounded ic ~max:t.config.max_line_bytes
    in
    (* the reader answers all it can; N domains solve the misses.
       Responses may interleave out of request order (envelopes carry
       the request id). *)
    let emit r =
      Mutex.lock t.out;
      Fun.protect ~finally:(fun () -> Mutex.unlock t.out) (fun () ->
          output_reply oc r)
    in
    let misses = Bqueue.create () in
    let worker () =
      let rec loop () =
        match Bqueue.pop misses with
        | None -> ()
        | Some m ->
          emit (answer_miss t m);
          loop ()
      in
      loop ()
    in
    let workers = List.init t.config.domains (fun _ -> Domain.spawn worker) in
    let rec feed () =
      match read () with
      | `Eof -> ()
      | `Oversized ->
        emit (oversized_reply t);
        feed ()
      | `Line line ->
        (match admit t line with
        | None -> ()
        | Some (Answer r) -> emit r
        | Some (Miss m) -> Bqueue.push misses m);
        feed ()
    in
    feed ();
    Bqueue.close misses;
    List.iter Domain.join workers
  end;
  close t

let serve_stdio t =
  install_drain_signals ~immediate:true t (fun () -> close t);
  serve_channels t stdin stdout

(* Live connections, so a drain can unblock workers parked in a read:
   shutting down the receive side delivers EOF to the worker, which
   finishes its current response and closes. Entries are removed
   *before* the fd is closed — fd numbers are only recycled once no
   accept loop runs, and the registry never touches an fd after its
   removal. *)
module Conn_registry = struct
  type nonrec t = { tbl : (Unix.file_descr, unit) Hashtbl.t; m : Mutex.t }

  let create () = { tbl = Hashtbl.create 16; m = Mutex.create () }

  let locked r f =
    Mutex.lock r.m;
    Fun.protect ~finally:(fun () -> Mutex.unlock r.m) f

  let add r fd = locked r (fun () -> Hashtbl.replace r.tbl fd ())
  let remove r fd = locked r (fun () -> Hashtbl.remove r.tbl fd)

  let shutdown_all r =
    locked r (fun () ->
        Hashtbl.iter
          (fun fd () ->
            try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE
            with Unix.Unix_error _ -> ())
          r.tbl)
end

(* One accepted connection, served to EOF by a single worker. *)
let handle_conn t registry fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  (try serve_sync t ic oc
   with End_of_file | Sys_error _ | Unix.Unix_error _ -> ());
  Conn_registry.remove registry fd;
  close_out_noerr oc

let serve_socket t ~path =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  if Sys.file_exists path then Unix.unlink path;
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let cleanup () =
    close t;
    (try Unix.close sock with Unix.Unix_error _ -> ());
    if Sys.file_exists path then try Unix.unlink path with Sys_error _ -> ()
  in
  install_drain_signals t cleanup;
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock 64;
  (* a shutdown request (or signal) must also unblock the accept loop
     below: poke our own socket so accept returns and sees the stop
     flag *)
  t.on_stop <-
    (fun () ->
      try
        let s = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect s (Unix.ADDR_UNIX path);
        Unix.close s
      with Unix.Unix_error _ -> ());
  let registry = Conn_registry.create () in
  let conns = Bqueue.create () in
  let worker () =
    let rec loop () =
      match Bqueue.pop conns with
      | None -> ()
      | Some fd ->
        Atomic.decr t.queued;
        handle_conn t registry fd;
        loop ()
    in
    loop ()
  in
  let workers =
    List.init (max 1 t.config.domains) (fun _ -> Domain.spawn worker)
  in
  let rec accept_loop () =
    if not (Atomic.get t.stop) then begin
      match Unix.accept sock with
      | fd, _ ->
        Conn_registry.add registry fd;
        Atomic.incr t.queued;
        Bqueue.push conns fd;
        accept_loop ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
      | exception Unix.Unix_error _ when Atomic.get t.stop -> ()
    end
  in
  accept_loop ();
  (* drain: no new connections are accepted; parked readers get EOF so
     workers finish their in-flight request and exit *)
  Conn_registry.shutdown_all registry;
  Bqueue.close conns;
  List.iter Domain.join workers;
  cleanup ()
