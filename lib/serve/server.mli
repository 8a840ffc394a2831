(** wiseserve: the long-lived fusion-as-a-service scheduling daemon.

    Line-delimited JSON requests (stdio or a Unix socket) are keyed by
    {!Fingerprint} and answered from the content-addressed {!Cache}; a
    miss runs the full certified pipeline (optimize and wisecheck, each
    under a nested trace capture) and stores the payload, rendered
    once, for every later request with the same content. The stage
    spans a miss records ([Obs.Trace] category ["stage"]) feed that
    server's [wisefuse_stage_duration_us] histograms.

    Each line is {e admitted} (parsed, admission-checked, protocol ops
    and usage/breaker errors answered, the cache probed) and only a
    miss is {e solved}. A name memo (kernel, size, model, engine,
    reductions to key, bounded by [config.cache_capacity]) lets a
    repeated request skip the program build and the fingerprint.

    Concurrency: with [config.domains > 1] on stdio, the reading domain
    admits every line and writes every answer it can — a hit streams
    its envelope around the cached payload's pre-rendered bytes and
    never waits behind a cold solve — while a pool of worker domains
    solves the misses. The synchronous paths ([domains = 1], and each
    socket connection) admit then solve in sequence. Cold solves
    serialize under one solver lock (the exact-arithmetic pipeline
    keeps process-wide state), which also makes the per-request counter
    deltas in each response exact — hits provably perform zero LP
    pivots and zero B&B nodes, and a cold payload's counters are its
    own solve's alone. Concurrent misses for the same key coalesce
    into one solve.

    Hardening: every request solves under a fresh deadline budget
    (client ["deadline_ms"], server default/cap) and degrades down the
    resilience ladder instead of monopolizing the solver; degraded
    results are served (["uncached"]) but never stored. Exceptions
    escaping a solve are firewalled — the global solver state is
    scrubbed before the solver lock is released and the client gets a
    typed ["internal"] error; repeated failures per fingerprint trip a
    TTL'd circuit breaker ({!Breaker}). Admission control sheds
    schedule requests (["overloaded"]) past [config.max_pending];
    oversized lines answer ["oversized"] without being buffered;
    SIGTERM/SIGINT drain and exit 0.

    Trace spans (category ["serve"]): [serve.request] wraps each
    schedule request, [serve.cache-hit] marks hits (with the key),
    [serve.schedule] wraps each cold solve; instants [serve.shed],
    [serve.breaker] (open/reject) and [serve.recovered] mark the
    hardening paths. All null-sink-guarded. *)

type config = {
  domains : int;
  cache_capacity : int;
  max_pending : int;
      (** admission high-water mark on the pending-work gauge
          (in-flight + queued); schedule requests past it are shed with
          a typed ["overloaded"] error *)
  max_line_bytes : int;
      (** request lines longer than this answer ["oversized"] and are
          never buffered in full *)
  default_deadline_ms : int option;
      (** solve deadline applied when the client sends none;
          [None] = unlimited *)
  max_deadline_ms : int;  (** cap on client-requested deadlines *)
  breaker_threshold : int;
      (** consecutive same-fingerprint failures that open the breaker *)
  breaker_ttl_s : float;  (** how long an open breaker rejects *)
  metrics : bool;
      (** mint live {!Telemetry} instruments, scraped by the
          ["metrics"] op; [false] mints no-op instruments (the
          measured zero-cost disabled path) *)
  trace_sample : int;
      (** capture a span trace for every Nth answered line (0 =
          never); sampled envelopes gain ["trace_id"] and a compact
          ["trace"] summary *)
  access_log : string option;
      (** JSONL access log path, written by a dedicated writer domain
          (one line per answered request); [None] = off *)
}

val default_config : config
(** 1 domain, 512 cache entries, 64 pending, 1 MiB lines, 10 s default
    deadline (300 s cap), breaker 3 failures / 30 s TTL, metrics on,
    no trace sampling, no access log. *)

type t

val create : ?config:config -> unit -> t
(** Builds the cache, breaker and telemetry registry and opens the
    access log (raising [Sys_error] if its path cannot be opened). *)

val cache : t -> Cache.t
val breaker : t -> Breaker.t
val telemetry : t -> Telemetry.t

(** Flush and close the access log (idempotent; no-op without one).
    Every serving loop calls it on exit; tests driving {!handle_line}
    directly call it before reading the log file. *)
val close : t -> unit

(** Has a shutdown request (or drain signal) been processed? *)
val stopping : t -> bool

(** The pending-work gauge: requests in flight (admitted and not yet
    answered, queued misses included) plus socket connections waiting
    for a worker. *)
val backlog : t -> int

(** Entries in the name memo; never more than [config.cache_capacity]
    (for tests). *)
val memo_size : t -> int

(** [handle_line t line] admits one request line, solves it if it
    missed, and returns the response line (no trailing newline), or
    [None] for blank input.
    Never raises — internal failures become ["internal"] error
    envelopes (with the solver state scrubbed first). Safe to call from
    concurrent domains; this is also the entry point the tests and the
    bench harness drive directly. *)
val handle_line : t -> string -> string option

(** Bounded line framing: one newline-terminated line of at most [max]
    bytes. Overlong input is consumed (never buffered past the cap)
    and reported as [`Oversized]. Exposed for the serving loops and
    their tests. *)
val read_line_bounded :
  in_channel -> max:int -> [ `Line of string | `Oversized | `Eof ]

(** [serve_channels t ic oc] serves request lines from [ic], writing
    one response line each to [oc], until EOF or a shutdown request;
    then it closes [t] (not the channels). With [config.domains > 1]
    the calling domain answers everything but cold solves itself, hits
    included, while [config.domains] worker domains solve the misses;
    responses may then come out of request order (envelopes carry the
    request id). *)
val serve_channels : t -> in_channel -> out_channel -> unit

(** [serve_channels] over stdin and stdout. SIGTERM/SIGINT exit 0 (the
    blocking stdin read cannot observe a drain flag). *)
val serve_stdio : t -> unit

(** Listen on a Unix domain socket ([path] is created, and removed on
    shutdown), serving each accepted connection to EOF on a pool of
    [config.domains] workers. SIGPIPE is ignored; SIGTERM/SIGINT drain:
    in-flight requests finish, parked connection readers are shut down,
    the socket is unlinked and the process exits 0. A second signal or
    shutdown op during the drain is tolerated. *)
val serve_socket : t -> path:string -> unit
