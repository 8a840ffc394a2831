(** Statistics helpers of the benchmark: medians, guarded percentiles,
    geometric means, quartile spreads and open-loop lateness. *)

(** Median of a non-empty list (mean of the two middle values for even
    lengths). @raise Invalid_argument on an empty list. *)
val median : float list -> float

(** [samples_beyond ~p n] is how many of [n] sorted samples rank above
    the [p]-quantile's rank ([n - ceil (p * n)]), [0 <= p <= 1]. *)
val samples_beyond : p:float -> int -> int

(** The reporting rule: a percentile is reported only when at least
    this many samples lie beyond it. *)
val min_beyond : int

(** [percentile ~p xs] is the nearest-rank [p]-quantile of [xs]
    together with the sample count, or [None] when fewer than
    {!min_beyond} samples lie beyond it (an empty list included). *)
val percentile : p:float -> float list -> (float * int) option

(** Geometric mean of positive values.
    @raise Invalid_argument on an empty list or a value [<= 0]. *)
val geomean : float list -> float

(** First and third quartiles as Python's
    [statistics.quantiles(xs, n=4)] (the default "exclusive" method)
    computes them. @raise Invalid_argument with fewer than 2 values. *)
val quartiles : float list -> float * float

(** Quartile spread: [(q3 - q1) / median].
    @raise Invalid_argument with fewer than 2 values or a zero median. *)
val spread : float list -> float

(** Open-loop lateness of a request generator. *)
type lateness = {
  late_p50_ms : float;  (** median of [sent - due], clamped at 0 *)
  late_max_ms : float;
  late_count : int;  (** requests sent more than [slack_ms] after due *)
  sent : int;
}

(** [lateness ~slack_ms pairs] summarizes [(due, sent)] instants in
    seconds. A request sent early counts as on time. *)
val lateness : slack_ms:float -> (float * float) list -> lateness

(** [latency_ms ~due ~recv] is the open-loop latency of one request:
    measured from when it was due, not from when it was sent, so a
    generator stall is charged to every request it delayed. *)
val latency_ms : due:float -> recv:float -> float
