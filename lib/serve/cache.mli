(** The content-addressed cross-request cache of the scheduling daemon.

    Maps {!Fingerprint} keys to full certified response payloads. The
    payload is an immutable {!Obs.Json.t} tree, rendered once at
    insert; a hit re-sends those bytes verbatim, so its ["result"] is
    byte-identical to the miss response that created the entry.
    Eviction is LRU under a fixed capacity.

    Every operation is safe to call from concurrent domains (one lock
    per cache). Hit/miss/eviction tallies are kept here and read
    through {!stats}. *)

type entry = {
  payload : Obs.Json.t;  (** the cached ["result"] object *)
  rendered : string;
      (** [Obs.Json.to_string payload], made once at insert and sent
          verbatim by every hit *)
  deps_fp : string;
      (** {!Fingerprint.deps_key} of the dependence set the cold solve
          derived — audit metadata, not part of the lookup key *)
  solve_ms : float;  (** wall time of the cold solve behind this entry *)
  mutable last_used : int;  (** LRU stamp, managed by the cache *)
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  capacity : int;
}

type t

(** @raise Invalid_argument if [capacity < 1]. *)
val create : capacity:int -> t

(** Counting lookup: bumps the hit or miss tally. *)
val find : t -> string -> entry option

(** Lookup without hit/miss accounting — for the server's double-checked
    re-probe under its solver lock (the request was already counted). *)
val find_quiet : t -> string -> entry option

(** Count a hit/miss that {!find_quiet} deliberately didn't. *)
val count_hit : t -> unit

val count_miss : t -> unit

(** Insert (no-op if the key is already present), rendering the payload
    once and evicting the LRU entry when at capacity. *)
val add : t -> string -> payload:Obs.Json.t -> deps_fp:string -> solve_ms:float -> unit

val stats : t -> stats
