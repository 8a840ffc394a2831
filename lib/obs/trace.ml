type phase = B | E | I

type event = {
  ph : phase;
  name : string;
  cat : string;
  ts : float;
  args : (string * Json.t) list;
}

(* Per-domain sinks.  Each domain records into its own state (a
   mutable record held in domain-local storage), so emission never
   takes a lock and two domains capturing concurrently cannot clobber
   or interleave each other's events — the failure mode of the old
   single global sink, whose [enabled]/[sink] refs were plain
   cross-domain-mutated cells.

   The one piece of shared state is [live]: an atomic count of domains
   whose sink is currently enabled.  [on ()] — the only check
   instrumented hot paths pay when tracing is off — is a single
   [Atomic.get]; when it reads 0 every emit returns before touching
   domain-local storage. *)

type state = {
  mutable enabled : bool;
  mutable sink : event list; (* reversed; emission is allocation-only *)
  mutable count : int;
  mutable t0 : float;
  mutable last_ts : float;
}

let key : state Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { enabled = false; sink = []; count = 0; t0 = 0.0; last_ts = 0.0 })

let cur () = Domain.DLS.get key

(* number of domains with an enabled sink *)
let live = Atomic.make 0

let on () = Atomic.get live > 0

(* The timestamp source, swappable so [Linalg.Clock] can install the
   monotonic clock without [obs] depending on it. *)
let clock : (unit -> float) Atomic.t = Atomic.make Unix.gettimeofday
let set_clock f = Atomic.set clock f

(* Microseconds since [t0], clamped non-decreasing per domain:
   Chrome's viewer (and our own checker) requires monotone timestamps,
   and the default wall clock is allowed not to be. *)
let now_us st =
  let t = ((Atomic.get clock) () -. st.t0) *. 1e6 in
  let t = if t < st.last_ts then st.last_ts else t in
  st.last_ts <- t;
  t

let reset () =
  let st = cur () in
  st.sink <- [];
  st.count <- 0;
  st.t0 <- (Atomic.get clock) ();
  st.last_ts <- 0.0

let enable () =
  let st = cur () in
  reset ();
  if not st.enabled then begin
    st.enabled <- true;
    Atomic.incr live
  end

let disable () =
  let st = cur () in
  if st.enabled then begin
    st.enabled <- false;
    Atomic.decr live
  end

let events () = List.rev (cur ()).sink
let event_count () = (cur ()).count

let emit ph ?(args = []) ~cat name =
  if on () then begin
    let st = cur () in
    if st.enabled then begin
      st.sink <- { ph; name; cat; ts = now_us st; args } :: st.sink;
      st.count <- st.count + 1
    end
  end

let begin_span ?args ~cat name = emit B ?args ~cat name
let end_span name = emit E ~cat:"" name
let instant ?args ~cat name = emit I ?args ~cat name

let span ?args ~cat name f =
  if not (on () && (cur ()).enabled) then f ()
  else begin
    begin_span ?args ~cat name;
    Fun.protect ~finally:(fun () -> end_span name) f
  end

(* --- span-tree reconstruction ------------------------------------------- *)

type span = { name : string; cat : string; total : float; self : float }

(* Walk the events keeping a stack of open spans (of category [cat]
   when given; end events carry no category, so membership is decided
   by the matching begin). Self time = own duration minus the summed
   durations of direct children on the stack. Unbalanced tails (spans
   still open when the sink was read) are ignored. *)
let fold_spans ?cat f acc events =
  let keep (e : event) = match cat with None -> true | Some c -> e.cat = c in
  let _, acc =
    List.fold_left
      (fun (stack, acc) (e : event) ->
        match (e.ph, stack) with
        | B, _ when keep e -> ((e, ref 0.0) :: stack, acc)
        | E, ((b, children) :: rest) when b.name = e.name ->
          let total = (e.ts -. b.ts) /. 1e6 in
          (match rest with
          | (_, parent_children) :: _ ->
            parent_children := !parent_children +. total
          | [] -> ());
          (rest, f acc { name = b.name; cat = b.cat; total; self = total -. !children })
        | _ -> (stack, acc) (* an instant, or another category's span *))
      ([], acc) events
  in
  acc

let summary ~cat events =
  let add acc s =
    if List.mem_assoc s.name acc then
      List.map
        (fun ((n, (self, total)) as cell) ->
          if n = s.name then (n, (self +. s.self, total +. s.total)) else cell)
        acc
    else (s.name, (s.self, s.total)) :: acc
  in
  List.rev_map
    (fun (name, (self, total)) -> (name, self, total))
    (fold_spans ~cat add [] events)

let with_recording f =
  enable ();
  let v = f () in
  let evs = events () in
  disable ();
  (v, evs)

(* Unlike [with_recording], [capture] saves this domain's sink state
   and puts it back, so a capture can run while an outer recording is
   in progress (the serving daemon harvests per-request decision
   events this way without clobbering a session-level trace).  The
   saved state is domain-local, so concurrent captures on different
   domains are fully independent.  The outer clock's monotonicity is
   preserved by restoring [last_ts]. *)
let capture f =
  let st = cur () in
  let s_enabled = st.enabled
  and s_sink = st.sink
  and s_count = st.count
  and s_t0 = st.t0
  and s_last = st.last_ts in
  let restore () =
    if st.enabled && not s_enabled then Atomic.decr live
    else if (not st.enabled) && s_enabled then Atomic.incr live;
    st.enabled <- s_enabled;
    st.sink <- s_sink;
    st.count <- s_count;
    st.t0 <- s_t0;
    st.last_ts <- s_last
  in
  enable ();
  match f () with
  | v ->
    let evs = events () in
    restore ();
    (v, evs)
  | exception e ->
    restore ();
    raise e
