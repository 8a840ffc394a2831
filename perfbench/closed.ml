(* The closed-loop compile workloads, registry and scopgen: one client
   compiles one program after another, cold, through the public
   pipeline functions. *)

open Common

(* --- the digest manifest ------------------------------------------------ *)

let load_manifest path =
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Obs.Json.parse text with
  | Ok (Obs.Json.Obj kvs) ->
    List.filter_map
      (fun (k, v) -> Option.map (fun d -> (k, d)) (Obs.Json.to_string_opt v))
      kvs
  | _ -> failwith ("perfbench: malformed manifest " ^ path)

let print_manifest () =
  let specs = Ops.registry_specs () @ Ops.scopgen_specs () in
  let entries =
    List.map
      (fun (s : Ops.spec) ->
        let o, _, _ = Ops.compile s in
        (s.label, Obs.Json.Str o.c_digest))
      specs
  in
  print_endline (Obs.Json.to_string_pretty (Obs.Json.Obj entries))

(* --- compiler peak memory ------------------------------------------------ *)

(* [main.exe heap LABEL]: compile one operation in this fresh process and
   print the GC top heap in MB. *)
let print_heap label =
  match
    List.find_opt
      (fun (s : Ops.spec) -> s.label = label)
      (Ops.registry_specs () @ Ops.scopgen_specs ())
  with
  | None ->
    prerr_endline ("perfbench: no operation " ^ label);
    exit 2
  | Some spec ->
    ignore (Ops.compile spec);
    Printf.printf "%.17g\n" (peak_heap_mb ())

(* The peak memory of the compiler over the operations: each compiled
   alone in a fresh process, as a user runs the CLI, so that the figure
   does not depend on the order of the compiles or on the garbage of
   earlier ones. *)
let heap_peak specs =
  List.fold_left
    (fun acc (spec : Ops.spec) ->
      let ic =
        Unix.open_process_args_in Sys.executable_name
          [| Sys.executable_name; "heap"; spec.label |]
      in
      let line = In_channel.input_all ic in
      match (Unix.close_process_in ic, float_of_string_opt (String.trim line)) with
      | Unix.WEXITED 0, Some mb -> Float.max acc mb
      | _ -> failwith ("perfbench: heap measurement failed for " ^ spec.label))
    0.0 specs

(* --- closed-loop compile workloads -------------------------------------- *)

type op_record = {
  spec : Ops.spec;
  op : int;
  traced : bool;
  latency_ms : float;  (* from the moment the operation was due *)
  outcome : (Ops.outcome, string) result;
}

(* the facts that must repeat exactly whenever an operation is run again *)
let exact_facts (o : Ops.outcome) =
  ( o.counters, o.deps_count, o.partition, o.c_bytes, o.c_digest )

(* reconciliation tolerance of a traced operation: time inside the
   operation but outside every layer span *)
let unattributed_tolerance_ms wall_ms = 0.5 +. (0.02 *. wall_ms)

let min_compiles = 100 (* ten samples beyond a p90 *)

(* The hit path replayed in-process over the workload's own keys, against
   a [Serve.Cache] holding each operation's emitted C. *)
let replay_cache specs first =
  let cache = Serve.Cache.create ~capacity:(List.length specs) in
  List.iter
    (fun (spec : Ops.spec) ->
      match Hashtbl.find_opt first spec.label with
      | None -> () (* a failed compile: its replays miss and count as failed *)
      | Some (_, c) ->
      Serve.Cache.add cache
        (Replay.key_of ~model:spec.model ~engine:spec.engine spec.prog)
        ~payload:
          (Obs.Json.Obj
             [ ("kernel", Obs.Json.Str spec.kernel);
               ("model", Obs.Json.Str (Fusion.Model.name spec.model));
               ("engine", Obs.Json.Str (Pluto.Engine.choice_name spec.engine));
               ("c", Obs.Json.Str c) ])
        ~deps_fp:"" ~solve_ms:0.0)
    specs;
  cache

(* replayed hits after each compile from the second pass on: spread over
   the run like the compiles, so both see the same machine. Each pass
   replays every operation's key this many times, in seeded order, so
   every pass and every seed replays the same mix of hits. *)
let replays_per_compile = 12

(* [setup ()] builds the inputs; it runs first (timed from process
   start) and again after every operation, and the median of those
   times is the run's set-up time. *)
let run_window args ~setup ~rng ~ledger =
  let t0 = Linalg.Clock.now () in
  let records = ref [] and replays = ref [] and setups = ref [] in
  let pass_s = ref [] in
  let first = Hashtbl.create 128 and last = Hashtbl.create 128 in
  let pass = ref 0 and op = ref 0 in
  let cache = ref None in
  let min_passes = if args.trace then 4 else 2 in
  let specs = ref [] in
  while
    !pass < min_passes
    || !op < min_compiles
    || Linalg.Clock.now () -. t0 < args.seconds
  do
    if !pass = 0 then begin
      specs := setup ();
      setups := [ Linalg.Clock.now () -. process_start ]
    end;
    let p0 = Linalg.Clock.now () in
    (* the traced run alternates untraced and traced passes *)
    let traced = args.trace && !pass mod 2 = 1 in
    let hits =
      Option.map
        (fun cache ->
          let keys =
            List.concat_map
              (fun s -> List.init replays_per_compile (fun _ -> s))
              !specs
          in
          (cache, ref (shuffle rng keys)))
        !cache
    in
    List.iter
      (fun (spec : Ops.spec) ->
        let due = Linalg.Clock.now () in
        let outcome =
          match
            if traced then Ops.compile_traced ledger ~op:!op spec
            else Ops.compile spec
          with
          | o, ast, c ->
            if not (Hashtbl.mem first spec.label) then
              Hashtbl.replace first spec.label (ast, c);
            Hashtbl.replace last spec.label ast;
            Ok o
          | exception e -> Error (Printexc.to_string e)
        in
        let latency_ms = Linalg.Clock.elapsed_ms ~since:due in
        records := { spec; op = !op; traced; latency_ms; outcome } :: !records;
        incr op;
        (* collect the compile's garbage untimed: the next compile starts
           from a clean heap, as in a fresh process, and neither it nor
           the set-up and replays below pay for sweeping this one's *)
        Gc.full_major ();
        (* the set-up, repeated between operations so that its median
           covers the whole run like every other figure *)
        let s0 = Linalg.Clock.now () in
        ignore (setup ());
        setups := (Linalg.Clock.now () -. s0) :: !setups;
        Option.iter
          (fun (cache, keys) ->
            for _ = 1 to replays_per_compile do
              match !keys with
              | [] -> ()
              | (s : Ops.spec) :: rest ->
                keys := rest;
                let line =
                  Replay.request_line ~id:(List.length !replays) ~kernel:s.kernel
                    ~size:s.size ~model:(Fusion.Model.name s.model)
                    ~engine:(Pluto.Engine.choice_name s.engine)
                in
                replays := Replay.one cache line :: !replays
            done)
          hits)
      (shuffle rng !specs);
    pass_s := (Linalg.Clock.now () -. p0) :: !pass_s;
    if !pass = 0 then cache := Some (replay_cache !specs first);
    incr pass
  done;
  ( !specs,
    Stats.median !setups,
    List.rev !records,
    List.rev !replays,
    first,
    last,
    Option.map (fun c -> (Serve.Cache.stats c).evictions) !cache,
    List.rev !pass_s )

let counter name (o : Ops.outcome) =
  Option.value (List.assoc_opt name o.counters) ~default:0

let compile_workload args =
  let manifest_and_specs () =
    let manifest = load_manifest args.manifest in
    let specs =
      if args.workload = "registry" then Ops.registry_specs ()
      else Ops.scopgen_specs ()
    in
    (manifest, specs)
  in
  let rng = Random.State.make [| args.seed; 0x5eed |] in
  let ledger = Ledger.create () in
  let manifest = ref [] in
  let setup () =
    let m, specs = manifest_and_specs () in
    manifest := m;
    specs
  in
  let specs, setup_s, records, replays, first, last, evictions, pass_s =
    run_window args ~setup ~rng ~ledger
  in
  (* how steady the machine was: every pass does the same work *)
  print_endline
    (Obs.Json.to_string
       (Obs.Json.Obj
          [ ( "passes",
              Obs.Json.Obj
                [ ("seconds", Obs.Json.List (List.map (fun s -> Obs.Json.Float s) pass_s));
                  ("spread", Obs.Json.Float (Stats.spread pass_s)) ] ) ]));
  let manifest = !manifest in
  (* --- correctness oracle, run outside the timed window --- *)
  let bad = Hashtbl.create 16 in
  let fail op why =
    if not (Hashtbl.mem bad op) then begin
      Hashtbl.replace bad op why;
      Printf.eprintf "perfbench: op %d failed: %s\n%!" op why
    end
  in
  let reference = Hashtbl.create 128 in
  let words_ref = Hashtbl.create 128 in
  List.iter
    (fun r ->
      match r.outcome with
      | Error msg -> fail r.op (r.spec.label ^ ": " ^ msg)
      | Ok o ->
        if o.rung <> "primary" && o.rung <> "structural" then
          fail r.op (Printf.sprintf "%s: degraded to rung %s" r.spec.label o.rung);
        if o.wisecheck_errors > 0 then
          fail r.op
            (Printf.sprintf "%s: %d wisecheck errors" r.spec.label
               o.wisecheck_errors);
        (match Hashtbl.find_opt reference r.spec.label with
        | None -> Hashtbl.replace reference r.spec.label (exact_facts o)
        | Some facts ->
          if facts <> exact_facts o then
            fail r.op (r.spec.label ^ ": exact facts differ between passes"));
        (* Allocation repeats exactly only along the same code path, and
           an operation's first run in the process may pay one-time
           initialization, so the second run of each (operation, mode)
           is the reference. *)
        let wkey = (r.spec.label, r.traced) in
        match Hashtbl.find_opt words_ref wkey with
        | None -> Hashtbl.replace words_ref wkey None
        | Some None -> Hashtbl.replace words_ref wkey (Some o.minor_words)
        | Some (Some w) ->
          if w <> o.minor_words then
            fail r.op
              (Printf.sprintf "%s: allocation differs between passes (%.0f vs %.0f)"
                 r.spec.label w o.minor_words))
    records;
  let ops_of label = List.filter (fun r -> r.spec.label = label) records in
  let sims =
    List.filter_map
      (fun (spec : Ops.spec) ->
        match Hashtbl.find_opt first spec.label with
        | None -> None
        | Some (ast, _) ->
          (match Ops.semantics_diff spec.prog ast with
          | None -> ()
          | Some d ->
            List.iter
              (fun r -> fail r.op (spec.label ^ ": semantics differ: " ^ d))
              (ops_of spec.label));
          let t0 = Linalg.Clock.now () in
          let st = Ops.simulate spec.prog ast in
          let sim_ms = Linalg.Clock.elapsed_ms ~since:t0 in
          let again = Ops.simulate spec.prog (Hashtbl.find last spec.label) in
          if again.cycles <> st.cycles then
            List.iter
              (fun r -> fail r.op (spec.label ^ ": simulated cycles differ"))
              (ops_of spec.label);
          Some (spec, st, sim_ms))
      specs
  in
  (* scopgen: both engines must find the same outermost fusion *)
  if args.workload = "scopgen" then begin
    let by_pass = Hashtbl.create 32 in
    List.iteri
      (fun i r ->
        let pass = i / List.length specs in
        match r.outcome with
        | Ok o ->
          Hashtbl.add by_pass (pass, r.spec.kernel) (r.op, o.partition)
        | Error _ -> ())
      records;
    let keys = Hashtbl.fold (fun k _ acc -> k :: acc) by_pass [] in
    List.iter
      (fun k ->
        match Hashtbl.find_all by_pass k with
        | [ (op1, p1); (op2, p2) ] when p1 <> p2 ->
          fail op1 (snd k ^ ": ilp and lp-dfp outer partitions differ");
          fail op2 (snd k ^ ": ilp and lp-dfp outer partitions differ")
        | _ -> ())
      (List.sort_uniq compare keys)
  end;
  (* --- traced-run reconciliation --- *)
  let traced = List.filter (fun r -> r.traced) records in
  let layer_ms = Hashtbl.create 8 in
  List.iter
    (fun r ->
      let wall_s, selfs = Ledger.self_times ledger ~op:r.op in
      let attributed = sum (List.map snd selfs) in
      List.iter
        (fun (name, s) ->
          Hashtbl.replace layer_ms name
            ((s *. 1e3)
            +. Option.value (Hashtbl.find_opt layer_ms name) ~default:0.0))
        selfs;
      let gap_ms = (wall_s -. attributed) *. 1e3 in
      if gap_ms > unattributed_tolerance_ms (wall_s *. 1e3) then
        fail r.op
          (Printf.sprintf "%s: %.3f ms of %.3f ms outside every layer span"
             r.spec.label gap_ms (wall_s *. 1e3)))
    traced;
  let replay_misses = List.length (List.filter (fun s -> not s.Replay.hit) replays) in
  if replay_misses > 0 then
    Printf.eprintf "perfbench: %d replayed hits missed the cache\n%!" replay_misses;
  (* --- tallies --- *)
  let n_ops = List.length records in
  let attempted = n_ops + List.length replays in
  let failed = Hashtbl.length bad + replay_misses in
  let correct = failed = 0 in
  let ok_ops =
    List.filter (fun r -> not (Hashtbl.mem bad r.op)) records
  in
  let within =
    List.length
      (List.filter (fun r -> r.latency_ms <= cold_limit_ms) ok_ops)
    + List.length
        (List.filter
           (fun s -> s.Replay.hit && s.Replay.total_us <= hit_limit_ms *. 1e3)
           replays)
  in
  let share a b = float_of_int a /. float_of_int b in
  let firsts =
    (* one occurrence of every operation: the per-pass exact figures *)
    List.filter_map
      (fun (spec : Ops.spec) ->
        List.find_map
          (fun r ->
            match r.outcome with
            | Ok o when r.spec.label = spec.label && not r.traced -> Some o
            | _ -> None)
          records)
      specs
  in
  let per_pass name = float_of_int (List.fold_left (fun a o -> a + counter name o) 0 firsts) in
  if not args.trace then begin
    let untimed = List.filter (fun r -> not r.traced) records in
    let walls = List.filter_map (fun r -> Result.to_option r.outcome |> Option.map (fun (o : Ops.outcome) -> o.wall_ms)) untimed in
    let lat = List.map (fun r -> r.latency_ms) untimed in
    let hits = List.map (fun s -> s.Replay.total_us) replays in
    print_endline
      (result_line ~correct ~attempted ~failed
         [ ("setup_s", setup_s, "s");
           ("compiles_per_s", float_of_int (List.length walls) /. (sum walls /. 1e3), "1/s");
           ("compile_p50_ms", pct ~what:"compile" ~p:0.5 walls, "ms");
           ("compile_p90_ms", pct ~what:"compile" ~p:0.9 walls, "ms");
           ( "sim_cycles_geomean",
             Stats.geomean
               (List.map (fun (_, (st : Machine.Perf.stats), _) -> float_of_int st.cycles) sims),
             "cycles" );
           ("peak_heap_mb", heap_peak specs, "MB");
           ("hit_p50_us", pct ~what:"hit" ~p:0.5 hits, "us");
           ("hit_p99_us", pct ~what:"hit" ~p:0.99 hits, "us");
           ("cold_p50_ms", pct ~what:"cold" ~p:0.5 lat, "ms");
           ("cold_p90_ms", pct ~what:"cold" ~p:0.9 lat, "ms");
           ("slo_share", share within attempted, "share");
           ("ok_share", share (attempted - failed) attempted, "share") ])
  end
  else begin
    let n_traced = float_of_int (max 1 (List.length traced)) in
    let layer name =
      Option.value (Hashtbl.find_opt layer_ms name) ~default:0.0 /. n_traced
    in
    let traced_pivots =
      List.fold_left
        (fun acc r ->
          match r.outcome with
          | Ok o -> acc + counter "lp_pivots" o + counter "dual_pivots" o
          | Error _ -> acc)
        0 traced
    in
    let wall_of rs =
      mean
        (List.filter_map
           (fun r -> Result.to_option r.outcome |> Option.map (fun (o : Ops.outcome) -> o.wall_ms))
           rs)
    in
    let untraced_wall = wall_of (List.filter (fun r -> not r.traced) records) in
    let changed =
      List.length
        (List.filter
           (fun (spec : Ops.spec) ->
             match Hashtbl.find_opt reference spec.label with
             | Some (_, _, _, _, digest) ->
               List.assoc_opt spec.label manifest <> Some digest
             | None -> true)
           specs)
    in
    let warm = per_pass "warm_starts" and fallbacks = per_pass "warm_fallbacks" in
    let fk_hits = per_pass "farkas_cache_hits" and fk_miss = per_pass "farkas_cache_misses" in
    let ratio a b = if a +. b = 0.0 then 0.0 else a /. (a +. b) in
    let sim_list f = List.map f sims in
    let replay_mean f = mean (List.map f replays) in
    let trace_file =
      Filename.concat args.out
        (Printf.sprintf "%s-seed%d-spans.json" args.workload args.seed)
    in
    write_file trace_file (Obs.Json.to_string (Ledger.to_json ledger));
    print_endline
      (result_line ~correct ~attempted ~failed
         [ ("deps.analyze_ms", layer "deps.analyze", "ms");
           ("deps.count", float_of_int (List.fold_left (fun a (o : Ops.outcome) -> a + o.deps_count) 0 firsts), "count");
           ("pluto.schedule_ms", layer "pluto.schedule", "ms");
           ("pluto.farkas_hit_ratio", ratio fk_hits fk_miss, "share");
           ("fusion.icc_ms", layer "fusion.icc", "ms");
           ( "fusion.degraded",
             float_of_int
               (List.length
                  (List.filter
                     (fun r ->
                       match r.outcome with
                       | Ok o -> o.rung <> "primary" && o.rung <> "structural"
                       | Error _ -> false)
                     records)),
             "count" );
           ("fusion.partitions", float_of_int (List.fold_left (fun a (o : Ops.outcome) -> a + Ops.npartitions o.partition) 0 firsts), "count");
           ("ilp.lp_solves", per_pass "lp_solves", "count");
           ("ilp.lp_pivots", per_pass "lp_pivots", "count");
           ("ilp.dual_pivots", per_pass "dual_pivots", "count");
           ("ilp.bb_nodes", per_pass "bb_nodes", "count");
           ("ilp.warm_ratio", ratio warm fallbacks, "share");
           ("ilp.lp_relax_solves", per_pass "lp_relax_solves", "count");
           ("ilp.dfp_fallbacks", per_pass "dfp_fallbacks", "count");
           ( "ilp.ns_per_pivot",
             (if traced_pivots = 0 then 0.0
              else layer "pluto.schedule" *. n_traced *. 1e6 /. float_of_int traced_pivots),
             "ns" );
           ("linalg.big_promotions", per_pass "big_promotions", "count");
           ( "linalg.minor_words",
             Hashtbl.fold
               (fun (_, traced) w acc ->
                 match w with Some w when not traced -> acc +. w | _ -> acc)
               words_ref 0.0,
             "words" );
           ("codegen.scan_ms", layer "codegen.scan", "ms");
           ("codegen.emit_ms", layer "codegen.emit", "ms");
           ("codegen.c_bytes", float_of_int (List.fold_left (fun a (o : Ops.outcome) -> a + o.c_bytes) 0 firsts), "bytes");
           ("codegen.changed_outputs", float_of_int changed, "count");
           ("analysis.certify_ms", layer "analysis.certify", "ms");
           ("machine.simulate_ms", mean (sim_list (fun (_, _, ms) -> ms)), "ms");
           ("machine.barriers", float_of_int (List.fold_left ( + ) 0 (sim_list (fun (_, (st : Machine.Perf.stats), _) -> st.barriers))), "count");
           ("serve.parse_us", replay_mean (fun s -> s.parse_us), "us");
           ("serve.build_us", replay_mean (fun s -> s.build_us), "us");
           ("serve.fingerprint_us", replay_mean (fun s -> s.fingerprint_us), "us");
           ("serve.lookup_us", replay_mean (fun s -> s.lookup_us), "us");
           ("serve.serialize_us", replay_mean (fun s -> s.serialize_us), "us");
           ("serve.resp_bytes", replay_mean (fun s -> float_of_int s.bytes), "bytes");
           ("serve.server_us", Stats.median (List.map (fun s -> s.Replay.total_us) replays), "us");
           ("serve.transport_us", 0.0, "us");
           ("serve.lock_wait_ms", 0.0, "ms");
           ("serve.solve_ms", 0.0, "ms");
           ("serve.hit_ratio", share (List.length replays - replay_misses) (List.length replays), "share");
           ("serve.coalesced", 0.0, "count");
           ("serve.shed", 0.0, "count");
           ("serve.evictions", float_of_int (Option.value evictions ~default:0), "count");
           ("gen.late_ms", 0.0, "ms");
           ("obs.trace_overhead", (wall_of traced -. untraced_wall) /. untraced_wall, "share") ])
  end
