(* The open-loop serve workload: request lines written on a seeded
   schedule to a real `wisefuse_cli serve --stdio --domains 2` child
   process, whatever the daemon's progress. One thread writes the lines
   and reads the replies; replies are matched to requests by id after
   the window, so the client does no parsing while it measures. *)

open Common

(* Offered load. Hits arrive at a fixed rate; a pair of never-seen
   keys arrives together at most every [min_cold_period_s], so every
   pair contends for the daemon's one solver lock and ties up both
   workers. While a pair's first solve (up to ~0.2 s) blocks both
   workers, hits queue: at this rate the backlog stays under half the
   default max_pending of 64, so the daemon sheds nothing even on a
   slower machine. A pair finishes before the next one arrives, so how
   long hits queue depends on each pair alone, not on which pairs
   happen to follow each other. The pairs are spread evenly over the
   window, one per cold (kernel, model): a 40 s window holds 6400 hits
   (ten beyond a p99 needs 1000) and 100 cold requests (ten beyond a
   p90 needs 100), so 98.5% of requests are hits. *)
let hit_rate = 160.0
let min_cold_period_s = 0.6

(* bt and sp are left out of the cold keys: their ~1 s solves would
   push the backlog past max_pending and shed. dot and advect, the
   cheapest kernels, are left out so that the 50 pairs of a window of
   30 s or more cover every remaining (kernel, model) exactly once. *)
let cold_kernels =
  List.filter
    (fun (e : Kernels.Registry.entry) ->
      not (List.mem e.name [ "bt"; "sp"; "dot"; "advect" ]))
    Kernels.Registry.all

type daemon = {
  pid : int;
  to_d : Unix.file_descr;
  from_d : Unix.file_descr;
  err_path : string;
  pending : Buffer.t;  (* bytes of a reply line not yet complete *)
}

let spawn args ~traced ~index =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err_path =
    Filename.concat args.out
      (Printf.sprintf "%s-seed%d-daemon%d.stderr" args.workload args.seed index)
  in
  let err =
    Unix.openfile err_path [ Unix.O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644
  in
  (* the runtime reports top_heap_words on stderr at exit *)
  let env =
    Array.append [| "OCAMLRUNPARAM=v=0x400" |]
      (Array.of_list
         (List.filter
            (fun s -> not (String.starts_with ~prefix:"OCAMLRUNPARAM=" s))
            (Array.to_list (Unix.environment ()))))
  in
  let argv =
    Array.of_list
      ([ args.cli; "serve"; "--stdio"; "--domains"; "2" ]
      @ if traced then [ "--trace-sample"; "1" ] else [])
  in
  let pid = Unix.create_process_env args.cli argv env in_r out_w err in
  List.iter Unix.close [ in_r; out_w; err ];
  { pid; to_d = in_w; from_d = out_r; err_path; pending = Buffer.create 65536 }

let send d line =
  let s = line ^ "\n" in
  let rec go off =
    if off < String.length s then
      go (off + Unix.write_substring d.to_d s off (String.length s - off))
  in
  go 0

let chunk = Bytes.create 65536

(* Wait up to [timeout] seconds for reply bytes; return the complete
   lines, stamped with the time they were read. *)
let poll d ~timeout =
  match Unix.select [ d.from_d ] [] [] (Float.max 0.0 timeout) with
  | [], _, _ -> []
  | _ ->
    let n = Unix.read d.from_d chunk 0 (Bytes.length chunk) in
    if n = 0 then failwith "perfbench: the daemon closed its output";
    let t = Linalg.Clock.now () in
    Buffer.add_subbytes d.pending chunk 0 n;
    let text = Buffer.contents d.pending in
    let parts = String.split_on_char '\n' text in
    let rec split acc = function
      | [ rest ] ->
        Buffer.clear d.pending;
        Buffer.add_string d.pending rest;
        List.rev acc
      | l :: rest -> split ((l, t) :: acc) rest
      | [] -> List.rev acc
    in
    split [] parts

let rec await_line d ~deadline =
  let now = Linalg.Clock.now () in
  if now > deadline then failwith "perfbench: no reply from the daemon";
  match poll d ~timeout:(deadline -. now) with
  | [] -> await_line d ~deadline
  | [ (l, _) ] -> l
  | _ -> failwith "perfbench: unexpected extra reply"

let shutdown d =
  send d {|{"id":"bye","op":"shutdown"}|};
  ignore (await_line d ~deadline:(Linalg.Clock.now () +. 30.0));
  Unix.close d.to_d;
  ignore (Unix.waitpid [] d.pid);
  Unix.close d.from_d

let top_heap_mb d =
  let ic = open_in d.err_path in
  let rec go acc =
    match input_line ic with
    | line -> (
      match Scanf.sscanf_opt line "top_heap_words: %d" Fun.id with
      | Some w -> go (Some w)
      | None -> go acc)
    | exception End_of_file -> acc
  in
  let w = go None in
  close_in ic;
  match w with
  | Some w -> float_of_int (w * (Sys.word_size / 8)) /. 1048576.0
  | None -> failwith "perfbench: the daemon reported no top_heap_words"

(* --- replies ------------------------------------------------------------- *)

let member path j =
  List.fold_left (fun acc f -> Option.bind acc (Obs.Json.member f)) (Some j) path

let str path j = Option.bind (member path j) Obs.Json.to_string_opt
let num path j = Option.bind (member path j) Obs.Json.to_float_opt

let parse_reply line =
  match Obs.Json.parse line with
  | Ok j -> j
  | Error e -> failwith ("perfbench: unparseable reply: " ^ e)

let reply_id j =
  match Obs.Json.member "id" j with
  | Some (Obs.Json.Int i) -> i
  | _ -> -1

(* --- the request stream -------------------------------------------------- *)

type cls = Hit | Cold

type request = {
  id : int;
  due : float;  (* seconds after the window opens *)
  cls : cls;
  kernel : string;
  size : int;
  model : string;
  line : string;
}

let warm_keys =
  List.concat_map
    (fun (e : Kernels.Registry.entry) ->
      List.map (fun m -> (e.name, e.model_size, Fusion.Model.name m)) Fusion.Model.all)
    Kernels.Registry.all

let line_of ~id (kernel, size, model) =
  Replay.request_line ~id ~kernel ~size ~model ~engine:"auto"

(* Cold keys: every (kernel, model) pair once, in seeded order, just
   above its model size. The sizes are fixed because a kernel's solve
   time can depend on its size; the seed changes only the order. *)
let cold_keys rng =
  shuffle rng
    (List.concat_map
       (fun (e : Kernels.Registry.entry) ->
         List.map
           (fun m -> (e.name, e.model_size + 1, Fusion.Model.name m))
           Fusion.Model.all)
       cold_kernels)

let schedule rng ~seconds =
  (* zipf ranks follow the registry order, so the seed changes the
     draws but not which keys are hot *)
  let warm = Array.of_list warm_keys in
  let pick = Replay.zipf_picker rng (Array.length warm) in
  (* evenly spaced from a seeded phase: how many hits queue behind a
     cold pair then depends on the pair, not on arrival bursts *)
  let phase = Random.State.float rng (1.0 /. hit_rate) in
  let hits =
    List.init
      (int_of_float ((seconds -. phase) *. hit_rate))
      (fun i -> (phase +. (float_of_int i /. hit_rate), Hit, warm.(pick ())))
  in
  let cold = Array.of_list (cold_keys rng) in
  let pairs =
    min (Array.length cold) (int_of_float (seconds /. min_cold_period_s))
  in
  let period = seconds /. float_of_int pairs in
  let colds =
    List.concat
      (List.init pairs (fun j ->
           let t = (float_of_int j +. 0.5) *. period in
           let kernel, size, model = cold.(j) in
           (* both keys of a pair are one (kernel, model) at two unseen
              sizes, so the lock order inside a pair does not matter *)
           [ (t, Cold, (kernel, size, model)); (t, Cold, (kernel, size + 1, model)) ]))
  in
  List.stable_sort (fun (a, _, _) (b, _, _) -> compare a b) (hits @ colds)
  |> List.mapi (fun id (due, cls, ((kernel, size, model) as k)) ->
         { id; due; cls; kernel; size; model; line = line_of ~id k })

(* --- set-up: boot and warm ----------------------------------------------- *)

(* Warm every registry key at its model size, one request at a time, so
   each reply's wall_us is a compile with no lock wait. Returns the
   reply of each key. *)
let warm d =
  let keys = Array.of_list warm_keys in
  let n = Array.length keys in
  let replies = Array.make n None in
  let next = ref 0 and got = ref 0 in
  let deadline = Linalg.Clock.now () +. 150.0 in
  let issue () =
    if !next < n then begin
      send d (line_of ~id:!next keys.(!next));
      incr next
    end
  in
  issue ();
  while !got < n do
    let now = Linalg.Clock.now () in
    if now > deadline then failwith "perfbench: warm-up timed out";
    List.iter
      (fun (l, _) ->
        let j = parse_reply l in
        replies.(reply_id j) <- Some j;
        incr got;
        issue ())
      (poll d ~timeout:(deadline -. now))
  done;
  Array.to_list (Array.mapi (fun i r -> (keys.(i), Option.get r)) replies)

let boot_and_warm args ~traced ~index =
  let d = spawn args ~traced ~index in
  (d, warm d)

(* --- the window ---------------------------------------------------------- *)

type outcome = {
  req : request;
  sent : float;
  recv : float;
  reply : string;
}

let run_window d reqs ~seconds =
  let reqs = Array.of_list reqs in
  let n = Array.length reqs in
  let sent = Array.make n nan in
  let lines = ref [] and got = ref 0 in
  let start = Linalg.Clock.now () +. 0.05 in
  let give_up = start +. seconds +. 90.0 in
  let idx = ref 0 in
  while !got < n do
    let now = Linalg.Clock.now () in
    if now > give_up then failwith "perfbench: replies stopped arriving";
    while !idx < n && start +. reqs.(!idx).due <= Linalg.Clock.now () do
      (* stamped before the write: the write can wake the daemon, which
         may answer before the write call returns *)
      sent.(!idx) <- Linalg.Clock.now ();
      send d reqs.(!idx).line;
      incr idx
    done;
    let timeout =
      if !idx < n then start +. reqs.(!idx).due -. Linalg.Clock.now () else 0.5
    in
    let ls = poll d ~timeout in
    got := !got + List.length ls;
    lines := List.rev_append ls !lines
  done;
  let by_id = Hashtbl.create n in
  List.iter
    (fun (l, t) -> Hashtbl.replace by_id (reply_id (parse_reply l)) (l, t))
    !lines;
  Array.to_list
    (Array.mapi
       (fun i req ->
         let reply, recv =
           match Hashtbl.find_opt by_id req.id with
           | Some x -> x
           | None -> ("", nan)
         in
         { req; sent = sent.(i) -. start; recv = recv -. start; reply })
       reqs)

(* total of a Prometheus series (all label sets) *)
let prom_total text ~name ?label () =
  List.fold_left
    (fun acc line ->
      match String.index_opt line ' ' with
      | Some sp when line <> "" && line.[0] <> '#' ->
        let head = String.sub line 0 sp in
        let base, labels =
          match String.index_opt head '{' with
          | Some b -> (String.sub head 0 b, String.sub head b (String.length head - b))
          | None -> (head, "")
        in
        let label_ok =
          match label with
          | None -> true
          | Some l ->
            let needle = l in
            let ln = String.length needle and hn = String.length labels in
            let rec has i = i + ln <= hn && (String.sub labels i ln = needle || has (i + 1)) in
            has 0
        in
        if base = name && label_ok then
          acc
          +. Option.value ~default:0.0
               (float_of_string_opt
                  (String.sub line (sp + 1) (String.length line - sp - 1)))
        else acc
      | _ -> acc)
    0.0
    (String.split_on_char '\n' text)

let scrape d =
  send d {|{"id":"scrape","op":"metrics"}|};
  let j = parse_reply (await_line d ~deadline:(Linalg.Clock.now () +. 30.0)) in
  Option.get (str [ "metrics"; "text" ] j)

(* --- the served programs, rebuilt ---------------------------------------- *)

let sched_of_json j =
  let rows stmt =
    List.map
      (fun r ->
        match (Obs.Json.member "hyp" r, Obs.Json.member "beta" r) with
        | Some (Obs.Json.List cs), _ ->
          Pluto.Sched.Hyp
            (Array.of_list
               (List.map (fun c -> Option.get (Obs.Json.to_int_opt c)) cs))
        | _, Some b -> Pluto.Sched.Beta (Option.get (Obs.Json.to_int_opt b))
        | _ -> failwith "perfbench: malformed schedule row")
      (Option.get (Option.bind (Obs.Json.member "rows" stmt) Obs.Json.to_list_opt))
  in
  Array.of_list (List.map rows (Option.get (Obs.Json.to_list_opt j)))

(* The program and AST of a served schedule, with the dependence
   count: the scanner run over the payload's schedule rows, as the
   daemon's codegen ran over its own; the structural icc model is
   solver-free, so it is re-run and its schedule compared with the
   served one. *)
let served_ast (kernel, size, model) payload =
  let prog = Replay.build_program kernel (Some size) in
  let sched = sched_of_json (Option.get (member [ "schedule" ] payload)) in
  match Fusion.Model.of_name model with
  | Fusion.Model.Icc ->
    let r = Icc.Icc_model.run prog in
    if r.sched <> sched then failwith (kernel ^ "/icc: served schedule differs");
    (prog, r.ast, List.length r.deps)
  | _ ->
    let deps = Deps.Dep.analyze prog in
    ( prog,
      Codegen.Scan.generate ~prog ~sched ~deps:(List.filter Deps.Dep.is_true deps),
      List.length deps )

(* --- the workload -------------------------------------------------------- *)

let result_text j = Obs.Json.to_string (Option.get (member [ "result" ] j))

(* The payload's "counters" object mirrors the daemon's serve_* request
   tallies, which other workers update while a solve runs; they are left
   out when cold payloads of two daemons are compared. *)
let solve_text j =
  let strip = function
    | Obs.Json.Obj kvs ->
      Obs.Json.Obj
        (List.map
           (fun (k, v) ->
             match (k, v) with
             | "counters", Obs.Json.Obj cs ->
               ( k,
                 Obs.Json.Obj
                   (List.filter
                      (fun (n, _) -> not (String.starts_with ~prefix:"serve_" n))
                      cs) )
             | _ -> (k, v))
           kvs)
    | v -> v
  in
  Obs.Json.to_string (strip (Option.get (member [ "result" ] j)))

let solver_work j =
  List.fold_left
    (fun acc n -> acc +. Option.value (num [ "serve"; n ] j) ~default:1.0)
    0.0 Serve.Protocol.solver_counter_names

let span_us name j =
  match Option.bind (member [ "trace"; "spans" ] j) Obs.Json.to_list_opt with
  | None -> None
  | Some spans ->
    List.find_map
      (fun s -> if str [ "name" ] s = Some name then num [ "us" ] s else None)
      spans

let is_primary j =
  match (str [ "result"; "rung" ] j, member [ "result"; "degraded" ] j) with
  | Some ("primary" | "structural"), Some (Obs.Json.Bool false) -> true
  | _ -> false

(* One daemon's measured window: its warm replies and the outcome of
   every request, checked. *)
type measured = {
  warm_replies : ((string * int * string) * Obs.Json.t) list;
  results : (outcome * Obs.Json.t option) list;  (* [None]: failed *)
}

let check ~fail warm_replies outcomes =
  let warm_payload = Hashtbl.create 128 in
  List.iter
    (fun (((kernel, _, model) as key), j) ->
      if str [ "status" ] j <> Some "ok" || str [ "cache" ] j <> Some "miss"
         || not (is_primary j)
      then fail (Printf.sprintf "warm-up %s/%s failed" kernel model)
      else Hashtbl.replace warm_payload key (result_text j))
    warm_replies;
  let one o =
    if o.reply = "" then begin
      fail (Printf.sprintf "request %d unanswered" o.req.id);
      None
    end
    else
      let j = parse_reply o.reply in
      let key = (o.req.kernel, o.req.size, o.req.model) in
      let ok =
        str [ "status" ] j = Some "ok"
        &&
        match o.req.cls with
        | Hit ->
          (* a hit does no solver work and serves the cold payload
             byte for byte *)
          str [ "cache" ] j = Some "hit"
          && solver_work j = 0.0
          && Hashtbl.find_opt warm_payload key = Some (result_text j)
        | Cold ->
          str [ "cache" ] j = Some "miss"
          && is_primary j
          && num [ "result"; "wisecheck"; "errors" ] j = Some 0.0
      in
      if ok then Some j
      else begin
        fail
          (Printf.sprintf "request %d (%s/%d/%s): %s" o.req.id o.req.kernel
             o.req.size o.req.model
             (String.sub o.reply 0 (min 300 (String.length o.reply))));
        None
      end
  in
  { warm_replies; results = List.map (fun o -> (o, one o)) outcomes }

let ok_of_cls m c =
  List.filter_map
    (fun (o, j) -> if o.req.cls = c then Option.map (fun j -> (o, j)) j else None)
    m.results

let lat (o, _) = Stats.latency_ms ~due:o.req.due ~recv:o.recv

let hit_p50_us m = pct ~what:"hit" ~p:0.5 (List.map lat (ok_of_cls m Hit)) *. 1e3

let counter_total name replies =
  sum
    (List.map
       (fun (_, j) -> Option.value (num [ "result"; "counters"; name ] j) ~default:0.0)
       replies)

let run args =
  let rng = Random.State.make [| args.seed; 0x5e7e |] in
  let manifest = Closed.load_manifest args.manifest in
  let bad = ref 0 in
  let fail why =
    incr bad;
    if !bad <= 20 then Printf.eprintf "perfbench: %s\n%!" why
  in
  (* Set-up, boot and warm, runs twice and the median is reported. An
     untraced run measures on the second daemon. A traced run measures
     half a window on each: the first untraced, the second sampling a
     trace for every request, so the difference is the tracing
     overhead. *)
  let window_s = if args.trace then args.seconds /. 2.0 else args.seconds in
  let setup_and_measure index =
    let t0 = if index = 0 then process_start else Linalg.Clock.now () in
    let d, warm_replies =
      boot_and_warm args ~traced:(args.trace && index = 1) ~index
    in
    let setup = Linalg.Clock.now () -. t0 in
    if index = 0 && not args.trace then begin
      shutdown d;
      (setup, None, warm_replies)
    end
    else begin
      let outcomes = run_window d (schedule rng ~seconds:window_s) ~seconds:window_s in
      let text = scrape d in
      shutdown d;
      (setup, Some (outcomes, text, top_heap_mb d), warm_replies)
    end
  in
  let s0, first, warm0 = setup_and_measure 0 in
  let s1, second, warm1 = setup_and_measure 1 in
  let setup_s = Stats.median [ s0; s1 ] in
  (* cold solves are deterministic: both daemons must agree *)
  List.iter2
    (fun ((kernel, _, model), a) (_, b) ->
      if solve_text a <> solve_text b then
        fail (Printf.sprintf "%s/%s: cold payloads differ between daemons" kernel model))
    warm0 warm1;
  let outcomes, text, peak_heap_mb = Option.get second in
  let m = check ~fail warm1 outcomes in
  let untraced =
    Option.map (fun (outcomes, _, _) -> check ~fail warm0 outcomes) first
  in
  (* reconcile the bench's own ledger with the daemon's scrape *)
  let scraped ?label name = prom_total text ~name ?label () in
  let n_hits = List.length (List.filter (fun o -> o.req.cls = Hit) outcomes) in
  let n_cold = List.length outcomes - n_hits in
  let shed = scraped "wisefuse_shed_total" in
  if shed > 0.0 then fail (Printf.sprintf "the daemon shed %.0f requests" shed);
  if scraped "wisefuse_cache_hits_total" <> float_of_int n_hits then
    fail "scraped cache hits disagree with the requests sent";
  if scraped "wisefuse_cache_misses_total"
     <> float_of_int (List.length warm_keys + n_cold)
  then fail "scraped cache misses disagree with the requests sent";
  let attempted =
    List.length warm0 + List.length warm1 + List.length outcomes
    + match untraced with Some u -> List.length u.results | None -> 0
  in
  let hits = ok_of_cls m Hit and colds = ok_of_cls m Cold in
  (* how late the generator wrote its lines *)
  let lateness =
    Stats.lateness ~slack_ms:1.0
      (List.map (fun o -> (o.req.due, o.sent)) outcomes)
  in
  print_endline
    (Obs.Json.to_string
       (Obs.Json.Obj
          [ ( "generator",
              Obs.Json.Obj
                [ ("sent", Obs.Json.Int lateness.sent);
                  ("late_p50_ms", Obs.Json.Float lateness.late_p50_ms);
                  ("late_max_ms", Obs.Json.Float lateness.late_max_ms);
                  ("late_over_1ms", Obs.Json.Int lateness.late_count) ] ) ]));
  (* the code the daemon served for every warm key, rebuilt *)
  let served =
    List.filter_map
      (fun (((kernel, _, model) as key), j) ->
        match member [ "result" ] j with
        | None -> None (* a failed warm-up, already counted *)
        | Some payload -> (
          let label = kernel ^ "/" ^ model in
          match served_ast key payload with
          | exception e ->
            fail (label ^ ": served schedule unusable: " ^ Printexc.to_string e);
            None
          | prog, ast, ndeps ->
            let t0 = Linalg.Clock.now () in
            let st = Ops.simulate prog ast in
            let sim_ms = Linalg.Clock.elapsed_ms ~since:t0 in
            let t1 = Linalg.Clock.now () in
            let c = Codegen.Cprint.program ~name:(Ops.c_name label) prog ast in
            let emit_ms = Linalg.Clock.elapsed_ms ~since:t1 in
            Some (label, st, sim_ms, c, emit_ms, ndeps, j)))
      warm1
  in
  if not args.trace then begin
    let hit_lat = List.map lat hits and cold_lat = List.map lat colds in
    (* the daemon's compiles, timed by the daemon, one at a time *)
    let wall_ms (_, j) = Option.map (fun us -> us /. 1e3) (num [ "serve"; "wall_us" ] j) in
    (* compiles with no lock wait: the warm-up compiles and the first
       compile of every cold pair (a pair's faster reply; the other one
       waited for it) *)
    let firsts =
      List.sort_uniq compare (List.map (fun ((o : outcome), _) -> o.req.due) colds)
      |> List.filter_map (fun due ->
             match
               List.filter_map
                 (fun ((o : outcome), j) -> if o.req.due = due then wall_ms ((), j) else None)
                 colds
             with
             | [ a; b ] -> Some (Float.min a b)
             | _ -> None)
    in
    let served_compiles =
      List.filter_map wall_ms (warm0 @ warm1) @ firsts
    in
    let within =
      List.length (List.filter (fun r -> lat r <= hit_limit_ms) hits)
      + List.length (List.filter (fun r -> lat r <= cold_limit_ms) colds)
    in
    let window_n = List.length outcomes in
    print_endline
      (result_line ~correct:(!bad = 0) ~attempted ~failed:(min attempted !bad)
         [ ("setup_s", setup_s, "s");
           ( "compiles_per_s",
             float_of_int (List.length served_compiles) /. (sum served_compiles /. 1e3),
             "1/s" );
           ("compile_p50_ms", pct ~what:"served compile" ~p:0.5 served_compiles, "ms");
           ("compile_p90_ms", pct ~what:"served compile" ~p:0.9 served_compiles, "ms");
           ( "sim_cycles_geomean",
             Stats.geomean
               (List.map (fun (_, (st : Machine.Perf.stats), _, _, _, _, _) -> float_of_int st.cycles) served),
             "cycles" );
           ("peak_heap_mb", peak_heap_mb, "MB");
           ("hit_p50_us", pct ~what:"hit" ~p:0.5 hit_lat *. 1e3, "us");
           ("hit_p99_us", pct ~what:"hit" ~p:0.99 hit_lat *. 1e3, "us");
           ("cold_p50_ms", pct ~what:"cold" ~p:0.5 cold_lat, "ms");
           ("cold_p90_ms", pct ~what:"cold" ~p:0.9 cold_lat, "ms");
           ("slo_share", float_of_int within /. float_of_int window_n, "share");
           ( "ok_share",
             float_of_int (attempted - min attempted !bad) /. float_of_int attempted,
             "share" ) ])
  end
  else begin
    let stage name = scraped ~label:(Printf.sprintf "stage=%S" name) "wisefuse_stage_duration_us_sum" in
    let solves = scraped ~label:{|stage="dep-analysis"|} "wisefuse_stage_duration_us_count" in
    let per_solve_ms us = if solves = 0.0 then 0.0 else us /. solves /. 1e3 in
    let cold_env name = sum (List.map (fun (_, j) -> Option.value (num [ "serve"; name ] j) ~default:0.0) colds) in
    let warm_total name = counter_total name warm1 in
    let schedule_us = stage "scheduling" +. stage "verification" in
    let pivots =
      warm_total "lp_pivots" +. warm_total "dual_pivots"
      +. cold_env "lp_pivots" +. cold_env "dual_pivots"
    in
    let ratio a b = if a +. b = 0.0 then 0.0 else a /. (a +. b) in
    let cold_spans name = List.filter_map (fun (_, j) -> span_us name j) colds in
    let request_us = cold_spans "serve.request" and schedule_span = cold_spans "serve.schedule" in
    let server_hit = List.map (fun (_, j) -> Option.get (num [ "serve"; "wall_us" ] j)) hits in
    let transport =
      List.map
        (fun (o, j) -> ((o.recv -. o.sent) *. 1e6) -. Option.get (num [ "serve"; "wall_us" ] j))
        hits
    in
    (* the hit stream replayed in-process against the served payloads *)
    let cache = Serve.Cache.create ~capacity:(List.length warm1) in
    List.iter
      (fun (_, j) ->
        Serve.Cache.add cache (Option.get (str [ "key" ] j))
          ~payload:(Option.get (member [ "result" ] j)) ~deps_fp:"" ~solve_ms:0.0)
      warm1;
    let replays = Replay.run cache (List.map (fun (o, _) -> o.req.line) hits) in
    if List.exists (fun s -> not s.Replay.hit) replays then
      fail "an in-process fingerprint missed the daemon's key";
    let replay_mean f = mean (List.map f replays) in
    let served_list f = List.map f served in
    let changed =
      List.length
        (List.filter
           (fun (label, _, _, c, _, _, _) ->
             List.assoc_opt label manifest <> Some (Digest.to_hex (Digest.string c)))
           served)
    in
    let base = hit_p50_us (Option.get untraced) in
    let icc_ms =
      mean
        (List.filter_map
           (fun ((_, _, model), j) ->
             if model = "icc" then Option.map (fun us -> us /. 1e3) (num [ "serve"; "wall_us" ] j)
             else None)
           warm1)
    in
    print_endline
      (result_line ~correct:(!bad = 0) ~attempted ~failed:(min attempted !bad)
         [ ("deps.analyze_ms", per_solve_ms (stage "dep-analysis"), "ms");
           ("deps.count", float_of_int (List.fold_left ( + ) 0 (served_list (fun (_, _, _, _, _, n, _) -> n))), "count");
           ("pluto.schedule_ms", per_solve_ms schedule_us, "ms");
           ("pluto.farkas_hit_ratio", ratio (warm_total "farkas_cache_hits") (warm_total "farkas_cache_misses"), "share");
           ("fusion.icc_ms", icc_ms, "ms");
           ( "fusion.degraded",
             float_of_int
               (List.length (List.filter (fun (_, j) -> not (is_primary j)) warm1)
               + List.length (List.filter (fun (_, j) -> not (is_primary j)) colds)),
             "count" );
           ( "fusion.partitions",
             sum
               (served_list (fun (_, _, _, _, _, _, j) ->
                    match Option.bind (member [ "result"; "partition" ] j) Obs.Json.to_list_opt with
                    | Some ps -> float_of_int (List.length (List.sort_uniq compare ps))
                    | None -> 0.0)),
             "count" );
           ("ilp.lp_solves", warm_total "lp_solves", "count");
           ("ilp.lp_pivots", warm_total "lp_pivots", "count");
           ("ilp.dual_pivots", warm_total "dual_pivots", "count");
           ("ilp.bb_nodes", warm_total "bb_nodes", "count");
           ("ilp.warm_ratio", ratio (warm_total "warm_starts") (warm_total "warm_fallbacks"), "share");
           ("ilp.lp_relax_solves", warm_total "lp_relax_solves", "count");
           ("ilp.dfp_fallbacks", warm_total "dfp_fallbacks", "count");
           ("ilp.ns_per_pivot", (if pivots = 0.0 then 0.0 else schedule_us *. 1e3 /. pivots), "ns");
           ("linalg.big_promotions", warm_total "big_promotions", "count");
           ("linalg.minor_words", 0.0, "words");
           ("codegen.scan_ms", per_solve_ms (stage "codegen"), "ms");
           ("codegen.emit_ms", mean (served_list (fun (_, _, _, _, ms, _, _) -> ms)), "ms");
           ("codegen.c_bytes", float_of_int (List.fold_left ( + ) 0 (served_list (fun (_, _, _, c, _, _, _) -> String.length c))), "bytes");
           ("codegen.changed_outputs", float_of_int changed, "count");
           ("analysis.certify_ms", per_solve_ms (stage "analysis"), "ms");
           ("machine.simulate_ms", mean (served_list (fun (_, _, ms, _, _, _, _) -> ms)), "ms");
           ( "machine.barriers",
             float_of_int
               (List.fold_left ( + ) 0
                  (served_list (fun (_, (st : Machine.Perf.stats), _, _, _, _, _) -> st.barriers))),
             "count" );
           ("serve.parse_us", replay_mean (fun s -> s.parse_us), "us");
           ("serve.build_us", replay_mean (fun s -> s.build_us), "us");
           ("serve.fingerprint_us", replay_mean (fun s -> s.fingerprint_us), "us");
           ("serve.lookup_us", replay_mean (fun s -> s.lookup_us), "us");
           ("serve.serialize_us", replay_mean (fun s -> s.serialize_us), "us");
           ("serve.resp_bytes", mean (List.map (fun (o, _) -> float_of_int (String.length o.reply)) hits), "bytes");
           ("serve.server_us", Stats.median server_hit, "us");
           ("serve.transport_us", Stats.median transport, "us");
           ("serve.lock_wait_ms", (sum request_us -. sum schedule_span) /. float_of_int (max 1 (List.length colds)) /. 1e3, "ms");
           ("serve.solve_ms", mean schedule_span /. 1e3, "ms");
           ( "serve.hit_ratio",
             ratio (scraped "wisefuse_cache_hits_total") (scraped "wisefuse_cache_misses_total"),
             "share" );
           ("serve.coalesced", scraped ~label:{|outcome="coalesced"|} "wisefuse_serve_outcomes_total", "count");
           ("serve.shed", shed, "count");
           ("serve.evictions", scraped "wisefuse_cache_evictions_total", "count");
           ("gen.late_ms", lateness.late_max_ms, "ms");
           ("obs.trace_overhead", (hit_p50_us m -. base) /. base, "share") ])
  end
