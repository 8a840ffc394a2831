(* Observability tests: the shared JSON writer/parser, the span tracer
   and its self-time reconstruction (the pipeline's stage timer),
   Chrome trace-event export and validation, trace determinism, and
   the zero-effect guarantee of the disabled (null) sink. *)

let swim () = Kernels.Swim.program ~n:12 ()
let advect () = Kernels.Advect.program ~n:12 ()

(* a fresh, fully reset pipeline run; returns the optimized outcome *)
let run_pipeline prog =
  Linalg.Counters.reset ();
  Pluto.Farkas.reset_cache ();
  Fusion.Model.optimize Fusion.Model.Wisefuse prog

let sched_string (opt : Fusion.Model.optimized) =
  match opt.Fusion.Model.scheduler with
  | Some res ->
    Format.asprintf "%a" (Pluto.Sched.pp res.Pluto.Scheduler.prog)
      res.Pluto.Scheduler.sched
  | None -> "none"

(* --- Json ---------------------------------------------------------------- *)

let test_json_escaping () =
  let open Obs.Json in
  Alcotest.(check string)
    "quotes and backslashes" {|"a\"b\\c"|}
    (to_string (Str {|a"b\c|}));
  Alcotest.(check string)
    "control characters" {|"tab\there\nand\u0001"|}
    (to_string (Str "tab\there\nand\001"));
  Alcotest.(check string) "integral float" "3.0" (to_string (Float 3.0));
  Alcotest.(check string) "non-finite degrades to null" "null"
    (to_string (Float Float.infinity));
  Alcotest.(check string)
    "object" {|{"a": 1, "b": [true, null]}|}
    (to_string (Obj [ ("a", Int 1); ("b", List [ Bool true; Null ]) ]))

let test_json_roundtrip () =
  let open Obs.Json in
  let values =
    [
      Null;
      Bool false;
      Int (-42);
      Float 0.1;
      Float 1e20;
      Str "plain";
      Str {|quo"te back\slash new
line tab	end|};
      List [ Int 1; Str "x"; Obj [] ];
      Obj
        [
          ("nested", Obj [ ("deep", List [ Float 2.5; Bool true ]) ]);
          ("empty", List []);
        ];
    ]
  in
  List.iter
    (fun v ->
      match parse (to_string v) with
      | Ok v' -> Alcotest.(check bool) (to_string v) true (v = v')
      | Error e -> Alcotest.fail e)
    values;
  (* pretty printer parses back too *)
  let v = Obj [ ("k", List [ Int 1; Int 2 ]); ("s", Str "x") ] in
  (match parse (to_string_pretty v) with
  | Ok v' -> Alcotest.(check bool) "pretty roundtrip" true (v = v')
  | Error e -> Alcotest.fail e);
  (* unicode escape decodes to UTF-8 *)
  (match parse {|"é"|} with
  | Ok (Str s) -> Alcotest.(check string) "utf8" "\xc3\xa9" s
  | _ -> Alcotest.fail "unicode escape");
  List.iter
    (fun bad ->
      match parse bad with
      | Ok _ -> Alcotest.fail ("accepted garbage: " ^ bad)
      | Error _ -> ())
    [ "{"; "[1,]"; {|{"a" 1}|}; "tru"; {|"unterminated|}; "1 2" ]

(* --- trace spans and self-times ------------------------------------------ *)

let test_span_tree () =
  let _, events =
    Obs.Trace.with_recording (fun () ->
        Obs.Trace.span ~cat:"stage" "outer" (fun () ->
            Obs.Trace.span ~cat:"stage" "inner" (fun () -> ());
            Obs.Trace.instant ~cat:"x" "mark"))
  in
  Obs.Trace.disable ();
  Alcotest.(check int) "4 span events + 1 instant" 5 (List.length events);
  (* validate the export too *)
  (match Obs.Export.validate (Obs.Export.chrome_trace events) with
  | Ok n -> Alcotest.(check int) "validated count" 6 n (* + metadata *)
  | Error e -> Alcotest.fail e);
  (* exception still closes the span *)
  let _, events =
    Obs.Trace.with_recording (fun () ->
        try Obs.Trace.span ~cat:"stage" "boom" (fun () -> failwith "x")
        with Failure _ -> ())
  in
  Obs.Trace.disable ();
  match Obs.Export.validate (Obs.Export.chrome_trace events) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e

let test_validate_rejects () =
  let open Obs.Json in
  let ev ?(ph = "B") ?(ts = 0.0) name =
    Obj [ ("name", Str name); ("ph", Str ph); ("ts", Float ts) ]
  in
  let trace evs = Obj [ ("traceEvents", List evs) ] in
  let expect_error what t =
    match Obs.Export.validate t with
    | Ok _ -> Alcotest.fail ("accepted " ^ what)
    | Error _ -> ()
  in
  expect_error "non-object" (List []);
  expect_error "unbalanced B" (trace [ ev "a" ]);
  expect_error "unbalanced E" (trace [ ev ~ph:"E" "a" ]);
  expect_error "mismatched names"
    (trace [ ev "a"; ev ~ph:"E" "b" ]);
  expect_error "non-monotone ts"
    (trace [ ev ~ts:2.0 "a"; ev ~ph:"E" ~ts:1.0 "a" ]);
  expect_error "unknown phase" (trace [ ev ~ph:"Q" "a" ]);
  match Obs.Export.validate (trace [ ev "a"; ev ~ph:"E" ~ts:1.0 "a" ]) with
  | Ok 2 -> ()
  | Ok n -> Alcotest.failf "expected 2 events, got %d" n
  | Error e -> Alcotest.fail e

(* --- determinism and the null sink --------------------------------------- *)

let structure events =
  List.map
    (fun (e : Obs.Trace.event) ->
      ( e.Obs.Trace.ph,
        e.Obs.Trace.name,
        e.Obs.Trace.cat,
        List.map (fun (k, v) -> (k, Obs.Json.to_string v)) e.Obs.Trace.args ))
    events

let traced_pipeline prog =
  Linalg.Counters.reset ();
  Pluto.Farkas.reset_cache ();
  let opt, events = Obs.Trace.with_recording (fun () -> run_pipeline prog) in
  Obs.Trace.disable ();
  (opt, events)

let test_determinism () =
  List.iter
    (fun prog ->
      let o1, e1 = traced_pipeline (prog ()) in
      let o2, e2 = traced_pipeline (prog ()) in
      Alcotest.(check int) "same event count" (List.length e1)
        (List.length e2);
      Alcotest.(check bool)
        "same span/decision structure modulo timestamps" true
        (structure e1 = structure e2);
      Alcotest.(check string) "same schedule" (sched_string o1)
        (sched_string o2))
    [ swim; advect ]

let test_null_sink_no_effect () =
  (* tracing off: no events appear, no counters change, and the
     schedule is byte-identical to a traced run's *)
  Obs.Trace.disable ();
  Obs.Trace.reset ();
  let opt_off = run_pipeline (swim ()) in
  let counters_off = Linalg.Counters.all_counters () in
  Alcotest.(check int) "null sink records nothing" 0 (Obs.Trace.event_count ());
  let opt_on, events = traced_pipeline (swim ()) in
  let counters_on = Linalg.Counters.all_counters () in
  Alcotest.(check bool) "traced run recorded events" true (events <> []);
  Alcotest.(check string) "schedules byte-identical" (sched_string opt_off)
    (sched_string opt_on);
  Alcotest.(check bool) "tracing adds no counters" true
    (counters_off = counters_on)

let test_multi_domain_capture () =
  (* Concurrent captures on separate domains must each harvest exactly
     their own events — none lost, none leaked from a sibling.  Under
     the old design (one global sink behind plain refs) concurrent
     emitters raced the shared list head and dropped events; the
     per-domain sinks make this deterministic. *)
  let domains = 4 and per = 200 in
  let worker d () =
    let (), events =
      Obs.Trace.capture (fun () ->
          for i = 1 to per do
            Obs.Trace.instant ~cat:"md" (Printf.sprintf "d%d-%d" d i)
          done)
    in
    events
  in
  (* an outer recording on the test's own domain must survive the
     concurrent captures untouched *)
  Obs.Trace.enable ();
  Obs.Trace.instant ~cat:"md" "outer";
  let results =
    List.init domains (fun d -> Domain.spawn (worker d))
    |> List.map Domain.join
  in
  List.iteri
    (fun d events ->
      Alcotest.(check int)
        (Printf.sprintf "domain %d: no event lost" d)
        per (List.length events);
      let prefix = Printf.sprintf "d%d-" d in
      let own (e : Obs.Trace.event) =
        String.length e.Obs.Trace.name >= String.length prefix
        && String.sub e.Obs.Trace.name 0 (String.length prefix) = prefix
      in
      Alcotest.(check bool)
        (Printf.sprintf "domain %d: only its own events" d)
        true (List.for_all own events))
    results;
  Alcotest.(check int) "outer sink untouched" 1 (Obs.Trace.event_count ());
  Obs.Trace.disable ();
  Alcotest.(check bool) "all sinks off again" false (Obs.Trace.on ())

let test_stage_spans () =
  (* stage spans are the only stage timer: a recorded scheduler run
     opens exactly its three stages, in pipeline order, and their
     exclusive self times sum to no more than the run's wall time *)
  Linalg.Counters.reset ();
  Pluto.Farkas.reset_cache ();
  let cfg = Fusion.Model.scheduler_config Fusion.Model.Wisefuse in
  let prog = swim () in
  let wall, events =
    Obs.Trace.capture (fun () ->
        let t0 = Linalg.Clock.now () in
        ignore (Pluto.Scheduler.run cfg prog);
        Linalg.Clock.now () -. t0)
  in
  let opened =
    List.filter_map
      (fun (e : Obs.Trace.event) ->
        if e.ph = Obs.Trace.B && e.cat = "stage" then Some e.name else None)
      events
  in
  Alcotest.(check (list string))
    "stages in pipeline order"
    [ "dep-analysis"; "scheduling"; "verification" ]
    opened;
  let stages = Obs.Trace.summary ~cat:"stage" events in
  Alcotest.(check (list string))
    "one summary row per stage"
    [ "dep-analysis"; "scheduling"; "verification" ]
    (List.sort compare (List.map (fun (n, _, _) -> n) stages));
  let self_sum = List.fold_left (fun a (_, self, _) -> a +. self) 0.0 stages in
  if self_sum > wall +. 1e-6 then
    Alcotest.failf "stage self times sum to %.6fs > %.6fs wall" self_sum wall

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "escaping" `Quick test_json_escaping;
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
        ] );
      ( "trace",
        [
          Alcotest.test_case "span tree" `Quick test_span_tree;
          Alcotest.test_case "validate rejects" `Quick test_validate_rejects;
          Alcotest.test_case "multi-domain capture" `Quick
            test_multi_domain_capture;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "null sink no effect" `Quick
            test_null_sink_no_effect;
          Alcotest.test_case "stage spans" `Quick test_stage_spans;
        ] );
    ]
