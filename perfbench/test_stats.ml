(* Unit tests of the benchmark's statistics helpers. Expected quartiles
   are what Python's statistics.quantiles(xs, n=4) returns. *)

let close = Alcotest.float 1e-9

let test_percentile_rule () =
  let xs n = List.init n (fun i -> float_of_int (i + 1)) in
  Alcotest.(check int) "ten beyond a p90 of 100" 10 (Stats.samples_beyond ~p:0.9 100);
  Alcotest.(check int) "nine beyond a p90 of 99" 9 (Stats.samples_beyond ~p:0.9 99);
  Alcotest.(check (option (pair close int)))
    "p90 of 100 samples, with its count" (Some (90.0, 100))
    (Stats.percentile ~p:0.9 (xs 100));
  Alcotest.(check (option (pair close int)))
    "p90 of 99 samples is not reported" None
    (Stats.percentile ~p:0.9 (xs 99));
  Alcotest.(check (option (pair close int)))
    "p99 needs 1000 samples" None
    (Stats.percentile ~p:0.99 (xs 999));
  Alcotest.(check (option (pair close int)))
    "p99 of 1000 samples" (Some (990.0, 1000))
    (Stats.percentile ~p:0.99 (xs 1000));
  Alcotest.(check (option (pair close int)))
    "median of 20 unordered samples" (Some (10.0, 20))
    (Stats.percentile ~p:0.5 (List.rev (xs 20)));
  Alcotest.(check (option (pair close int)))
    "empty" None (Stats.percentile ~p:0.5 [])

let test_median () =
  Alcotest.check close "odd" 3.0 (Stats.median [ 5.0; 1.0; 3.0 ]);
  Alcotest.check close "even" 2.5 (Stats.median [ 4.0; 1.0; 3.0; 2.0 ])

let test_geomean () =
  Alcotest.check close "1, 4, 16" 4.0 (Stats.geomean [ 1.0; 4.0; 16.0 ]);
  Alcotest.check close "single" 7.5 (Stats.geomean [ 7.5 ]);
  Alcotest.check_raises "zero" (Invalid_argument "Stats.geomean: non-positive value")
    (fun () -> ignore (Stats.geomean [ 2.0; 0.0 ]));
  Alcotest.check_raises "empty" (Invalid_argument "Stats.geomean: empty")
    (fun () -> ignore (Stats.geomean []))

let test_quartiles () =
  let q xs = Stats.quartiles xs in
  Alcotest.(check (pair close close)) "1..10" (2.75, 8.25)
    (q (List.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.(check (pair close close)) "1..4" (1.25, 3.75) (q [ 4.0; 2.0; 1.0; 3.0 ]);
  Alcotest.(check (pair close close)) "two values" (0.0, 6.0) (q [ 5.0; 1.0 ]);
  Alcotest.(check (pair close close)) "seven values" (2.0, 8.0)
    (q [ 3.0; 1.5; 9.25; 4.0; 7.5; 2.0; 8.0 ]);
  Alcotest.check close "spread of 1..10" 1.0
    (Stats.spread (List.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.check close "no spread" 0.0 (Stats.spread [ 2.0; 2.0; 2.0; 2.0 ])

let test_lateness () =
  let l =
    Stats.lateness ~slack_ms:1.0
      [ (0.0, 0.0); (1.0, 1.002); (2.0, 1.9); (3.0, 3.0005) ]
  in
  Alcotest.check close "median lateness (early counts as 0)" 0.25 l.late_p50_ms;
  Alcotest.(check (float 1e-6)) "max lateness" 2.0 l.late_max_ms;
  Alcotest.(check int) "late beyond the slack" 1 l.late_count;
  Alcotest.(check int) "sent" 4 l.sent;
  (* a request due at 1 s and answered at 1.5 s waited 500 ms, however
     late the generator sent it *)
  Alcotest.check close "latency from due" 500.0
    (Stats.latency_ms ~due:1.0 ~recv:1.5)

let () =
  Alcotest.run "perfbench"
    [ ( "stats",
        [ Alcotest.test_case "percentile rule" `Quick test_percentile_rule;
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "geometric mean" `Quick test_geomean;
          Alcotest.test_case "quartile spread" `Quick test_quartiles;
          Alcotest.test_case "open-loop lateness" `Quick test_lateness ] ) ]
