(* The BENCH_*.json records and the one gate evaluator over them.

   Every experiment writes the same record: a label, the smoke flag,
   the experiment name, the host and a flat map of metrics. A metric is
   a number with a unit and a kind: [Exact] when the same commit
   reproduces it on any host (work counters, the counts the driver
   fixes), [Timed] otherwise. The drivers build their results as nested
   JSON objects; [record] flattens them to dotted names
   ("swim.lp_pivots", "telemetry.ledger_reconciled", booleans as 0/1).

   Every `--check` is [check]: it evaluates the experiment's gate table
   over the newest record in its file and prints one line per row. A
   row names a metric, a direction and a bound: a constant, k times
   another metric of the same record, or k times the same metric of the
   baseline (the newest earlier full-scale record of the experiment).
   A table with [baseline = true] also requires every exact metric to
   equal the baseline's; timed baseline rows are compared only when
   both records come from the same host. A metric the gate names that
   the checked record lacks, or holds as a non-finite number, fails
   its row. *)

type kind = Exact | Timed

type metric = { value : float; unit : string; kind : kind }

type record = {
  label : string;
  smoke : bool;
  experiment : string;
  host : string;
  metrics : (string * metric) list;
}

let schema = 2

let file_of = function
  | "pipeline" | "analyze" -> "BENCH_pipeline.json"
  | experiment -> Printf.sprintf "BENCH_%s.json" experiment

(* --- building a record from nested fields ------------------------------- *)

let unit_of name (v : Obs.Json.t) =
  let ends = Filename.check_suffix name in
  match v with
  | Bool _ -> "bool"
  | _ when ends "_ms" -> "ms"
  | _ when ends "_us" -> "us"
  | _ when ends "_s" -> "s"
  | _ when ends "hit_rate" || ends "_share" -> "share"
  | _ when ends "speedup_p50" -> "x"
  | _ -> "count"

(* Soak runs four domains against one server, so only what its driver
   fixes up front is reproducible; elsewhere every count, share and
   flag is, and only times are not. *)
let kind_of experiment name unit =
  let exact =
    match experiment with
    | "soak" ->
      List.mem name
        [ "domains"; "requests"; "hostile_lines"; "deadline.deadline_ms";
          "deadline.bound_ms" ]
    | _ -> List.mem unit [ "count"; "bool"; "share" ]
  in
  if exact then Exact else Timed

let rec flatten prefix acc (v : Obs.Json.t) =
  let leaf x = (prefix, x, unit_of prefix v) :: acc in
  match v with
  | Obj fields ->
    List.fold_left
      (fun acc (k, v) ->
        flatten (if prefix = "" then k else prefix ^ "." ^ k) acc v)
      acc fields
  | Int i -> leaf (float_of_int i)
  | Float f -> leaf f
  | Bool b -> leaf (if b then 1.0 else 0.0)
  | Null -> leaf Float.nan
  | Str _ | List _ -> invalid_arg ("Bench_check.record: " ^ prefix)

let record ~experiment ~label ~smoke ~host fields =
  let metrics =
    List.rev_map
      (fun (name, value, unit) ->
        (name, { value; unit; kind = kind_of experiment name unit }))
      (flatten "" [] (Obs.Json.Obj fields))
  in
  { label; smoke; experiment; host; metrics }

(* --- the record files ----------------------------------------------------- *)

let kind_name = function Exact -> "exact" | Timed -> "timed"

let metric_json m =
  let open Obs.Json in
  let value =
    if Float.is_integer m.value && Float.abs m.value < 1e15 then
      Int (int_of_float m.value)
    else Float m.value
  in
  Obj [ ("value", value); ("unit", Str m.unit); ("kind", Str (kind_name m.kind)) ]

(* A record read back; [Failure] names what is missing. *)
let of_json j =
  let open Obs.Json in
  let get conv f j =
    match Option.bind (member f j) conv with
    | Some v -> v
    | None -> failwith ("no " ^ f)
  in
  let metric (name, m) =
    let value =
      match member "value" m with
      | Some Null -> Float.nan
      | _ -> get to_float_opt "value" m
    in
    let kind =
      match get to_string_opt "kind" m with
      | "exact" -> Exact
      | "timed" -> Timed
      | k -> failwith (Printf.sprintf "%s: kind %S" name k)
    in
    (name, { value; unit = get to_string_opt "unit" m; kind })
  in
  let metrics =
    match member "metrics" j with
    | Some (Obj ms) -> List.map metric ms
    | _ -> failwith "no metrics"
  in
  { label = get to_string_opt "label" j;
    smoke = get to_bool_opt "smoke" j;
    experiment = get to_string_opt "experiment" j;
    host = get to_string_opt "host" j;
    metrics }

let read_runs file =
  if not (Sys.file_exists file) then []
  else
    let ic = open_in_bin file in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    let fail msg = failwith (Printf.sprintf "%s: %s" file msg) in
    match Obs.Json.parse s with
    | Error msg -> fail msg
    | Ok doc -> (
      match Option.bind (Obs.Json.member "runs" doc) Obs.Json.to_list_opt with
      | None -> fail {|no "runs" array|}
      | Some runs ->
        List.mapi
          (fun i r ->
            try of_json r
            with Failure msg -> fail (Printf.sprintf "run %d: %s" i msg))
          runs)

(* Pretty enough to diff: one line per metric. *)
let render runs =
  let b = Buffer.create 65536 in
  let str s = Obs.Json.to_string (Obs.Json.Str s) in
  let sep i = if i = 0 then "" else "," in
  Printf.bprintf b "{\n  \"schema\": %d,\n  \"runs\": [" schema;
  List.iteri
    (fun i r ->
      Printf.bprintf b
        "%s\n    {\n      \"label\": %s,\n      \"smoke\": %b,\n      \
         \"experiment\": %s,\n      \"host\": %s,\n      \"metrics\": {"
        (sep i) (str r.label) r.smoke (str r.experiment) (str r.host);
      List.iteri
        (fun j (n, m) ->
          Printf.bprintf b "%s\n        %s: %s" (sep j) (str n)
            (Obs.Json.to_string (metric_json m)))
        r.metrics;
      Buffer.add_string b "\n      }\n    }")
    runs;
  Buffer.add_string b "\n  ]\n}\n";
  Buffer.contents b

(* Append [r] to [file], replacing an earlier record of the same label
   and experiment (a re-run, e.g. a restarted CI job, updates its record
   in place). *)
let append_run file r =
  let kept =
    List.filter
      (fun o -> not (o.label = r.label && o.experiment = r.experiment))
      (read_runs file)
  in
  let oc = open_out_bin file in
  output_string oc (render (kept @ [ r ]));
  close_out oc;
  Printf.printf "  wrote %s (label %S)\n%!" file r.label

(* --- gate tables ---------------------------------------------------------- *)

type op = Le | Ge | Eq

type bound =
  | Const of float
  | Times of float * string  (** k x another metric of the same record *)
  | Baseline of float  (** k x this metric in the baseline record *)

type row = { metric : string; op : op; bound : bound; full_only : bool }

type table = { rows : row list; baseline : bool }

let le ?(full_only = false) metric bound = { metric; op = Le; bound; full_only }
let ge ?(full_only = false) metric bound = { metric; op = Ge; bound; full_only }

let pipeline_kernels = [ "swim"; "gemsfdtd"; "advect"; "gemver" ]
let scale_shapes = [ "chain"; "stencil"; "blocked" ]

let gates =
  [ ( "pipeline",
      { baseline = true;
        rows =
          List.map (fun k -> le (k ^ ".wall_ms") (Baseline 1.25)) pipeline_kernels
      } );
    ( "serve",
      { baseline = false;
        rows =
          [ (* every request past a key's first touch can hit; 10% slack
               for eviction *)
            ge "hits" (Times (0.9, "repeat_requests"));
            le "hit_p99_us" (Times (1.0, "cold_p50_us"));
            ge "cold_p50_us" (Times (10.0, "hit_p50_us"));
            (* the daemon's histograms tell the driver's story: hits and
               colds separate, and the bucketed p50s agree with the
               sampled ones within a generous 4x *)
            le "telemetry.hist_hit_p50_us" (Times (1.0, "telemetry.hist_cold_p50_us"));
            le "telemetry.hist_hit_p50_us" (Times (4.0, "hit_p50_us"));
            le "telemetry.hist_cold_p50_us" (Times (4.0, "cold_p50_us"));
            ge "telemetry.reconciled" (Const 1.0);
            ge "zero_solver_hits" (Const 1.0) ] } );
    ( "soak",
      { baseline = false;
        rows =
          [ le "crashes" (Const 0.0);
            le "untyped" (Const 0.0);
            ge "fault_share" (Const 0.10);
            le "deadline.overrun_p99_ms" (Times (1.0, "deadline.bound_ms"));
            ge "deadline.samples" (Const 1.0);
            ge "breaker.trips" (Const 1.0);
            ge "breaker.rejects" (Const 1.0);
            ge "recovered" (Const 1.0);
            ge "telemetry.scrapes" (Const 1.0);
            ge "telemetry.monotone" (Const 1.0);
            ge "telemetry.ledger_reconciled" (Const 1.0);
            ge "warm_identity" (Const 1.0);
            ge "cold_identity" (Const 1.0);
            ge ~full_only:true "requests" (Const 2000.0);
            ge ~full_only:true "domains" (Const 2.0) ] } );
    ( "scale",
      { baseline = false;
        rows =
          (* at each shape's largest size (small sizes are millisecond
             noise; stencil legitimately ties), and over the sweep *)
          List.map
            (fun s ->
              le (s ^ "/largest.lp-dfp.wall_ms")
                (Times (1.25, s ^ "/largest.ilp.wall_ms")))
            scale_shapes
          @ [ le "total.lp-dfp.wall_ms" (Times (1.0, "total.ilp.wall_ms"));
              le "total.lp-dfp.bb_nodes" (Const 0.0) ] } ) ]

(* --- the evaluator -------------------------------------------------------- *)

type verdict =
  | Met of float * float  (** value, bound *)
  | Violated of float * float
  | Unusable of string  (** the record cannot answer the row: fails *)
  | Skipped of string

let failed = function
  | Violated _ | Unusable _ -> true
  | Met _ | Skipped _ -> false

let finite r name =
  match List.assoc_opt name r.metrics with
  | Some m when Float.is_finite m.value -> Some m
  | _ -> None

let holds op v b =
  match op with Le -> v <= b | Ge -> v >= b | Eq -> v = b

let eval_row ?baseline r row =
  if row.full_only && r.smoke then Skipped "full scale only"
  else
    match finite r row.metric with
    | None -> Unusable (row.metric ^ " missing or not finite")
    | Some m -> (
      let bound =
        match row.bound with
        | Const c -> Ok c
        | Times (k, other) -> (
          match finite r other with
          | Some o -> Ok (k *. o.value)
          | None -> Error (Unusable (other ^ " missing or not finite")))
        | Baseline k -> (
          match Option.map (fun b -> (b, finite b row.metric)) baseline with
          | None | Some (_, None) -> Error (Skipped "no baseline")
          | Some (b, _) when m.kind = Timed && b.host <> r.host ->
            Error (Skipped ("baseline from host " ^ b.host))
          | Some (_, Some bm) -> Ok (k *. bm.value))
      in
      match bound with
      | Error v -> v
      | Ok b -> if holds row.op m.value b then Met (m.value, b) else Violated (m.value, b))

(* The table's rows, then, against a baseline, one equality row per
   exact metric of the record. *)
let rows table r =
  table.rows
  @
  if not table.baseline then []
  else
    List.filter_map
      (fun (metric, m) ->
        if m.kind = Exact then
          Some { metric; op = Eq; bound = Baseline 1.0; full_only = false }
        else None)
      r.metrics

let evaluate table ?baseline r =
  List.map (fun row -> (row, eval_row ?baseline r row)) (rows table r)

let describe (row, v) =
  let op = match row.op with Le -> "<=" | Ge -> ">=" | Eq -> "=" in
  let bound =
    match row.bound with
    | Const c -> Printf.sprintf "%g" c
    | Times (k, other) -> Printf.sprintf "%g x %s" k other
    | Baseline 1.0 -> "baseline"
    | Baseline k -> Printf.sprintf "%g x baseline" k
  in
  let against = if row.op = Eq then "baseline" else "bound" in
  let outcome =
    match v with
    | Met (x, b) -> Printf.sprintf "%g (%s %g)  ok" x against b
    | Violated (x, b) -> Printf.sprintf "%g (%s %g)  FAIL" x against b
    | Unusable why -> why ^ "  FAIL"
    | Skipped why -> why ^ "; skipped"
  in
  let scale = if row.full_only then " (full scale)" else "" in
  Printf.sprintf "%-60s %s" (String.concat " " [ row.metric; op; bound ] ^ scale) outcome

(* The one gate: [experiment]'s table over the newest record of
   [experiment] in [file], against the newest earlier full-scale record
   when the table has a baseline. Prints one line per row; true when no
   row fails. *)
let check ?file experiment =
  let file = Option.value file ~default:(file_of experiment) in
  let table = List.assoc experiment gates in
  let runs = List.filter (fun r -> r.experiment = experiment) (read_runs file) in
  match List.rev runs with
  | [] ->
    Printf.printf "  no %s record in %s\n" experiment file;
    false
  | r :: older ->
    Printf.printf "  record: %S (smoke %b, host %s)\n" r.label r.smoke r.host;
    let baseline =
      if table.baseline then List.find_opt (fun b -> not b.smoke) older else None
    in
    Option.iter
      (fun b -> Printf.printf "  baseline: %S (host %s)\n" b.label b.host)
      baseline;
    let results = evaluate table ?baseline r in
    List.iter (fun res -> Printf.printf "  %s\n" (describe res)) results;
    let ok = not (List.exists (fun (_, v) -> failed v) results) in
    Printf.printf "  %s: %s gate\n%!" (if ok then "OK" else "FAIL") experiment;
    ok
