(* Arguments, the result line and the helpers shared by the workloads. *)

let process_start = Linalg.Clock.now ()

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  cli : string;  (* path of wisefuse_cli.exe, for the serve workload *)
  manifest : string;  (* emitted-C digests recorded at the seed commit *)
  out : string;  (* directory for the run's trace file *)
}

let usage () =
  prerr_endline
    "usage: main.exe --workload registry|scopgen|serve --seed N --seconds S \
     --trace 0|1 --cli PATH --manifest PATH --out DIR\n\
    \       main.exe digests   (print the emitted-C digest manifest)";
  exit 2

let parse_args argv =
  let tbl = Hashtbl.create 8 in
  let rec go = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      Hashtbl.replace tbl (String.sub k 2 (String.length k - 2)) v;
      go rest
    | [] -> ()
    | _ -> usage ()
  in
  go argv;
  let get k = match Hashtbl.find_opt tbl k with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some i -> i | None -> usage () in
  let workload = get "workload" in
  if not (List.mem workload [ "registry"; "scopgen"; "serve" ]) then usage ();
  if int "seconds" < 1 then usage ();
  {
    workload;
    seed = int "seed";
    seconds = float_of_int (int "seconds");
    trace = (match get "trace" with "0" -> false | "1" -> true | _ -> usage ());
    cli = get "cli";
    manifest = get "manifest";
    out = get "out";
  }

(* --- the result line ---------------------------------------------------- *)

type metric = string * float * string

let result_line ~correct ~attempted ~failed (metrics : metric list) =
  let open Obs.Json in
  to_string
    (Obj
       [ ("correct", Bool correct); ("attempted", Int attempted);
         ("failed", Int failed);
         ( "metrics",
           Obj
             (List.map
                (fun (name, v, u) ->
                  (name, Obj [ ("value", Float v); ("unit", Str u) ]))
                metrics) ) ])

(* A percentile that the reporting rule does not support aborts the run:
   the workload is sized so that it never happens. *)
let pct ~what ~p xs =
  match Stats.percentile ~p xs with
  | Some (v, _) -> v
  | None ->
    Printf.eprintf "perfbench: %s: p%g unsupported by %d samples\n" what
      (p *. 100.) (List.length xs);
    exit 3

let sum = List.fold_left ( +. ) 0.0

let mean = function
  | [] -> 0.0
  | xs -> sum xs /. float_of_int (List.length xs)

let shuffle rng xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

(* latency limits of the two request classes *)
let hit_limit_ms = 2.0
let cold_limit_ms = 3000.0

let write_file path text =
  let oc = open_out path in
  output_string oc text;
  close_out oc

