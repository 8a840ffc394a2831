(* The repository benchmark. One run measures one workload for a given
   time and prints, as its last stdout line, one JSON object with the
   keys correct, attempted, failed and metrics. See README.md in this
   directory for the workloads, the metrics and how to run it. *)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "digests" ] -> Closed.print_manifest ()
  | [ "heap"; label ] -> Closed.print_heap label
  | argv ->
    let args = Common.parse_args argv in
    if args.workload = "serve" then Serve_load.run args
    else Closed.compile_workload args
