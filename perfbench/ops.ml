(* The compile operations of the closed-loop workloads, their traced
   (decomposed) twin, and the correctness oracle run on their output. *)

type spec = {
  label : string;  (* unique operation key, e.g. "swim/wisefuse" *)
  kernel : string;  (* registry kernel, or Scopgen shape name *)
  size : int;  (* registry model size, or Scopgen statement count *)
  model : Fusion.Model.t;
  engine : Pluto.Engine.choice;
  prog : Scop.Program.t;
}

let registry_specs () =
  List.concat_map
    (fun (e : Kernels.Registry.entry) ->
      let prog = Kernels.Registry.build e in
      List.map
        (fun m ->
          {
            label = e.name ^ "/" ^ Fusion.Model.name m;
            kernel = e.name;
            size = e.model_size;
            model = m;
            engine = Pluto.Engine.Auto;
            prog;
          })
        Fusion.Model.all)
    Kernels.Registry.all

(* Large generated SCoPs: a few wide tableaux per level, so the cost per
   pivot (not the number of solves) dominates. The sizes are half of
   the ROADMAP's chain/100, blocked/50, stencil/25 so that one run
   completes the 100 compiles a p90 with ten samples beyond it needs. *)
let scopgen_shapes =
  [ (Kernels.Scopgen.Chain, 50); (Kernels.Scopgen.Blocked, 25);
    (Kernels.Scopgen.Stencil, 12) ]

let scopgen_engines = [ Pluto.Engine.Ilp; Pluto.Engine.Lp_dfp ]

let scopgen_specs () =
  List.concat_map
    (fun (shape, stmts) ->
      let prog = Kernels.Scopgen.generate shape ~stmts in
      let kernel = Kernels.Scopgen.shape_name shape in
      List.map
        (fun kind ->
          {
            label =
              Printf.sprintf "%s-%d/%s" kernel stmts
                (Pluto.Engine.kind_name kind);
            kernel;
            size = stmts;
            model = Fusion.Model.Wisefuse;
            engine = Pluto.Engine.Fixed kind;
            prog;
          })
        scopgen_engines)
    scopgen_shapes

(* C function name of an operation's emitted program *)
let c_name label =
  String.map
    (function ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9') as c -> c | _ -> '_')
    label

(* The exact and timed facts of one compile; the AST and the C text are
   returned beside it so that only the runs that need them keep them. *)
type outcome = {
  wall_ms : float;
  c_digest : string;
  c_bytes : int;
  rung : string;  (* resilience rung, "structural" for icc *)
  partition : int array;  (* outermost fusion partition per statement *)
  deps_count : int;
  wisecheck_errors : int;
  counters : (string * int) list;  (* Linalg.Counters deltas *)
  minor_words : float;
}

let counter_delta before after =
  List.map2 (fun (n, a) (_, b) -> (n, b - a)) before after

let partition_of_icc (r : Icc.Icc_model.result) =
  let part = Array.make (Array.length r.prog.Scop.Program.stmts) 0 in
  List.iteri
    (fun idx (nst : Icc.Icc_model.nest) ->
      List.iter (fun id -> part.(id) <- idx) nst.stmts)
    r.nests;
  part

(* Shared tail of both compile paths: C emission, wisecheck, and the
   bookkeeping that turns the artifacts into an outcome. [wrap] times
   each layer call in the traced path and is the identity otherwise. *)
type wrap = { wrap : 'a. string -> (unit -> 'a) -> 'a }

let finish w spec ~t0 ~c0 ~w0 ~ast ~deps ~sched ~rung ~partition =
  let c =
    w.wrap "codegen.emit" (fun () ->
        Codegen.Cprint.program ~name:(c_name spec.label) spec.prog ast)
  in
  let report =
    w.wrap "analysis.certify" (fun () ->
        Analysis.Wisecheck.certify spec.prog deps sched ast)
  in
  let wall_ms = Linalg.Clock.elapsed_ms ~since:t0 in
  let minor_words = Gc.minor_words () -. w0 in
  ( {
    wall_ms;
    c_digest = Digest.to_hex (Digest.string c);
    c_bytes = String.length c;
    rung;
    partition;
    deps_count = List.length deps;
    wisecheck_errors = report.Analysis.Wisecheck.errors;
    counters = counter_delta c0 (Linalg.Counters.all_counters ());
    minor_words;
  },
    ast,
    c )

(* Each compile starts from the state of a fresh CLI process: an empty
   Farkas memo; counters are read as deltas. *)
let start () =
  Pluto.Farkas.reset_cache ();
  let c0 = Linalg.Counters.all_counters () in
  let w0 = Gc.minor_words () in
  (c0, w0, Linalg.Clock.now ())

let no_wrap = { wrap = (fun _ f -> f ()) }

(* The operation as a user runs it: the model's whole pipeline
   (dependence analysis, resilient schedule, codegen), C emission and
   wisecheck certification. *)
let compile spec =
  let c0, w0, t0 = start () in
  let opt = Fusion.Model.optimize ~engine:spec.engine spec.model spec.prog in
  let ast = opt.Fusion.Model.ast in
  match (opt.scheduler, opt.icc, opt.resilience) with
  | Some res, _, Some o ->
    finish no_wrap spec ~t0 ~c0 ~w0 ~ast ~deps:res.all_deps ~sched:res.sched
      ~rung:(Fusion.Resilient.rung_name o.rung)
      ~partition:res.outer_partition
  | None, Some r, _ ->
    finish no_wrap spec ~t0 ~c0 ~w0 ~ast ~deps:r.deps ~sched:r.sched
      ~rung:"structural" ~partition:(partition_of_icc r)
  | _ -> failwith (spec.label ^ ": model returned no schedule")

(* The same operation decomposed into its layers' public calls, each
   wrapped in a ledger span. On the primary rung this performs exactly
   the calls [Resilient.optimize] makes, so its C must be byte-identical
   to {!compile}'s; anything else is a failed operation. *)
let compile_traced ledger ~op spec =
  let w = { wrap = (fun name f -> Ledger.span ledger ~op name f) } in
  Ledger.span ledger ~op "op" (fun () ->
      let c0, w0, t0 = start () in
      match spec.model with
      | Fusion.Model.Icc ->
        let r = w.wrap "fusion.icc" (fun () -> Icc.Icc_model.run spec.prog) in
        finish w spec ~t0 ~c0 ~w0 ~ast:r.ast ~deps:r.deps ~sched:r.sched
          ~rung:"structural" ~partition:(partition_of_icc r)
      | m -> (
        let deps =
          w.wrap "deps.analyze" (fun () -> Deps.Dep.analyze spec.prog)
        in
        match
          w.wrap "pluto.schedule" (fun () ->
              Pluto.Scheduler.schedule_with_deps ~engine:spec.engine
                (Fusion.Model.scheduler_config m) spec.prog deps)
        with
        | Error d ->
          failwith
            (Printf.sprintf "%s: primary schedule failed: %s" spec.label
               d.Pluto.Diagnostics.message)
        | Ok res ->
          let ast = w.wrap "codegen.scan" (fun () -> Codegen.Scan.of_result res) in
          finish w spec ~t0 ~c0 ~w0 ~ast ~deps:res.all_deps ~sched:res.sched
            ~rung:"primary" ~partition:res.outer_partition))

(* [None] when the transformed program computes what the original
   computes, at the program's default parameters. *)
let semantics_diff (prog : Scop.Program.t) ast =
  let params = prog.default_params in
  let reference = Machine.Interp.init_memory prog ~params in
  Machine.Interp.run_original prog reference ~params;
  let transformed = Machine.Interp.init_memory prog ~params in
  Machine.Interp.run prog ast transformed ~params;
  Machine.Interp.first_diff reference transformed

let sim_config = Machine.Perf.with_cores 8 Machine.Perf.default

let simulate (prog : Scop.Program.t) ast =
  Machine.Perf.simulate ~config:sim_config prog ast
    ~params:prog.default_params

let npartitions part =
  List.length (List.sort_uniq compare (Array.to_list part))
