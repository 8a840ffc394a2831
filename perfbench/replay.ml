(* In-process replay of a request stream through the serving daemon's
   hit path: the functions the daemon calls for a cache hit (parse,
   program build, fingerprint, cache lookup, serialize), each timed on
   its own. *)

type sample = {
  parse_us : float;
  build_us : float;
  fingerprint_us : float;
  lookup_us : float;
  serialize_us : float;
  total_us : float;
  bytes : int;
  hit : bool;  (* the fingerprint found a cached payload *)
}

(* Programs named in request lines: registry kernels, or Scopgen shapes
   with the statement count as the size. *)
let build_program kernel size =
  match Kernels.Scopgen.shape_of_string kernel with
  | Some shape -> Kernels.Scopgen.generate shape ~stmts:(Option.get size)
  | None ->
    let e = Kernels.Registry.find kernel in
    e.program ~n:(Option.value size ~default:e.model_size) ()

let request_line ~id ~kernel ~size ~model ~engine =
  Obs.Json.to_string
    (Obs.Json.Obj
       [ ("id", Obs.Json.Int id); ("kernel", Obs.Json.Str kernel);
         ("size", Obs.Json.Int size); ("model", Obs.Json.Str model);
         ("engine", Obs.Json.Str engine) ])

let key_of ~model ~engine prog =
  Serve.Fingerprint.key ~engine ~model prog

let deadline_ms = Serve.Server.default_config.default_deadline_ms

let one cache line =
  let now = Linalg.Clock.now in
  let t0 = now () in
  match Serve.Protocol.parse_request line with
  | Error e -> failwith ("replay: unparseable request: " ^ e.message)
  | Ok { id; op = Schedule { kernel; size; model; engine; reductions; _ } } ->
    let t1 = now () in
    let prog = build_program kernel size in
    let t2 = now () in
    let key =
      Serve.Fingerprint.key ~engine:(Option.get (Pluto.Engine.of_string engine))
        ~reductions ~model:(Fusion.Model.of_name model) prog
    in
    let t3 = now () in
    let entry = Serve.Cache.find_quiet cache key in
    let t4 = now () in
    let bytes =
      match entry with
      | None -> 0
      | Some e ->
        String.length
          (Serve.Protocol.to_line
             (Serve.Protocol.schedule_response ~id ~key ~cache_state:"hit"
                ~serve:
                  (Serve.Protocol.serve_section ?deadline_ms
                     ~wall_us:((now () -. t0) *. 1e6)
                     ~solver:Serve.Protocol.zero_solver ())
                ~result:e.Serve.Cache.payload))
    in
    let t5 = now () in
    let us a b = (b -. a) *. 1e6 in
    {
      parse_us = us t0 t1;
      build_us = us t1 t2;
      fingerprint_us = us t2 t3;
      lookup_us = us t3 t4;
      serialize_us = us t4 t5;
      total_us = us t0 t5;
      bytes;
      hit = entry <> None;
    }
  | Ok _ -> failwith "replay: not a schedule request"

let run cache lines = List.map (one cache) lines

(* Zipf(1.1) ranks over [n] keys, the skew the daemon's own serve bench
   uses for its hit traffic. *)
let zipf_picker rng n =
  let w = Array.init n (fun i -> 1.0 /. Float.pow (float_of_int (i + 1)) 1.1) in
  let total = Array.fold_left ( +. ) 0.0 w in
  fun () ->
    let x = Random.State.float rng total in
    let rec go i acc =
      if i >= n - 1 then i
      else
        let acc = acc +. w.(i) in
        if x < acc then i else go (i + 1) acc
    in
    go 0 0.0
