(* The traced run's span ledger. Spans are recorded by the benchmark's
   own code around each call into a layer's public functions (tracing
   inside lib/ is not used), kept in memory, and written out once when
   the run ends. *)

type span = {
  id : int;
  parent : int;  (* -1 for an operation's root span *)
  op : int;  (* operation id: every span of one operation shares it *)
  name : string;
  start : float;  (* Linalg.Clock seconds *)
  mutable stop : float;
}

type t = {
  mutable spans : span list;  (* newest first *)
  mutable next : int;
  mutable open_ : span list;  (* innermost first *)
}

let create () = { spans = []; next = 0; open_ = [] }

let span t ~op name f =
  let parent = match t.open_ with s :: _ -> s.id | [] -> -1 in
  let s =
    { id = t.next; parent; op; name; start = Linalg.Clock.now (); stop = nan }
  in
  t.next <- t.next + 1;
  t.spans <- s :: t.spans;
  t.open_ <- s :: t.open_;
  Fun.protect
    ~finally:(fun () ->
      s.stop <- Linalg.Clock.now ();
      t.open_ <- List.tl t.open_)
    f

let duration s = s.stop -. s.start

(* Self time of every span of operation [op]: its duration minus the
   durations of its direct children. Children run sequentially inside
   their parent, so they never overlap. Returns (root duration,
   [(name, self seconds)] summed per name, root excluded). *)
let self_times t ~op =
  let spans = List.filter (fun s -> s.op = op) t.spans in
  let child_time = Hashtbl.create 8 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_time s.parent
          (duration s
          +. Option.value (Hashtbl.find_opt child_time s.parent) ~default:0.0))
    spans;
  let self s =
    duration s -. Option.value (Hashtbl.find_opt child_time s.id) ~default:0.0
  in
  let root = List.find (fun s -> s.parent < 0) spans in
  let per_name = Hashtbl.create 8 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace per_name s.name
          (self s
          +. Option.value (Hashtbl.find_opt per_name s.name) ~default:0.0))
    spans;
  (duration root, Hashtbl.fold (fun k v acc -> (k, v) :: acc) per_name [])

let to_json t =
  let open Obs.Json in
  List
    (List.rev_map
       (fun s ->
         Obj
           [ ("id", Int s.id); ("parent", Int s.parent); ("op", Int s.op);
             ("name", Str s.name); ("start_us", Float (s.start *. 1e6));
             ("end_us", Float (s.stop *. 1e6)) ])
       t.spans)
