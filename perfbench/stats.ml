let sorted xs = List.sort compare xs |> Array.of_list

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: empty";
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let rank ~p n = max 1 (int_of_float (Float.ceil (p *. float_of_int n)))

let samples_beyond ~p n = if n = 0 then 0 else n - rank ~p n

let min_beyond = 10

let percentile ~p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 || samples_beyond ~p n < min_beyond then None
  else Some (a.(rank ~p n - 1), n)

let geomean xs =
  if xs = [] then invalid_arg "Stats.geomean: empty";
  let logs =
    List.map
      (fun x ->
        if x <= 0.0 then invalid_arg "Stats.geomean: non-positive value";
        Float.log x)
      xs
  in
  Float.exp (List.fold_left ( +. ) 0.0 logs /. float_of_int (List.length xs))

(* statistics.quantiles(data, n=4, method="exclusive"):
   m = len + 1; cut i at j = i*m // 4, delta = i*m - j*4,
   value = (data[j-1] * (4 - delta) + data[j] * delta) / 4,
   with j clamped to [1, len - 1] *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n < 2 then invalid_arg "Stats.quartiles: need at least 2 values";
  let m = n + 1 in
  let cut i =
    let j = max 1 (min (n - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
    /. 4.0
  in
  (cut 1, cut 3)

let spread xs =
  let q1, q3 = quartiles xs in
  let med = median xs in
  if med = 0.0 then invalid_arg "Stats.spread: zero median";
  (q3 -. q1) /. Float.abs med

type lateness = {
  late_p50_ms : float;
  late_max_ms : float;
  late_count : int;
  sent : int;
}

let lateness ~slack_ms pairs =
  let lates =
    List.map (fun (due, sent) -> Float.max 0.0 ((sent -. due) *. 1e3)) pairs
  in
  match lates with
  | [] -> { late_p50_ms = 0.0; late_max_ms = 0.0; late_count = 0; sent = 0 }
  | _ ->
    {
      late_p50_ms = median lates;
      late_max_ms = List.fold_left Float.max 0.0 lates;
      late_count = List.length (List.filter (fun l -> l > slack_ms) lates);
      sent = List.length lates;
    }

let latency_ms ~due ~recv = (recv -. due) *. 1e3
