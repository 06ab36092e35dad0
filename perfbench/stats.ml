(* Order statistics shared by the workloads (latency percentiles) and by
   --compare (medians and quartiles of a set of runs). *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Harrell-Davis estimate of the [p] quantile, 0 < p < 1: a mean of all
   order statistics weighted by the Beta((n+1)p, (n+1)(1-p)) density
   (integrated numerically, 16 midpoints per rank).  A single order
   statistic jumps when operations near the quantile trade places
   across a gap, and the grid's task latencies, spread from 0 to
   1000 ms, have gaps. *)
let quantile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n < 2 then if n = 1 then a.(0) else 0.0
  else begin
    let alpha = p *. float_of_int (n + 1) and beta = (1.0 -. p) *. float_of_int (n + 1) in
    let cells = 16 * n in
    let log_density j =
      let x = (float_of_int j +. 0.5) /. float_of_int cells in
      ((alpha -. 1.0) *. Float.log x) +. ((beta -. 1.0) *. Float.log (1.0 -. x))
    in
    let logs = Array.init cells log_density in
    let top = Array.fold_left Float.max Float.neg_infinity logs in
    let mass = Array.map (fun l -> Float.exp (l -. top)) logs in
    let total = ref 0.0 and acc = ref 0.0 in
    Array.iteri
      (fun j m ->
        total := !total +. m;
        acc := !acc +. (m *. a.(j / 16)))
      mass;
    !acc /. !total
  end

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Quartiles exactly as Python's [statistics.quantiles(xs, n=4)] (the
   default "exclusive" method), so spreads printed here match the ones
   a reader computes from the same run values.  Needs two values. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Stats.quartiles: need at least two values";
  let m = ld + 1 in
  let q i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = float_of_int ((i * m) - (j * 4)) in
    ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0
  in
  (q 1, q 2, q 3)
