(* --compare A B: two sets of runs (the JSON lines --out appends), side
   by side per workload and metric, judged against the bounds in
   BENCHMARK.json. *)

module J = Serve.Json

type run = { workload : string; host : J.t; metrics : (string * float) list }

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")

let load path =
  List.map
    (fun l ->
      let j = J.parse l in
      let str k = Option.bind (J.member k j) J.get_string in
      match (str "workload", J.member "metrics" j) with
      | Some workload, Some (J.Obj ms) ->
          {
            workload;
            host = Option.value (J.member "host" j) ~default:J.Null;
            metrics =
              List.filter_map
                (fun (name, m) ->
                  Option.map (fun v -> (name, v)) (Option.bind (J.member "value" m) J.get_float))
                ms;
          }
      | _ -> failwith (path ^ ": not a perfbench --out record: " ^ l))
    (read_lines path)

(* name -> (lower_is_better, bound); per-layer metrics carry no bound. *)
let bounds contract =
  let j = J.parse (In_channel.with_open_text contract In_channel.input_all) in
  let list k = match J.member k j with Some (J.List l) -> l | _ -> [] in
  List.filter_map
    (fun m ->
      match
        ( Option.bind (J.member "name" m) J.get_string,
          Option.bind (J.member "better" m) J.get_string )
      with
      | Some name, Some better ->
          Some (name, (better = "lower", Option.bind (J.member "bound" m) J.get_float))
      | _ -> None)
    (list "end_to_end" @ list "per_layer")

let quartiles = function
  | [ x ] -> (x, x, x)
  | xs -> Stats.quartiles xs

(* How much worse [b] is than [a], as a share of [a]'s median. *)
let worse_share ~lower a b = (if lower then b -. a else a -. b) /. Float.abs a

(* The rule of the benchmark's README: a metric is unresolved when the
   spread within a side exceeds its bound, unless the two sides do not
   overlap at all. *)
let verdict ~lower ~bound a b =
  let spread xs =
    let q1, m, q3 = quartiles xs in
    (q3 -. q1) /. Float.abs m
  in
  let all_better xs ys =
    List.for_all (fun x -> List.for_all (fun y -> worse_share ~lower y x < 0.0) ys) xs
  in
  let shift = worse_share ~lower (Stats.median a) (Stats.median b) in
  if (spread a > bound || spread b > bound) && not (all_better a b || all_better b a)
  then "unresolved"
  else if shift > bound then "worse"
  else if shift < -.bound then "better"
  else "unchanged"

let host_line path runs =
  match runs with
  | [] -> Printf.printf "%s: no runs\n" path
  | r :: _ ->
      Printf.printf "%s: %d runs, host %s\n" path (List.length runs) (J.to_string r.host)

let run ~contract a_path b_path =
  let bounds = bounds contract in
  let a = load a_path and b = load b_path in
  host_line a_path a;
  host_line b_path b;
  let workloads = List.sort_uniq compare (List.map (fun r -> r.workload) (a @ b)) in
  let fmt xs =
    let q1, m, q3 = quartiles xs in
    Printf.sprintf "%.4g [%.4g %.4g]" m q1 q3
  in
  Printf.printf "%-14s %-26s %-30s %-30s %8s  %s\n" "workload" "metric" "A median [q1 q3]"
    "B median [q1 q3]" "change" "verdict";
  List.iter
    (fun w ->
      let values runs name =
        List.filter_map
          (fun r -> if r.workload = w then List.assoc_opt name r.metrics else None)
          runs
      in
      List.iter
        (fun (name, (lower, bound)) ->
          match (values a name, values b name) with
          | [], _ | _, [] -> ()
          | va, vb ->
              let ma = Stats.median va and mb = Stats.median vb in
              let change =
                if ma = 0.0 then "-" else Printf.sprintf "%+.1f%%" (100.0 *. (mb -. ma) /. Float.abs ma)
              in
              let v =
                match bound with
                | Some bound -> verdict ~lower ~bound va vb
                | None -> "-"
              in
              Printf.printf "%-14s %-26s %-30s %-30s %8s  %s\n" w name (fmt va) (fmt vb) change v)
        bounds)
    workloads
