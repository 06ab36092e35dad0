(* Self-time rollup over span trees: from the library's own telemetry
   (in-process workloads) or from the span lists a serve reply carries
   (traced requests), charged to the per-layer metric names. *)

type span = {
  name : string;
  depth : int;
  dur_us : float;
  technique : string option;  (** the [technique] arg of candidate spans *)
}

let of_telemetry (s : Telemetry.span_record) =
  {
    name = s.Telemetry.span_name;
    depth = s.Telemetry.span_depth;
    dur_us = s.Telemetry.span_dur;
    technique =
      (match List.assoc_opt "technique" s.Telemetry.span_args with
      | Some (Telemetry.Str t) -> Some t
      | _ -> None);
  }

(* One element of a serve reply's "trace" list (no args on the wire). *)
let of_reply_span j =
  let open Serve.Json in
  match
    ( Option.bind (member "name" j) get_string,
      Option.bind (member "depth" j) get_int,
      Option.bind (member "dur_us" j) get_float )
  with
  | Some name, Some depth, Some dur_us -> { name; depth; dur_us; technique = None }
  | _ -> failwith "malformed span in a serve trace reply"

type node = {
  span : span;
  self_us : float;  (** duration minus the direct children's durations *)
  ancestors : string list;  (** names, innermost first *)
}

(* Spans arrive in begin order within each domain (and within each
   captured request), so a span's parent is the nearest earlier span one
   level shallower, and a depth-0 span starts a new tree. *)
let self_times spans =
  let spans = Array.of_list spans in
  let self = Array.map (fun s -> s.dur_us) spans in
  let anc = Array.make (Array.length spans) [] in
  let stack = ref [] in
  Array.iteri
    (fun i s ->
      let rec pop = function
        | j :: rest when spans.(j).depth >= s.depth -> pop rest
        | st -> st
      in
      stack := pop !stack;
      (match !stack with
      | j :: _ when spans.(j).depth = s.depth - 1 ->
          self.(j) <- self.(j) -. s.dur_us;
          anc.(i) <- spans.(j).name :: anc.(j)
      | _ -> ());
      stack := i :: !stack)
    spans;
  Array.to_list
    (Array.mapi
       (fun i s -> { span = s; self_us = self.(i); ancestors = anc.(i) })
       spans)

(* Training families by the technique names Contest.Teams gives its
   candidates.  An espresso candidate's own self time (cover-to-AIG
   synthesis) is charged to the SOP layer together with the minimizer. *)
let family_metric technique =
  let has p = String.starts_with ~prefix:p technique in
  if has "espresso" then "sop.espresso_ms"
  else if List.exists has [ "afn"; "mlp"; "sine"; "nn" ] then "nnet.train_ms"
  else if List.exists has [ "forest"; "rf-"; "xgboost" ] then "forest.train_ms"
  else if has "lutnet" then "lutnet.train_ms"
  else if has "part" then "rules.train_ms"
  else "dtree.train_ms"

let metrics_of (s : span) =
  match s.name with
  | "solve" -> [ "contest.solve_self_ms" ]
  | "candidate.train" ->
      "contest.train_ms" :: Option.to_list (Option.map family_metric s.technique)
  | "candidate.eval" -> [ "contest.budget_ms" ]
  | "engine.batch" -> [ "aig.engine_batch_ms" ]
  | "espresso.minimize" -> [ "sop.espresso_ms" ]
  | "approx" -> [ "aig.approx_ms" ]
  | "sat.solve" -> [ "sat.solve_ms" ]
  | "serve.solve" -> [ "serve.handler_ms" ]
  | _ -> []

(* Self milliseconds per operation for every span-derived layer metric. *)
let per_op_ms ~ops nodes =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun n ->
      List.iter
        (fun m ->
          let v = Option.value (Hashtbl.find_opt tbl m) ~default:0.0 in
          Hashtbl.replace tbl m (v +. n.self_us))
        (metrics_of n.span))
    nodes;
  Hashtbl.fold
    (fun m us acc -> (m, us /. 1000.0 /. float_of_int (max 1 ops)) :: acc)
    tbl []

let within name n = n.span.name = name || List.mem name n.ancestors

let sum f nodes = List.fold_left (fun acc n -> acc +. f n) 0.0 nodes
