(* End-to-end benchmark of the contest grid, the repair pipeline and the
   serve daemon; see README.md in this directory.

     main.exe --workload NAME --seed N [--seconds S] [--trace 0|1] [--smoke] [--out FILE]
     main.exe --compare A.jsonl B.jsonl
     main.exe --smoke-test BENCHMARK.json *)

module J = Serve.Json
module W = Workloads

let usage =
  "usage: main.exe --workload contest-grid|repair-sweep|serve-cold|serve-cached|all \
   --seed N [--seconds S] [--trace 0|1] [--smoke] [--out FILE]\n\
  \       main.exe --compare A.jsonl B.jsonl\n\
  \       main.exe --smoke-test BENCHMARK.json"

let usage_error msg =
  Printf.eprintf "perfbench: %s\n%s\n" msg usage;
  exit 2

type opts = {
  workload : string option;
  seed : int;
  seconds : float;
  trace : bool;
  smoke : bool;
  out : string option;
}

let rec parse o = function
  | [] -> o
  | "--workload" :: w :: rest ->
      if w <> "all" && not (List.mem_assoc w W.all) then
        usage_error (Printf.sprintf "unknown workload %S" w);
      parse { o with workload = Some w } rest
  | "--seed" :: s :: rest -> (
      match int_of_string_opt s with
      | Some seed -> parse { o with seed } rest
      | None -> usage_error (Printf.sprintf "--seed expects an integer, got %S" s))
  | "--seconds" :: s :: rest -> (
      match float_of_string_opt s with
      | Some seconds when seconds >= 0.0 && seconds <= 3600.0 -> parse { o with seconds } rest
      | _ -> usage_error (Printf.sprintf "--seconds expects 0 to 3600, got %S" s))
  | "--trace" :: t :: rest -> (
      match t with
      | "0" -> parse { o with trace = false } rest
      | "1" -> parse { o with trace = true } rest
      | _ -> usage_error (Printf.sprintf "--trace expects 0 or 1, got %S" t))
  | "--smoke" :: rest -> parse { o with smoke = true } rest
  | "--out" :: path :: rest -> parse { o with out = Some path } rest
  | arg :: _ -> usage_error (Printf.sprintf "unexpected argument %S" arg)

(* Metrics in the listed order; a layer the workload did not exercise
   reads 0.  A non-finite value fails the run rather than printing. *)
let report ~names (o : W.outcome) =
  let values =
    List.map
      (fun (name, unit) ->
        (name, unit, Option.value (List.assoc_opt name o.W.metrics) ~default:0.0))
      names
  in
  let nonfinite =
    List.filter_map
      (fun (n, _, v) -> if Float.is_finite v then None else Some (n ^ " is not finite"))
      values
  in
  let problems = o.W.problems @ nonfinite in
  let values = List.map (fun (n, u, v) -> (n, u, if Float.is_finite v then v else 0.0)) values in
  (problems, values)

let result_json ~correct (o : W.outcome) values =
  J.Obj
    [
      ("correct", J.Bool correct);
      ("attempted", J.Int o.W.attempted);
      ("failed", J.Int o.W.failed);
      ( "metrics",
        J.Obj
          (List.map
             (fun (n, u, v) -> (n, J.Obj [ ("value", J.Float v); ("unit", J.Str u) ]))
             values) );
    ]

let run_one o name f =
  let cfg =
    { W.seed = o.seed; seconds = o.seconds; trace = o.trace; smoke = o.smoke; dir = ".perfbench" }
  in
  (try Unix.mkdir cfg.W.dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  W.log "%s: seed %d, %.0f s, trace %b%s" name o.seed o.seconds o.trace
    (if o.smoke then ", smoke sizes" else "");
  let outcome = f cfg in
  let problems, values =
    report ~names:(if o.trace then W.per_layer else W.end_to_end) outcome
  in
  let correct = problems = [] in
  List.iter (fun p -> W.log "%s: CHECK FAILED: %s" name p) problems;
  Printf.printf "# %s\n" name;
  List.iter (fun (n, u, v) -> Printf.printf "%s %s %s\n" n (J.to_string (J.Float v)) u) values;
  let result = result_json ~correct outcome values in
  print_endline (J.to_string result);
  Option.iter
    (fun path ->
      let record =
        match result with
        | J.Obj fields ->
            J.Obj
              ((("workload", J.Str name) :: ("trace", J.Bool o.trace)
                :: ("host", Host.block ~seed:o.seed ~seconds:o.seconds) :: fields))
        | j -> j
      in
      Out_channel.with_open_gen [ Open_append; Open_creat; Open_text ] 0o644 path (fun oc ->
          output_string oc (J.to_string record ^ "\n")))
    o.out;
  correct

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "--daemon"; socket; cache_file; jobs ] ->
      Daemon.child_main ~socket ~cache_file ~jobs:(int_of_string jobs)
  | [ "--compare"; a; b ] -> Compare.run ~contract:"BENCHMARK.json" a b
  | [ "--smoke-test"; contract ] -> Smoke.run contract
  | args ->
      let o =
        parse
          { workload = None; seed = 1; seconds = 15.0; trace = false; smoke = false; out = None }
          args
      in
      let selected =
        match o.workload with
        | None -> usage_error "--workload is required"
        | Some "all" -> W.all
        | Some w -> [ (w, List.assoc w W.all) ]
      in
      (* Whatever ends the run, no daemon outlives it; an alarm well past
         the expected run time cuts off a hang. *)
      at_exit Daemon.kill_all;
      List.iter
        (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
        [ Sys.sigint; Sys.sigterm ];
      Sys.set_signal Sys.sigalrm
        (Sys.Signal_handle
           (fun _ ->
             W.log "time limit reached; stopping";
             exit 124));
      ignore
        (Unix.alarm
           (List.length selected * int_of_float ((3.0 *. o.seconds) +. 120.0)));
      let ok = List.for_all Fun.id (List.map (fun (name, f) -> run_one o name f) selected) in
      if not ok then exit 1
