(* --smoke-test BENCHMARK.json: every workload at tiny sizes, untraced
   and traced, through the same command line the benchmark is run with.
   Asserts that each run passes its correctness checks and prints
   exactly the metrics BENCHMARK.json lists, and that malformed
   arguments exit 2 with the usage line.  No timing is asserted. *)

module J = Serve.Json

let failures = ref []
let expect ok msg = if not ok then failures := msg :: !failures

(* Runs this executable with [args]; its exit code, stdout and stderr. *)
let run_self args =
  let exe = Sys.executable_name in
  let p = Unix.open_process_args_full exe (Array.of_list (exe :: args)) (Unix.environment ()) in
  let out, _, err = p in
  let stdout = In_channel.input_all out in
  let stderr = In_channel.input_all err in
  let code = match Unix.close_process_full p with Unix.WEXITED c -> c | _ -> -1 in
  (code, stdout, stderr)

let names j key =
  match J.member key j with
  | Some (J.List l) ->
      List.map
        (fun m ->
          ( Option.value (Option.bind (J.member "name" m) J.get_string) ~default:"?",
            Option.value (Option.bind (J.member "unit" m) J.get_string) ~default:"?" ))
        l
  | _ -> []

let check_run workload trace expected =
  let what = Printf.sprintf "%s --trace %d" workload trace in
  let code, out, err =
    run_self
      [ "--workload"; workload; "--seed"; "1"; "--seconds"; "0"; "--trace"; string_of_int trace; "--smoke" ]
  in
  let before = List.length !failures in
  Fun.protect ~finally:(fun () -> if List.length !failures > before then prerr_string err)
  @@ fun () ->
  expect (code = 0) (Printf.sprintf "%s: exit %d" what code);
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' out) in
  match List.rev lines with
  | [] -> expect false (what ^ ": no output")
  | last :: rest -> (
      let printed =
        List.rev_map
          (fun l ->
            match String.split_on_char ' ' l with
            | [ name; _; unit ] -> (name, unit)
            | _ -> (l, "?"))
          (List.filter (fun l -> l.[0] <> '#') rest)
      in
      expect (printed = expected) (what ^ ": printed metric lines differ from BENCHMARK.json");
      match J.parse last with
      | exception J.Parse_error _ -> expect false (what ^ ": last line is not JSON")
      | j ->
          expect (J.member "correct" j = Some (J.Bool true)) (what ^ ": correct is not true");
          expect (J.member "failed" j = Some (J.Int 0)) (what ^ ": failed operations");
          expect
            (match J.member "attempted" j with Some (J.Int n) -> n >= 1 | _ -> false)
            (what ^ ": attempted < 1");
          let metrics =
            match J.member "metrics" j with
            | Some (J.Obj ms) ->
                List.map
                  (fun (name, m) ->
                    (name, Option.value (Option.bind (J.member "unit" m) J.get_string) ~default:"?"))
                  ms
            | _ -> []
          in
          expect (metrics = expected) (what ^ ": JSON metrics differ from BENCHMARK.json"))

let run contract =
  let c = J.parse (In_channel.with_open_text contract In_channel.input_all) in
  let e2e = names c "end_to_end" and layers = names c "per_layer" in
  expect
    (List.map fst (names c "workloads") = List.map fst Workloads.all)
    "BENCHMARK.json workloads differ from the benchmark's";
  expect (e2e = Workloads.end_to_end) "BENCHMARK.json end_to_end differs from the benchmark's";
  expect (layers = Workloads.per_layer) "BENCHMARK.json per_layer differs from the benchmark's";
  List.iter
    (fun (w, _) ->
      check_run w 0 e2e;
      check_run w 1 layers)
    Workloads.all;
  List.iter
    (fun args ->
      let code, out, err = run_self args in
      let what = String.concat " " args in
      expect (code = 2) (Printf.sprintf "%s: exit %d, expected 2" what code);
      expect (out = "") (what ^ ": printed a result");
      expect
        (List.exists (String.starts_with ~prefix:"usage:") (String.split_on_char '\n' err))
        (what ^ ": no usage line"))
    [
      [ "--workload"; "nope"; "--seed"; "1" ];
      [ "--workload"; "serve-cold"; "--seed"; "x" ];
      [ "--workload"; "serve-cold"; "--seconds"; "-1" ];
      [ "--workload"; "serve-cold"; "--trace"; "2" ];
      [ "--seed"; "1" ];
    ];
  match List.rev !failures with
  | [] -> print_endline "perfbench smoke test: ok"
  | fs ->
      List.iter (fun f -> prerr_endline ("FAIL " ^ f)) fs;
      exit 1
