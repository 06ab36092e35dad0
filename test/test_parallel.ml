module P = Parallel.Pool

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_deque_claims_each_once () =
  let d = Parallel.Deque.of_array (Array.init 10 Fun.id) in
  check_bool "not empty" false (Parallel.Deque.is_empty d);
  (* Interleave the two ends: every element must come out exactly once,
     pops from the bottom, steals from the top. *)
  Alcotest.(check (option int)) "steal takes top" (Some 0) (Parallel.Deque.steal d);
  Alcotest.(check (option int)) "pop takes bottom" (Some 9) (Parallel.Deque.pop d);
  let rec collect acc =
    match Parallel.Deque.pop d with
    | Some x -> collect (x :: acc)
    | None -> acc
  in
  let rest = collect [] in
  check_int "remaining count" 8 (List.length rest);
  Alcotest.(check (list int)) "each element once" [ 1; 2; 3; 4; 5; 6; 7; 8 ]
    (List.sort compare rest);
  check_bool "drained" true (Parallel.Deque.is_empty d);
  Alcotest.(check (option int)) "steal on empty" None (Parallel.Deque.steal d)

let test_run_preserves_order () =
  P.with_pool ~jobs:4 (fun pool ->
      check_int "pool size" 4 (P.size pool);
      let n = 1000 in
      let out = P.run pool ~n (fun i -> i * i) in
      Alcotest.(check (array int)) "results in task order"
        (Array.init n (fun i -> i * i))
        out;
      (* The pool must be reusable for a second batch. *)
      let out = P.map pool String.length [ "a"; "bb"; ""; "cccc" ] in
      Alcotest.(check (list int)) "second batch" [ 1; 2; 0; 4 ] out)

let test_jobs_counts_agree () =
  (* A task mixing per-index Random.State work: any jobs count must produce
     the identical result list. *)
  let work st x = (x * 10000) + Random.State.int st 1000 in
  let inputs = List.init 64 Fun.id in
  let at jobs =
    P.with_pool ~jobs (fun pool -> P.map_seeded pool ~seed:7 work inputs)
  in
  Alcotest.(check (list int)) "jobs=1 equals jobs=4" (at 1) (at 4);
  Alcotest.(check (list int)) "jobs=4 equals jobs=3" (at 4) (at 3)

let test_exception_propagation () =
  P.with_pool ~jobs:4 (fun pool ->
      let executed = Atomic.make 0 in
      let raised =
        try
          ignore
            (P.run pool ~n:64 (fun i ->
                 Atomic.incr executed;
                 if i mod 7 = 3 then failwith (Printf.sprintf "boom %d" i);
                 i));
          None
        with Failure msg -> Some msg
      in
      (* Lowest-index failure wins regardless of schedule; every task still
         ran to completion. *)
      Alcotest.(check (option string)) "first failing index" (Some "boom 3") raised;
      check_int "all tasks executed" 64 (Atomic.get executed))

let test_sequential_fallbacks () =
  (* jobs=1 spawns no domains and still works. *)
  P.with_pool ~jobs:1 (fun pool ->
      check_int "clamped size" 1 (P.size pool);
      Alcotest.(check (list int)) "sequential map" [ 2; 4 ]
        (P.map pool (fun x -> 2 * x) [ 1; 2 ]));
  (* A task calling run on its own pool degrades to in-place execution
     instead of deadlocking. *)
  P.with_pool ~jobs:2 (fun pool ->
      let out =
        P.run pool ~n:4 (fun i ->
            Array.fold_left ( + ) 0 (P.run pool ~n:3 (fun j -> (10 * i) + j)))
      in
      Alcotest.(check (array int)) "nested run" [| 3; 33; 63; 93 |] out);
  (* After shutdown the pool still answers, sequentially. *)
  let pool = P.create ~jobs:2 () in
  P.shutdown pool;
  Alcotest.(check (list int)) "post-shutdown map" [ 1 ]
    (P.map pool Fun.id [ 1 ]);
  P.shutdown pool

let test_pool_reusable_after_failure () =
  P.with_pool ~jobs:3 (fun pool ->
      (* A batch whose task raises must not poison the pool. *)
      (try
         ignore
           (P.run pool ~n:8 (fun i ->
                if i = 5 then failwith "die";
                i))
       with Failure _ -> ());
      Alcotest.(check (array int)) "second batch after failure"
        (Array.init 16 (fun i -> 3 * i))
        (P.run pool ~n:16 (fun i -> 3 * i));
      (* Nested run issued from inside an exception handler still takes
         the in-place fallback instead of deadlocking. *)
      let out =
        P.run pool ~n:4 (fun i ->
            try
              if i mod 2 = 0 then failwith "inner";
              i
            with Failure _ ->
              Array.fold_left ( + ) 0 (P.run pool ~n:3 (fun j -> (10 * i) + j)))
      in
      Alcotest.(check (array int)) "nested run in handler" [| 3; 1; 63; 3 |] out)

let test_run_isolated () =
  P.with_pool ~jobs:4 (fun pool ->
      let out =
        P.run_isolated pool ~n:10 (fun i ->
            if i mod 3 = 0 then failwith (Printf.sprintf "boom %d" i);
            i)
      in
      check_int "every slot reported" 10 (Array.length out);
      Array.iteri
        (fun i r ->
          match r with
          | Ok v ->
              check_bool "ok slot placement" true (i mod 3 <> 0);
              check_int "ok slot value" i v
          | Error (Failure msg, _) ->
              check_bool "error slot placement" true (i mod 3 = 0);
              Alcotest.(check string) "error carried" (Printf.sprintf "boom %d" i) msg
          | Error _ -> Alcotest.fail "unexpected exception kind")
        out;
      (* Isolation does not retry or skip the healthy tasks. *)
      let oks = Array.to_list out |> List.filter (function Ok _ -> true | _ -> false) in
      check_int "healthy tasks completed" 6 (List.length oks))

let test_cv_pool_equivalence () =
  let inst =
    Benchgen.Suite.instantiate
      ~sizes:{ Benchgen.Suite.train = 300; valid = 150; test = 150 }
      ~seed:11
      (Benchgen.Suite.benchmark 30)
  in
  let train d =
    Dtree.Train.train
      { Dtree.Train.default_params with Dtree.Train.max_depth = Some 6 }
      d
  in
  let score = Dtree.Train.accuracy in
  let cv pool =
    Contest.Cv.accuracy ?pool
      ~rng:(Random.State.make [| 5 |])
      ~k:4 ~train ~score inst.Benchgen.Suite.train
  in
  let sequential = cv None in
  let parallel = P.with_pool ~jobs:4 (fun pool -> cv (Some pool)) in
  Alcotest.(check (float 0.0)) "parallel folds identical" sequential parallel

let test_run_suite_jobs_identical () =
  (* The issue's hard requirement: run_suite ~jobs:1 and ~jobs:4 produce
     bit-identical metrics on a 4-benchmark slice. *)
  let config =
    {
      Contest.Experiments.sizes = { Benchgen.Suite.train = 120; valid = 60; test = 60 };
      seed = 3;
      ids = [ 0; 30; 74; 85 ];
    }
  in
  let at jobs =
    Contest.Experiments.run_suite ~progress:false
      ~teams:[ Contest.Teams.team10; Contest.Teams.team2 ]
      ~jobs config
  in
  let r1 = at 1 and r4 = at 4 in
  check_int "teams" 2 (List.length r4.Contest.Experiments.per_team);
  List.iter
    (fun (_, ms) -> check_int "benchmarks per team" 4 (List.length ms))
    r4.Contest.Experiments.per_team;
  check_bool "per-team metrics bit-identical" true
    (r1.Contest.Experiments.per_team = r4.Contest.Experiments.per_team)

let test_instances_jobs_identical () =
  (* Instantiation across the pool (the logic-cone cache is shared by the
     domains) yields the same instances as a sequential pass.  The
     parallel pass runs first, while cones may still be uncached. *)
  let config =
    {
      Contest.Experiments.sizes = { Benchgen.Suite.train = 60; valid = 30; test = 30 };
      seed = 11;
      ids = List.init 100 Fun.id;
    }
  in
  let i4 = Contest.Experiments.instances_of ~jobs:4 config in
  let i1 = Contest.Experiments.instances_of ~jobs:1 config in
  check_int "instances" 100 (List.length i4);
  check_bool "instances identical at jobs 1 and 4" true (i1 = i4)

let suites =
  [ ( "parallel",
      [ Alcotest.test_case "deque claims" `Quick test_deque_claims_each_once;
        Alcotest.test_case "order preserved" `Quick test_run_preserves_order;
        Alcotest.test_case "jobs counts agree" `Quick test_jobs_counts_agree;
        Alcotest.test_case "exception propagation" `Quick test_exception_propagation;
        Alcotest.test_case "sequential fallbacks" `Quick test_sequential_fallbacks;
        Alcotest.test_case "reusable after failure" `Quick
          test_pool_reusable_after_failure;
        Alcotest.test_case "run isolated" `Quick test_run_isolated;
        Alcotest.test_case "cv pool equivalence" `Quick test_cv_pool_equivalence;
        Alcotest.test_case "instances jobs identical" `Quick
          test_instances_jobs_identical;
        Alcotest.test_case "run_suite jobs identical" `Slow
          test_run_suite_jobs_identical ] ) ]
