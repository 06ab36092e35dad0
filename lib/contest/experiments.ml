module S = Benchgen.Suite
module D = Data.Dataset
module G = Aig.Graph

type config = {
  sizes : S.sizes;
  seed : int;
  ids : int list;
}

let default_config =
  { sizes = S.reduced_sizes; seed = 1; ids = List.init 100 Fun.id }

let config_with ?(full = false) ?ids ?(seed = 1) () =
  {
    sizes = (if full then S.contest_sizes else S.reduced_sizes);
    seed;
    ids = (match ids with Some l -> l | None -> List.init 100 Fun.id);
  }

type run = {
  config : config;
  instances : S.instance list;
  per_team : (string * Score.metrics list) list;
}

let instances_of ?(jobs = 1) config =
  Parallel.Pool.with_pool ~jobs (fun pool ->
      Parallel.Pool.map pool
        (fun id -> S.instantiate ~sizes:config.sizes ~seed:config.seed (S.benchmark id))
        config.ids)

let task_key (solver : Solver.t) (inst : S.instance) =
  Printf.sprintf "%s/%s" solver.Solver.name inst.S.spec.S.name

(* Fingerprint for the journal meta line: any run parameter that changes
   the rows makes resuming under a different configuration an error
   instead of a silent mix of incompatible results.  Built from the
   shared Resil.Fingerprint combinators (also used by the serve result
   cache) so the formats cannot drift apart. *)
let journal_meta ?(repair = false) ?time_limit ?fuel
    ~(teams : Solver.t list) config =
  Resil.Fingerprint.(
    render
      ([
         int "seed" config.seed;
        str "sizes"
          (Printf.sprintf "%d/%d/%d" config.sizes.S.train config.sizes.S.valid
             config.sizes.S.test);
        str "ids" (String.concat "," (List.map string_of_int config.ids));
        str "teams"
          (String.concat ","
             (List.map (fun (t : Solver.t) -> t.Solver.name) teams));
         opt_float "limit" time_limit;
         opt_int "fuel" fuel;
         float_hex "frate" (Resil.Fault.rate ());
         int "fseed" (Resil.Fault.seed ());
       ]
      (* Appended only when the repair post-pass is on, so journals
         written by builds predating repair keep their exact meta
         string (resume compatibility). *)
      @ if repair then [ str "repair" "on" ] else []))

let solve_one_guarded ~progress ?time_limit ?fuel ?journal (solver : Solver.t)
    (inst : S.instance) =
  let key = task_key solver inst in
  let journal_hit =
    match journal with
    | None -> None
    | Some j ->
        (* A corrupt payload is recomputed rather than trusted. *)
        Option.bind (Resil.Journal.find j key) Score.metrics_of_line
  in
  match journal_hit with
  | Some m -> m
  | None ->
      let t0 = Unix.gettimeofday () in
      let g = Solver.solve_guarded ?time_limit ?fuel ~key solver inst in
      (* Wall time is recorded only on degraded rows: failure_summary
         reports the time lost to crashes/timeouts, while clean rows keep
         wall_s = 0.0 so reports stay bit-identical across runs (the
         jobs=1 vs jobs=N and resume identity invariants). *)
      let degraded =
        g.Solver.timeouts > 0 || g.Solver.crashes > 0 || g.Solver.fell_back
      in
      let wall_s = if degraded then Unix.gettimeofday () -. t0 else 0.0 in
      let m =
        Score.measure ~timeouts:g.Solver.timeouts ~crashes:g.Solver.crashes
          ~fell_back:g.Solver.fell_back ~wall_s inst g.Solver.result
      in
      if progress then
        Printf.eprintf "[run] %-7s %s  acc=%.3f gates=%d%s  (%.1fs)\n%!"
          solver.Solver.name inst.S.spec.S.name m.Score.test_acc m.Score.gates
          (match g.Solver.status with
          | Resil.Guard.Completed -> ""
          | Resil.Guard.Recovered -> "  [recovered]"
          | Resil.Guard.Timed_out -> "  [timed out]"
          | Resil.Guard.Crashed _ -> "  [crashed]")
          (Unix.gettimeofday () -. t0);
      (match journal with
      | Some j -> Resil.Journal.record j ~key (Score.metrics_to_line m)
      | None -> ());
      m

let c_gc_minor = Telemetry.counter "gc.minor_collections"
let c_gc_major = Telemetry.counter "gc.major_collections"

(* Phase spans carry this phase's GC work as args (minor/major collection
   deltas and the process peak heap) and feed the same deltas into the gc
   counters.  Their args are inherently nondeterministic, so the
   determinism tests compare traces with the "phase" category excluded. *)
let phase_span name f =
  if not (Telemetry.enabled ()) then f ()
  else begin
    let s0 = Gc.quick_stat () in
    let r =
      Telemetry.span_ret ~cat:"phase" name
        ~args:(fun _ ->
          let s1 = Gc.quick_stat () in
          [
            ( "gc_minor",
              Telemetry.Int (s1.Gc.minor_collections - s0.Gc.minor_collections)
            );
            ( "gc_major",
              Telemetry.Int (s1.Gc.major_collections - s0.Gc.major_collections)
            );
            ("top_heap_words", Telemetry.Int s1.Gc.top_heap_words);
          ])
        f
    in
    let s1 = Gc.quick_stat () in
    Telemetry.add c_gc_minor (s1.Gc.minor_collections - s0.Gc.minor_collections);
    Telemetry.add c_gc_major (s1.Gc.major_collections - s0.Gc.major_collections);
    r
  end

let solve_grid ?(teams = Teams.all) ?(progress = true) ?(jobs = 1) ?time_limit
    ?fuel ?journal instances =
  (* Every (team, benchmark) solve is an independent task; results land in
     slots keyed by task index, so the report rows come out in canonical
     team-then-benchmark order for any [jobs] count. *)
  let tasks =
    Array.of_list
      (List.concat_map
         (fun solver -> List.map (fun inst -> (solver, inst)) instances)
         teams)
  in
  (* Per-task elapsed seconds, written by each worker into its own slot.
     Only read for tasks that died outside the guard (the [Error] branch
     below), where no other timing survives the crash. *)
  let task_wall = Array.make (Array.length tasks) 0.0 in
  let outcomes =
    phase_span "suite.solve" @@ fun () ->
    Parallel.Pool.with_pool ~jobs (fun pool ->
        Parallel.Pool.run_isolated pool ~n:(Array.length tasks) (fun i ->
            let solver, inst = tasks.(i) in
            let t0 = Unix.gettimeofday () in
            Fun.protect
              ~finally:(fun () ->
                task_wall.(i) <- Unix.gettimeofday () -. t0)
              (fun () ->
                solve_one_guarded ~progress ?time_limit ?fuel ?journal solver
                  inst)))
  in
  let metrics =
    Array.mapi
      (fun i outcome ->
        match outcome with
        | Ok m -> m
        | Error _ ->
            (* The guard never raises, so an [Error] here is a failure of
               the task wrapper itself (an injected pool-worker fault, or a
               crash before the guard was entered).  Degrade to the
               constant row so the report still covers the task — unless a
               previous run already journaled a real result for it. *)
            let solver, inst = tasks.(i) in
            let key = task_key solver inst in
            let journaled =
              match journal with
              | None -> None
              | Some j ->
                  Option.bind (Resil.Journal.find j key) Score.metrics_of_line
            in
            (match journaled with
            | Some m -> m
            | None ->
                let m =
                  Score.measure ~crashes:1 ~fell_back:true
                    ~wall_s:task_wall.(i) inst
                    (Solver.constant_result inst.S.train)
                in
                (match journal with
                | Some j ->
                    Resil.Journal.record j ~key (Score.metrics_to_line m)
                | None -> ());
                m))
      outcomes
  in
  let num_instances = List.length instances in
  List.mapi
    (fun ti (solver : Solver.t) ->
      ( solver.Solver.name,
        List.init num_instances (fun j -> metrics.((ti * num_instances) + j)) ))
    teams

let run_suite ?(teams = Teams.all) ?(progress = true) ?(jobs = 1) ?time_limit
    ?fuel ?journal config =
  phase_span "suite" @@ fun () ->
  let instances =
    phase_span "suite.instantiate" (fun () -> instances_of ~jobs config)
  in
  let per_team =
    solve_grid ~teams ~progress ~jobs ?time_limit ?fuel ?journal instances
  in
  { config; instances; per_team }

(* ------------------------------------------------------------------ *)

let table3_of per_team =
  Report.heading "Table III: performance of the different teams";
  let rows =
    per_team
    |> List.map (fun (team, ms) -> Score.team_summary ~team ms)
    |> Score.sort_rows
    |> List.map (fun (r : Score.team_row) ->
           [ r.Score.team;
             Printf.sprintf "%.2f" r.Score.avg_test;
             Printf.sprintf "%.2f" r.Score.avg_train;
             Printf.sprintf "%.2f" r.Score.avg_gates;
             Printf.sprintf "%.2f" r.Score.avg_levels;
             Printf.sprintf "%.2f" r.Score.overfit;
             string_of_int r.Score.timeouts;
             string_of_int r.Score.crashes;
             string_of_int r.Score.fallbacks ])
  in
  Report.table
    ~header:
      [ "team"; "test accuracy"; "train accuracy"; "And gates"; "levels";
        "overfit"; "t/o"; "crash"; "fb" ]
    rows

let table3 run = table3_of run.per_team

let degraded_rows per_team =
  List.concat_map
    (fun (team, ms) ->
      List.filter_map
        (fun (m : Score.metrics) ->
          if m.Score.timeouts > 0 || m.Score.crashes > 0 || m.Score.fell_back
          then Some (team, m)
          else None)
        ms)
    per_team

(* End-of-run failure summary.  The "degraded rows:" line is a stable
   marker: the CI resilience job greps for it to assert that an injected-
   fault run completed with degraded rows instead of dying, and the
   --fail-degraded gate quotes its count in the exit message. *)
let print_failure_summary ~name_of per_team =
  let degraded = degraded_rows per_team in
  let total f = List.fold_left (fun acc (_, m) -> acc + f m) 0 degraded in
  Printf.printf "\ndegraded rows: %d (timeouts=%d crashes=%d fallbacks=%d)\n"
    (List.length degraded)
    (total (fun m -> m.Score.timeouts))
    (total (fun m -> m.Score.crashes))
    (total (fun (m : Score.metrics) -> if m.Score.fell_back then 1 else 0));
  if degraded <> [] then begin
    let time_lost =
      List.fold_left (fun acc (_, m) -> acc +. m.Score.wall_s) 0.0 degraded
    in
    Printf.printf "time lost to degraded tasks: %.1fs\n" time_lost;
    Report.table
      ~header:[ "task"; "technique"; "t/o"; "crash"; "fallback"; "wall (s)" ]
      (List.map
         (fun (team, (m : Score.metrics)) ->
           [ Printf.sprintf "%s/%s" team (name_of m.Score.benchmark);
             m.Score.technique;
             string_of_int m.Score.timeouts;
             string_of_int m.Score.crashes;
             (if m.Score.fell_back then "yes" else "");
             Printf.sprintf "%.1f" m.Score.wall_s ])
         degraded)
  end

let failure_summary run =
  print_failure_summary
    ~name_of:(fun id -> (S.benchmark id).S.name)
    run.per_team

let fig1 () =
  Report.heading "Fig. 1: representations used by the teams";
  let all_techniques =
    [ "trees"; "neural-nets"; "lut-network"; "espresso"; "standard-functions" ]
  in
  let rows =
    List.map
      (fun (t : Solver.t) ->
        t.Solver.name
        :: List.map
             (fun tech -> if List.mem tech t.Solver.techniques then "x" else "")
             all_techniques)
      Teams.all
  in
  Report.table ~header:("team" :: all_techniques) rows

let fig2 run =
  Report.heading "Fig. 2: accuracy-size trade-off";
  print_endline "Per-team averages (x marks in the paper's figure):";
  Report.table ~header:[ "team"; "avg gates"; "avg test acc (%)" ]
    (List.map
       (fun (team, ms) ->
         let r = Score.team_summary ~team ms in
         [ team;
           Printf.sprintf "%.1f" r.Score.avg_gates;
           Printf.sprintf "%.2f" r.Score.avg_test ])
       run.per_team);
  (* Virtual-best sweep: best accuracy attainable per benchmark when only
     solutions of at most [cap] gates are admitted. *)
  print_endline "\nVirtual-best Pareto sweep over gate caps:";
  let caps = [ 50; 100; 200; 400; 800; 1600; 3200; 5000 ] in
  let all_metrics = List.concat_map snd run.per_team in
  let ids = List.map (fun (i : S.instance) -> i.S.spec.S.id) run.instances in
  let rows =
    List.map
      (fun cap ->
        let per_bench =
          List.map
            (fun id ->
              List.fold_left
                (fun acc (m : Score.metrics) ->
                  if m.Score.benchmark = id && m.Score.gates <= cap then
                    max acc m.Score.test_acc
                  else acc)
                0.5 all_metrics)
            ids
        in
        let avg =
          List.fold_left ( +. ) 0.0 per_bench /. float_of_int (List.length per_bench)
        in
        [ string_of_int cap; Report.fmt_pct avg ])
      caps
  in
  Report.table ~header:[ "gate cap"; "avg best accuracy (%)" ] rows

let fig3 run =
  Report.heading "Fig. 3: maximum accuracy achieved for each benchmark";
  let best = Score.virtual_best run.per_team in
  Report.bars
    (List.map
       (fun (m : Score.metrics) ->
         ((S.benchmark m.Score.benchmark).S.name, 100.0 *. m.Score.test_acc))
       best)

let fig4 run =
  Report.heading "Fig. 4: win rate per team (best accuracy / top-1%)";
  let rates = Score.win_rates run.per_team in
  Report.table ~header:[ "team"; "best"; "top-1%" ]
    (List.map
       (fun (w : Score.win_rate) ->
         [ w.Score.team; string_of_int w.Score.wins; string_of_int w.Score.top1 ])
       (List.sort (fun a b -> compare b.Score.wins a.Score.wins) rates))

let fig32_33 run =
  Report.heading "Figs. 32 & 33: Team-10 per-benchmark accuracy and size";
  match List.assoc_opt "team10" run.per_team with
  | None -> print_endline "(team10 not part of this run)"
  | Some ms ->
      Report.table ~header:[ "benchmark"; "test acc (%)"; "AIG nodes" ]
        (List.map
           (fun (m : Score.metrics) ->
             [ (S.benchmark m.Score.benchmark).S.name;
               Report.fmt_pct m.Score.test_acc;
               string_of_int m.Score.gates ])
           ms)

(* ------------------------------------------------------------------ *)
(* Team 3 study: Table IV / Table V / Figs. 16-17                      *)
(* ------------------------------------------------------------------ *)

let avg l = List.fold_left ( +. ) 0.0 l /. float_of_int (max 1 (List.length l))

let team3_methods (inst : S.instance) =
  let num_inputs = D.num_inputs inst.S.train in
  let dt_params =
    { Dtree.Train.default_params with Dtree.Train.max_depth = Some 12; min_samples = 5 }
  in
  let measure name aig =
    ( name,
      Solver.evaluate aig inst.S.train,
      Solver.evaluate aig inst.S.valid,
      Solver.evaluate aig inst.S.test,
      G.num_ands (Aig.Opt.cleanup aig) )
  in
  let dt =
    measure "DT" (Synth.Tree_synth.aig_of_tree ~num_inputs (Dtree.Train.train dt_params inst.S.train))
  in
  let fr_dt =
    let m =
      Dtree.Fringe.train ~max_rounds:4 ~max_features:(num_inputs + 60) dt_params inst.S.train
    in
    measure "Fr-DT" (Synth.Tree_synth.aig_of_fringe_model ~num_inputs m)
  in
  let nn =
    measure "NN"
      (Teams.mlp_lut_candidate ~seed:inst.S.spec.S.id ~train:inst.S.train
         ~valid:inst.S.valid (D.append inst.S.train inst.S.valid))
  in
  let lutnet =
    let params = { Lutnet.default_params with Lutnet.seed = inst.S.spec.S.id } in
    measure "LUT-Net" (Lutnet.to_aig (Lutnet.train params inst.S.train))
  in
  let ensemble =
    let r = Teams.team3.Solver.solve inst in
    measure "ensemble" r.Solver.aig
  in
  [ dt; fr_dt; nn; lutnet; ensemble ]

let table4_fig16_17 config =
  let instances = instances_of config in
  let per_instance = List.map (fun i -> (i, team3_methods i)) instances in
  Report.heading "Table IV: Team-3 method comparison (averages)";
  let methods = [ "DT"; "Fr-DT"; "NN"; "LUT-Net"; "ensemble" ] in
  let rows =
    List.map
      (fun name ->
        let entries =
          List.filter_map
            (fun (_, ms) ->
              List.find_opt (fun (n, _, _, _, _) -> n = name) ms)
            per_instance
        in
        let f sel = avg (List.map sel entries) in
        [ name;
          Report.fmt_pct (f (fun (_, t, _, _, _) -> t));
          Report.fmt_pct (f (fun (_, _, v, _, _) -> v));
          Report.fmt_pct (f (fun (_, _, _, t, _) -> t));
          Printf.sprintf "%.1f" (f (fun (_, _, _, _, s) -> float_of_int s)) ])
      methods
  in
  Report.table
    ~header:[ "method"; "avg train acc"; "avg valid acc"; "avg test acc"; "avg size" ]
    rows;
  Report.heading "Figs. 16 & 17: per-benchmark test accuracy and size";
  Report.table
    ~header:("benchmark" :: List.concat_map (fun m -> [ m ^ " acc"; m ^ " size" ]) methods)
    (List.map
       (fun ((i : S.instance), ms) ->
         i.S.spec.S.name
         :: List.concat_map
              (fun name ->
                match List.find_opt (fun (n, _, _, _, _) -> n = name) ms with
                | Some (_, _, _, test, size) ->
                    [ Report.fmt_pct test; string_of_int size ]
                | None -> [ "-"; "-" ])
              methods)
       per_instance)

let table5 config =
  let instances = instances_of config in
  Report.heading "Table V: NN accuracy through pruning and synthesis";
  let stages =
    List.map
      (fun (inst : S.instance) ->
        let d = inst.S.train in
        let k = min 16 (D.num_inputs d) in
        let selection = Teams.top_k_features d k in
        let proj_train = Featsel.project d selection in
        let proj_valid = Featsel.project inst.S.valid selection in
        let proj_test = Featsel.project inst.S.test selection in
        let params =
          {
            Nnet.Mlp.default_params with
            Nnet.Mlp.hidden = [ 16; 8 ];
            epochs = 15;
            seed = inst.S.spec.S.id;
          }
        in
        let net = Nnet.Mlp.train ~validation:proj_valid params proj_train in
        let initial =
          ( Nnet.Mlp.accuracy net proj_train,
            Nnet.Mlp.accuracy net proj_valid,
            Nnet.Mlp.accuracy net proj_test )
        in
        let pruned =
          Nnet.Prune.prune_to_fanin ~rounds:2
            ~retrain:{ params with Nnet.Mlp.epochs = 5 }
            ~max_fanin:8 net proj_train
        in
        let after_prune =
          ( Nnet.Mlp.accuracy pruned proj_train,
            Nnet.Mlp.accuracy pruned proj_valid,
            Nnet.Mlp.accuracy pruned proj_test )
        in
        let aig = Nnet.Neuron_lut.to_aig ~num_inputs:k pruned in
        let after_synth =
          ( Nnet.Neuron_lut.quantized_accuracy aig proj_train,
            Nnet.Neuron_lut.quantized_accuracy aig proj_valid,
            Nnet.Neuron_lut.quantized_accuracy aig proj_test )
        in
        (initial, after_prune, after_synth))
      instances
  in
  let row name sel =
    let triples = List.map sel stages in
    [ name;
      Report.fmt_pct (avg (List.map (fun (a, _, _) -> a) triples));
      Report.fmt_pct (avg (List.map (fun (_, b, _) -> b) triples));
      Report.fmt_pct (avg (List.map (fun (_, _, c) -> c) triples)) ]
  in
  Report.table
    ~header:[ "NN config"; "avg train acc"; "avg valid acc"; "avg test acc" ]
    [ row "initial" (fun (a, _, _) -> a);
      row "after pruning" (fun (_, b, _) -> b);
      row "after synthesis" (fun (_, _, c) -> c) ]

(* ------------------------------------------------------------------ *)
(* Team 5 census: Table VI                                             *)
(* ------------------------------------------------------------------ *)

let table6 config =
  let instances = instances_of config in
  Report.heading "Table VI: Team-5 winning-configuration census";
  let tool_wins = Hashtbl.create 8
  and sel_wins = Hashtbl.create 8
  and score_wins = Hashtbl.create 8
  and prop_wins = Hashtbl.create 8 in
  let bump t k = Hashtbl.replace t k (1 + Option.value ~default:0 (Hashtbl.find_opt t k)) in
  List.iter
    (fun (inst : S.instance) ->
      let all = D.append inst.S.train inst.S.valid in
      let st = Random.State.make [| 56; inst.S.spec.S.id |] in
      let train80, valid = D.stratified_split st all ~ratio:0.8 in
      let train40, _ = D.split_at train80 (D.num_samples train80 / 2) in
      let num_inputs = D.num_inputs all in
      let candidates = ref [] in
      let add tool sel scorer prop aig =
        let aig = Solver.enforce_budget ~seed:inst.S.spec.S.id aig in
        let acc = Solver.evaluate aig valid in
        candidates := (acc, tool, sel, scorer, prop) :: !candidates
      in
      List.iter
        (fun (prop_name, train) ->
          let selections =
            [ ("none", "none", Array.init num_inputs Fun.id) ]
            @ (if num_inputs > 8 then
                 [ ( "kbest", "chi2",
                     Featsel.select_k_best Featsel.Chi2 ~k:(num_inputs / 2) train );
                   ( "kbest", "mutual_info",
                     Featsel.select_k_best Featsel.Mutual_info ~k:(num_inputs / 2) train );
                   ( "percentile", "chi2",
                     Featsel.select_percentile Featsel.Chi2 ~percentile:50.0 train ) ]
               else [])
          in
          List.iter
            (fun (sel_name, scorer, selection) ->
              List.iter
                (fun depth ->
                  let proj = Featsel.project train selection in
                  let t =
                    Dtree.Train.train
                      { Dtree.Train.default_params with Dtree.Train.max_depth = Some depth }
                      proj
                  in
                  let aig =
                    Teams.lift_aig ~selection ~num_inputs
                      (Synth.Tree_synth.aig_of_tree
                         ~num_inputs:(Array.length selection) t)
                  in
                  add "DT" sel_name scorer prop_name aig)
                [ 10; 20 ])
            selections;
          let rf =
            Forest.Bagging.train ~rng:st
              {
                Forest.Bagging.default_params with
                Forest.Bagging.num_trees = 3;
                tree =
                  { Dtree.Train.default_params with Dtree.Train.max_depth = Some 10 };
              }
              train
          in
          add "RF" "none" "none" prop_name (Forest.Bagging.to_aig ~num_inputs rf);
          let _, aig = Teams.nn_formula_candidate ~seed:inst.S.spec.S.id train in
          add "NN" "none" "none" prop_name aig)
        [ ("80-20", train80); ("40-20", train40) ];
      match List.sort (fun (a, _, _, _, _) (b, _, _, _, _) -> compare b a) !candidates with
      | (_, tool, sel, scorer, prop) :: _ ->
          bump tool_wins tool;
          bump sel_wins sel;
          bump score_wins scorer;
          bump prop_wins prop
      | [] -> ())
    instances;
  let print_counts title t =
    Printf.printf "\n%s:\n" title;
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) t []
    |> List.sort (fun (_, a) (_, b) -> compare b a)
    |> List.iter (fun (k, v) -> Printf.printf "  %-12s %d\n" k v)
  in
  print_counts "Decision tool" tool_wins;
  print_counts "Feature selection" sel_wins;
  print_counts "Scoring function" score_wins;
  print_counts "Proportion" prop_wins

(* ------------------------------------------------------------------ *)
(* Team 9: Table VII + bootstrap-vs-random study                       *)
(* ------------------------------------------------------------------ *)

let table7_cgp config =
  Report.heading "Table VII: CGP hyper-parameters by initialization";
  Report.table
    ~header:[ "initialization"; "AIG size"; "train/test"; "batch"; "change each" ]
    [ [ "bootstrap"; "2x seed AIG"; "40-40/20"; "half train set"; "n/a" ];
      [ "random"; "500, 5000"; "80/20"; "1024 / full"; "500, 2000" ] ];
  Report.heading "CGP study: seed vs bootstrapped vs random initialization";
  let instances = instances_of config in
  let rows =
    List.filter_map
      (fun (inst : S.instance) ->
        let num_inputs = D.num_inputs inst.S.train in
        let st = Random.State.make [| 97; inst.S.spec.S.id |] in
        let seed_train, cgp_train = D.split_ratio st inst.S.train ~ratio:0.5 in
        let seed_aig =
          Synth.Tree_synth.aig_of_tree ~num_inputs
            (Dtree.Train.train
               { Dtree.Train.default_params with Dtree.Train.max_depth = Some 10;
                 min_samples = 5 }
               seed_train)
        in
        if G.num_ands seed_aig > 800 then None
        else begin
          let seed_acc = Solver.evaluate seed_aig inst.S.test in
          let boot, _ =
            Cgp.evolve
              ~initial:(Cgp.of_aig st seed_aig)
              { Cgp.default_params with Cgp.generations = 600; seed = inst.S.spec.S.id }
              cgp_train
          in
          let boot_aig = Cgp.to_aig boot in
          let rand, _ =
            Cgp.evolve
              {
                Cgp.default_params with
                Cgp.generations = 1500;
                function_set = Cgp.Xaig_ops;
                batch_size = Some 1024;
                change_batch_every = 500;
                seed = inst.S.spec.S.id;
              }
              inst.S.train
          in
          let rand_aig = Cgp.to_aig rand in
          Some
            [ inst.S.spec.S.name;
              Report.fmt_pct seed_acc;
              Report.fmt_pct (Solver.evaluate boot_aig inst.S.test);
              string_of_int (G.num_ands boot_aig);
              Report.fmt_pct (Solver.evaluate rand_aig inst.S.test);
              string_of_int (G.num_ands rand_aig) ]
        end)
      instances
  in
  Report.table
    ~header:
      [ "benchmark"; "seed acc"; "bootstrap acc"; "boot gates"; "random acc";
        "rand gates" ]
    rows

(* ------------------------------------------------------------------ *)
(* Team 1: Figs. 5-7                                                   *)
(* ------------------------------------------------------------------ *)

let fig5_6 config =
  let instances = instances_of config in
  Report.heading "Figs. 5 & 6: Team-1 per-method test accuracy and AIG size";
  let rows =
    List.map
      (fun (inst : S.instance) ->
        let num_inputs = D.num_inputs inst.S.train in
        let espresso =
          match Teams.espresso_candidate inst.S.train with
          | Some (_, aig) ->
              (Solver.evaluate aig inst.S.test, G.num_ands (Aig.Opt.cleanup aig))
          | None -> (Float.nan, 0)
        in
        let lutnet =
          let params = { Lutnet.default_params with Lutnet.seed = inst.S.spec.S.id } in
          let aig = Lutnet.to_aig (Lutnet.train params inst.S.train) in
          (Solver.evaluate aig inst.S.test, G.num_ands aig)
        in
        let forest =
          let rng = Random.State.make [| 15; inst.S.spec.S.id |] in
          let f =
            Forest.Bagging.train ~rng
              { Forest.Bagging.default_params with Forest.Bagging.num_trees = 9 }
              inst.S.train
          in
          let aig = Forest.Bagging.to_aig ~num_inputs f in
          (Solver.evaluate aig inst.S.test, G.num_ands aig)
        in
        let fmt (acc, size) =
          if Float.is_nan acc then [ "-"; "-" ]
          else [ Report.fmt_pct acc; string_of_int size ]
        in
        (inst.S.spec.S.name :: fmt espresso) @ fmt lutnet @ fmt forest)
      instances
  in
  Report.table
    ~header:
      [ "benchmark"; "espresso acc"; "esp size"; "lutnet acc"; "lutnet size";
        "forest acc"; "forest size" ]
    rows

let fig7 config =
  Report.heading "Fig. 7: LUT-net accuracy and size before/after approximation";
  let instances = instances_of config in
  let rows =
    List.map
      (fun (inst : S.instance) ->
        let params =
          {
            Lutnet.default_params with
            Lutnet.layer_width = 256;
            num_layers = 6;
            seed = inst.S.spec.S.id;
          }
        in
        let aig = Lutnet.to_aig (Lutnet.train params inst.S.train) in
        let before_acc = Solver.evaluate aig inst.S.test in
        let before_size = G.num_ands aig in
        let st = Random.State.make [| 7; inst.S.spec.S.id |] in
        let shrunk, _ =
          Aig.Approx.approximate
            ~patterns:(D.columns inst.S.train)
            st aig ~budget:(max 100 (before_size / 4))
        in
        [ inst.S.spec.S.name;
          Report.fmt_pct before_acc;
          string_of_int before_size;
          Report.fmt_pct (Solver.evaluate shrunk inst.S.test);
          string_of_int (G.num_ands shrunk) ])
      instances
  in
  Report.table
    ~header:[ "benchmark"; "acc before"; "size before"; "acc after"; "size after" ]
    rows

(* ------------------------------------------------------------------ *)
(* Team 2: Figs. 11-12                                                 *)
(* ------------------------------------------------------------------ *)

let fig11_12 config =
  Report.heading "Figs. 11 & 12: J48-style trees vs PART rules";
  let instances = instances_of config in
  let rows =
    List.map
      (fun (inst : S.instance) ->
        let num_inputs = D.num_inputs inst.S.train in
        let best_tree =
          List.map
            (fun min_samples ->
              let t =
                Dtree.Train.train
                  { Dtree.Train.default_params with
                    Dtree.Train.max_depth = Some 12; min_samples }
                  inst.S.train
              in
              let aig = Synth.Tree_synth.aig_of_tree ~num_inputs t in
              (Solver.evaluate aig inst.S.valid, Solver.evaluate aig inst.S.test,
               G.num_ands (Aig.Opt.cleanup aig)))
            [ 2; 5; 10 ]
          |> List.sort compare |> List.rev |> List.hd
        in
        let best_part =
          List.map
            (fun min_coverage ->
              let m =
                Rules.Part.train
                  { Rules.Part.default_params with Rules.Part.min_coverage }
                  inst.S.train
              in
              let aig = Rules.Part.to_aig ~num_inputs m in
              (Solver.evaluate aig inst.S.valid, Solver.evaluate aig inst.S.test,
               G.num_ands (Aig.Opt.cleanup aig)))
            [ 2; 5 ]
          |> List.sort compare |> List.rev |> List.hd
        in
        let _, j48_test, j48_size = best_tree in
        let _, part_test, part_size = best_part in
        [ inst.S.spec.S.name;
          Report.fmt_pct j48_test; string_of_int j48_size;
          Report.fmt_pct part_test; string_of_int part_size ])
      instances
  in
  Report.table
    ~header:[ "benchmark"; "J48 acc"; "J48 ANDs"; "PART acc"; "PART ANDs" ]
    rows

(* ------------------------------------------------------------------ *)
(* Team 4: Fig. 21                                                     *)
(* ------------------------------------------------------------------ *)

let fig21 config =
  Report.heading "Fig. 21: Team-4 per-benchmark validation accuracy and nodes";
  let instances = instances_of config in
  let rows =
    List.map
      (fun (inst : S.instance) ->
        let r = Teams.team4.Solver.solve inst in
        [ inst.S.spec.S.name;
          Report.fmt_pct (Solver.evaluate r.Solver.aig inst.S.valid);
          string_of_int (G.num_ands (Aig.Opt.cleanup r.Solver.aig)) ])
      instances
  in
  Report.table ~header:[ "benchmark"; "valid acc"; "nodes" ] rows

(* ------------------------------------------------------------------ *)
(* Appendix (Team 1): BDD learning with don't-care minimization        *)
(* ------------------------------------------------------------------ *)

let style_name = function
  | Bdd.One_sided -> "one-sided"
  | Bdd.Two_sided -> "two-sided"
  | Bdd.Complemented_two_sided -> "complemented"

(* Sample [samples] labelled rows of [oracle] over [n] inputs. *)
let sampled_dataset st ~n ~samples oracle =
  D.create ~num_inputs:n
    (List.init samples (fun _ ->
         let bits = Array.init n (fun _ -> Random.State.bool st) in
         (bits, oracle bits)))

(* Permute dataset columns into BDD variable order. *)
let reorder_dataset d order =
  let columns = D.columns d in
  D.of_columns (Array.map (fun i -> columns.(i)) order) (D.outputs d)

let appendix_bdd config =
  Report.heading
    "Appendix (Team 1): BDD don't-care minimization learning adders";
  let samples = min config.sizes.S.train 3200 in
  let adder_rows =
    List.concat_map
      (fun k ->
        let n = 2 * k in
        let oracle = Benchgen.Arith_bench.adder_bit ~k ~bit:(k - 1) in
        (* MSB-first, words interleaved: a[k-1] b[k-1] a[k-2] b[k-2] ... *)
        let order =
          Array.init n (fun pos ->
              let bit = k - 1 - (pos / 2) in
              if pos mod 2 = 0 then bit else k + bit)
        in
        let st = Random.State.make [| 0xbdd; k |] in
        let train = reorder_dataset (sampled_dataset st ~n ~samples oracle) order in
        let test =
          reorder_dataset (sampled_dataset st ~n ~samples:1000 oracle) order
        in
        let m = Bdd.create ~num_vars:n in
        let f = Bdd.on_set_of_dataset m train in
        let care = Bdd.care_set_of_dataset m train in
        List.map
          (fun style ->
            let g = Bdd.minimize m style ~f ~care in
            [ Printf.sprintf "adder-%d bit %d" k (k - 1);
              style_name style;
              Report.fmt_pct (Bdd.accuracy m g test);
              string_of_int (Bdd.size m g) ])
          [ Bdd.One_sided; Bdd.Two_sided; Bdd.Complemented_two_sided ])
      [ 8; 16 ]
  in
  Report.table ~header:[ "function"; "matching"; "test acc"; "BDD nodes" ]
    adder_rows;
  Report.heading "Appendix: BDDs learn large XORs (node sharing)";
  let xor_rows =
    List.concat_map
      (fun n ->
        let st = Random.State.make [| 0x0d; n |] in
        let train =
          sampled_dataset st ~n ~samples Benchgen.Arith_bench.parity
        in
        let test =
          sampled_dataset st ~n ~samples:1000 Benchgen.Arith_bench.parity
        in
        let m = Bdd.create ~num_vars:n in
        let f = Bdd.on_set_of_dataset m train in
        let care = Bdd.care_set_of_dataset m train in
        List.map
          (fun style ->
            let g = Bdd.minimize m style ~f ~care in
            [ Printf.sprintf "%d-XOR" n;
              style_name style;
              Report.fmt_pct (Bdd.accuracy m g test);
              string_of_int (Bdd.size m g) ])
          [ Bdd.One_sided; Bdd.Complemented_two_sided ])
      [ 12; 16 ]
  in
  Report.table ~header:[ "function"; "matching"; "test acc"; "BDD nodes" ]
    xor_rows

(* ------------------------------------------------------------------ *)
(* Ablations of the reproduction's own design choices                  *)
(* ------------------------------------------------------------------ *)

let ablations config =
  let instances =
    List.filter
      (fun (i : S.instance) -> D.num_inputs i.S.train <= 40)
      (instances_of config)
  in
  Report.heading "Ablation: espresso pass count (accuracy / cubes)";
  let rows =
    List.map
      (fun (inst : S.instance) ->
        inst.S.spec.S.name
        :: List.concat_map
             (fun passes ->
               let config =
                 { Sop.Espresso.default_config with Sop.Espresso.max_passes = passes }
               in
               let cover, complemented =
                 Sop.Espresso.minimize_best_polarity ~config inst.S.train
               in
               let aig = Synth.Sop_synth.aig_of_cover ~complemented cover in
               [ Report.fmt_pct (Solver.evaluate aig inst.S.test);
                 string_of_int (Sop.Cover.num_cubes cover) ])
             [ 1; 3 ])
      instances
  in
  Report.table
    ~header:[ "benchmark"; "1-pass acc"; "cubes"; "3-pass acc"; "cubes" ]
    rows;

  Report.heading "Ablation: fringe feature extraction rounds (test accuracy)";
  let all_instances = instances_of config in
  let rows =
    List.map
      (fun (inst : S.instance) ->
        let num_inputs = D.num_inputs inst.S.train in
        inst.S.spec.S.name
        :: List.map
             (fun rounds ->
               let m =
                 Dtree.Fringe.train ~max_rounds:rounds
                   ~max_features:(num_inputs + 60)
                   { Dtree.Train.default_params with
                     Dtree.Train.max_depth = Some 12; min_samples = 5 }
                   inst.S.train
               in
               Report.fmt_pct (Dtree.Fringe.accuracy m inst.S.test))
             [ 1; 2; 4; 6 ])
      all_instances
  in
  Report.table
    ~header:[ "benchmark"; "1 round (plain DT)"; "2"; "4"; "6" ]
    rows;

  Report.heading "Ablation: functional-decomposition threshold (test accuracy)";
  let rows =
    List.map
      (fun (inst : S.instance) ->
        inst.S.spec.S.name
        :: List.map
             (fun tau ->
               let params =
                 {
                   Dtree.Train.default_params with
                   Dtree.Train.max_depth = Some 14;
                   min_samples = 2;
                   decomp_threshold = (if tau > 0.0 then Some tau else None);
                 }
               in
               let t = Dtree.Train.train params inst.S.train in
               Report.fmt_pct (Dtree.Train.accuracy t inst.S.test))
             [ 0.0; 0.05; 0.2 ])
      all_instances
  in
  Report.table ~header:[ "benchmark"; "off"; "tau=0.05"; "tau=0.2" ] rows;

  Report.heading "Ablation: approximation protected levels (acc at 1/4 budget)";
  let rows =
    List.filter_map
      (fun (inst : S.instance) ->
        let params =
          { Lutnet.default_params with Lutnet.layer_width = 128; num_layers = 4;
            seed = inst.S.spec.S.id }
        in
        let aig = Lutnet.to_aig (Lutnet.train params inst.S.train) in
        let size = G.num_ands aig in
        if size < 200 then None
        else
          Some
            (inst.S.spec.S.name :: string_of_int size
            :: List.map
                 (fun protect ->
                   let st = Random.State.make [| 0xab1; inst.S.spec.S.id |] in
                   let shrunk, _ =
                     Aig.Approx.approximate ~protect_levels:protect
                       ~patterns:(D.columns inst.S.train) st aig
                       ~budget:(size / 4)
                   in
                   Report.fmt_pct (Solver.evaluate shrunk inst.S.test))
                 [ 0; 2; 4; 8 ]))
      all_instances
  in
  Report.table
    ~header:[ "benchmark"; "size"; "protect 0"; "2"; "4"; "8" ]
    rows

(* ------------------------------------------------------------------ *)
(* Team 7 explanatory analysis: Figs. 26-27                            *)
(* ------------------------------------------------------------------ *)

let fig26_27 config =
  Report.heading
    "Figs. 26 & 27: input-bit importance exposes word structure (Team 7)";
  (* A 16-bit comparator and the MSB of a 10-bit multiplier: train the
     boosted-tree model and compare correlation vs permutation importance
     per input bit. *)
  let cases =
    [ ("comparator a<b, k=16", 16, fun bits -> Benchgen.Arith_bench.comparator ~k:16 bits);
      ("multiplier MSB, k=10", 10, fun bits ->
          Benchgen.Arith_bench.multiplier_bit ~k:10 ~bit:19 bits) ]
  in
  let samples = min config.sizes.S.train 3000 in
  List.iter
    (fun (name, k, oracle) ->
      let n = 2 * k in
      let st = Random.State.make [| 0x5a9; k |] in
      let d =
        D.create ~num_inputs:n
          (List.init samples (fun _ ->
               let bits = Array.init n (fun _ -> Random.State.bool st) in
               (bits, oracle bits)))
      in
      let correlation = Featsel.scores Featsel.Correlation d in
      let model =
        Forest.Boosting.train
          { Forest.Boosting.default_params with Forest.Boosting.num_trees = 40;
            max_depth = 4; seed = k }
          d
      in
      let importance =
        Featsel.permutation_importance
          ~rng:(Random.State.make [| 0x26; k |])
          ~predict:(Forest.Boosting.predict_mask model)
          ~repeats:2 d
      in
      Printf.printf "\n%s — word A bits then word B bits (LSB first):\n" name;
      print_endline "correlation |r| per bit:";
      Report.bars ~width:40
        (List.init n (fun i ->
             ( Printf.sprintf "%s%02d" (if i < k then "a" else "b") (i mod k),
               correlation.(i) )));
      print_endline "permutation importance per bit:";
      Report.bars ~width:40
        (List.init n (fun i ->
             ( Printf.sprintf "%s%02d" (if i < k then "a" else "b") (i mod k),
               max 0.0 importance.(i) ))))
    cases
