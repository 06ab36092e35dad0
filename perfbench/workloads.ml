(* The four workloads.  Each drives the system through its public entry
   points, checks every output it times, and reports either the
   end-to-end metrics (untraced run) or the per-layer ones (a traced
   pass after an untraced one, whose difference is the tracing cost). *)

module S = Benchgen.Suite
module D = Data.Dataset
module E = Contest.Experiments
module Solver = Contest.Solver
module J = Serve.Json
module P = Serve.Protocol

type config = {
  seed : int;
  seconds : float;
  trace : bool;
  smoke : bool;  (** tiny inputs: every path and check in a few seconds *)
  dir : string;  (** run directory: sockets, cache logs, trace files *)
}

type outcome = {
  attempted : int;
  failed : int;  (** failed or degraded operations *)
  problems : string list;  (** failed correctness checks *)
  metrics : (string * float) list;
      (** every metric the run measured; the printer picks the listed ones *)
}

(* Names and units, in print order; BENCHMARK.json lists the same (the
   smoke test holds the two together).  Every workload reports every
   name; a layer a workload does not exercise reads 0.  Per-layer times
   and counts are per operation, so they compare across runs that
   complete different numbers of cycles. *)
let end_to_end =
  [
    ("ops_per_s", "1/s");
    ("latency_p50_ms", "ms");
    ("latency_p90_ms", "ms");
    ("setup_s", "s");
    ("test_acc_mean", "%");
  ]

let per_layer =
  [
    ("peak_rss_mb", "MB");
    ("gates_mean", "count");
    ("contest.train_ms", "ms");
    ("nnet.train_ms", "ms");
    ("dtree.train_ms", "ms");
    ("forest.train_ms", "ms");
    ("lutnet.train_ms", "ms");
    ("rules.train_ms", "ms");
    ("contest.solve_self_ms", "ms");
    ("contest.budget_ms", "ms");
    ("sop.espresso_ms", "ms");
    ("aig.approx_ms", "ms");
    ("aig.approx_replacements", "count");
    ("aig.engine_batch_ms", "ms");
    ("aig.engine_prune_ratio", "ratio");
    ("parallel.idle_frac", "ratio");
    ("parallel.steals", "count");
    ("data.pla_parse_ms", "ms");
    ("repair.repair_ms", "ms");
    ("repair.proof_only_ms", "ms");
    ("repair.patch_ms", "ms");
    ("repair.sat_share", "ratio");
    ("repair.iterations", "count");
    ("repair.counterexamples", "count");
    ("repair.resub_patches", "count");
    ("repair.mux_patches", "count");
    ("repair.sweeps", "count");
    ("repair.sat_conflicts", "count");
    ("repair.exact_frac", "ratio");
    ("sat.solve_ms", "ms");
    ("sat.solve_calls", "count");
    ("sat.propagations", "count");
    ("contest.sweep_ms", "ms");
    ("aig.io_ms", "ms");
    ("serve.handler_ms", "ms");
    ("serve.queue_wait_p50_us", "us");
    ("serve.hit_ratio", "ratio");
    ("serve.request_kb", "KB");
    ("serve.protocol_parse_ms", "ms");
    ("serve.fingerprint_ms", "ms");
    ("serve.cache_find_us", "us");
    ("serve.cache_log_kb", "KB");
    ("serve.replay_ms", "ms");
    ("traced_ops_per_s", "1/s");
  ]

let now = Unix.gettimeofday
let log fmt = Printf.ksprintf (fun s -> prerr_endline ("[perfbench] " ^ s)) fmt

let tiny = { S.train = 60; valid = 30; test = 30 }

let instantiate ~seed sizes ids =
  Array.of_list (List.map (fun id -> S.instantiate ~sizes ~seed (S.benchmark id)) ids)

(* Set-up is repeated and its median reported, so one slow repetition
   does not decide the number; every repetition but the last is
   disposed of. *)
let timed_setup ?(dispose = ignore) f =
  let reps = 3 in
  let rec go k times =
    let t0 = now () in
    let v = f () in
    let times = (now () -. t0) :: times in
    if k = reps then (v, Stats.median times)
    else begin
      dispose v;
      go (k + 1) times
    end
  in
  go 1 []

type pass = { ops : int; wall : float; latencies : float list }

(* Whole cycles of work: [min] of them, then more while the next is
   predicted to end within [seconds].  Every run measures whole cycles,
   so the mix of operations is the same however fast the code under
   test is, and the first [min] cycles are the same work on every run. *)
let cycles ?(min = 1) ~name ~ops ~seconds f =
  let t0 = now () in
  let rec go k acc =
    let t = now () in
    let acc = f k :: acc in
    log "%s: cycle %d, %d operations in %.2f s" name (k + 1) ops (now () -. t);
    let elapsed = now () -. t0 in
    if k + 1 < min || elapsed /. float_of_int (k + 1) *. float_of_int (k + 2) <= seconds
    then go (k + 1) acc
    else (List.rev acc, elapsed)
  in
  go 0 []

(* What every pass measures.  Test accuracy and gate counts are
   deterministic for a seed; they come from a fixed part of the work.
   A traced pass's throughput is printed as [traced_ops_per_s]. *)
let measured cfg (p : pass) ~setup_s ~peak_rss_mb ~test_acc ~gates =
  let ops_per_s = float_of_int p.ops /. p.wall in
  [
    ((if cfg.trace then "traced_ops_per_s" else "ops_per_s"), ops_per_s);
    ("latency_p50_ms", 1000.0 *. Stats.quantile 0.5 p.latencies);
    ("latency_p90_ms", 1000.0 *. Stats.quantile 0.9 p.latencies);
    ("setup_s", setup_s);
    ("test_acc_mean", 100.0 *. Stats.mean test_acc);
    ("gates_mean", Stats.mean (List.map float_of_int gates));
    ("peak_rss_mb", peak_rss_mb);
  ]

let counter name =
  float_of_int (Option.value (List.assoc_opt name (Telemetry.counters ())) ~default:0)

let per_op (p : pass) x = x /. float_of_int (max 1 p.ops)

let write_trace cfg name =
  let path = Filename.concat cfg.dir (name ^ ".trace.json") in
  Telemetry.write_trace path;
  log "%s: Perfetto trace written to %s" name path

let telemetry_nodes () =
  Rollup.self_times (List.map Rollup.of_telemetry (Telemetry.spans ()))

let failed_ops n = if n = 0 then [] else [ Printf.sprintf "%d operations failed" n ]

(* A run measures one pass: untraced for the end-to-end metrics, or
   with the library's telemetry recording from a clean slate for the
   per-layer ones (the spans and counters stay readable afterwards).
   The tracing cost is the difference between the two kinds of run. *)
let run_pass cfg f =
  if not cfg.trace then f ()
  else begin
    Telemetry.reset ();
    Telemetry.enable ();
    Fun.protect ~finally:Telemetry.disable f
  end

(* ------------------------------------------------------------------ *)
(* contest-grid: the paper's experiment on one id per block of ten     *)
(* ------------------------------------------------------------------ *)

let grid_ids = [ 5; 14; 28; 33; 41; 52; 61; 71; 83; 90 ]

let contest_grid cfg =
  let ids, sizes = if cfg.smoke then ([ 5 ], tiny) else (grid_ids, S.reduced_sizes) in
  let instances, setup_s =
    timed_setup (fun () -> Array.to_list (instantiate ~seed:cfg.seed sizes ids))
  in
  let tasks = List.length instances * List.length Contest.Teams.all in
  (* Each team's solve is timed from inside the grid, so the latency of
     every (team, benchmark) task is known without telemetry. *)
  let mu = Mutex.create () and latencies = ref [] in
  let timed (t : Solver.t) =
    {
      t with
      Solver.solve =
        (fun inst ->
          let t0 = now () in
          let r = t.Solver.solve inst in
          let dt = now () -. t0 in
          Mutex.protect mu (fun () -> latencies := dt :: !latencies);
          r);
    }
  in
  let teams = List.map timed Contest.Teams.all in
  let grids, wall =
    run_pass cfg (fun () ->
        cycles ~name:"contest-grid" ~ops:tasks ~seconds:cfg.seconds (fun _ ->
            E.solve_grid ~teams ~progress:false ~jobs:2 instances))
  in
  let p = { ops = tasks * List.length grids; wall; latencies = !latencies } in
  let lines g =
    List.concat_map (fun (_, ms) -> List.map Contest.Score.metrics_to_line ms) g
  in
  let first = List.hd grids in
  let rows = List.concat_map snd first in
  let failed = List.fold_left (fun acc g -> acc + List.length (E.degraded_rows g)) 0 grids in
  let problems =
    failed_ops failed
    @ (if List.exists (fun (m : Contest.Score.metrics) -> m.gates > Solver.gate_budget) rows
       then [ "a grid circuit exceeds the 5000-gate budget" ]
       else [])
    @
    if List.exists (fun g -> lines g <> lines first) grids then
      [ "grid rows differ between cycles of the same run" ]
    else []
  in
  let metrics =
    measured cfg p ~setup_s ~peak_rss_mb:(Host.peak_rss_mb ())
      ~test_acc:(List.map (fun (m : Contest.Score.metrics) -> m.test_acc) rows)
      ~gates:(List.map (fun (m : Contest.Score.metrics) -> m.gates) rows)
  in
  if not cfg.trace then { attempted = p.ops; failed; problems; metrics }
  else begin
    write_trace cfg "contest-grid";
    let nodes = telemetry_nodes () in
    let solve_us =
      Rollup.sum (fun n -> if n.Rollup.span.name = "solve" then n.span.dur_us else 0.0) nodes
    in
    let rolled_us =
      Rollup.sum (fun n -> if Rollup.within "solve" n then n.Rollup.self_us else 0.0) nodes
    in
    {
      attempted = p.ops;
      failed;
      problems =
        (problems
        @
        if Float.abs (rolled_us -. solve_us) <= 0.01 *. solve_us then []
        else [ "self times of the solve span trees do not sum to the solve time" ]);
      metrics =
        metrics
        @ Rollup.per_op_ms ~ops:p.ops nodes
        @ [
            ("parallel.idle_frac", 1.0 -. (solve_us /. 1e6 /. (2.0 *. p.wall)));
            ("parallel.steals", per_op p (counter "pool.steals"));
            ( "aig.engine_prune_ratio",
              counter "engine.batch_early_exits"
              /. Float.max 1.0 (counter "engine.batch_candidates") );
            ("aig.approx_replacements", per_op p (counter "approx.replacements"));
            ("sat.solve_calls", per_op p (counter "sat.solve_calls"));
            ("sat.propagations", per_op p (counter "sat.propagations"));
          ];
    }
  end

(* ------------------------------------------------------------------ *)
(* repair-sweep: `lsml solve --team team10 --repair --sweep`, in process *)
(* ------------------------------------------------------------------ *)

(* Adders, multipliers, square roots and symmetric functions, all at
   most 128 inputs wide (one repair of a wider id takes 5-14 s).  Some
   leave training errors for repair to patch, the rest take the
   proof-only path. *)
let repair_ids =
  List.init 5 Fun.id
  @ List.init 8 (fun i -> 20 + i)
  @ List.init 6 (fun i -> 40 + i)
  @ List.init 6 (fun i -> 74 + i)

let pla_text d = Data.Pla.print (Data.Pla.of_dataset d)
let dataset text = Data.Pla.to_dataset (Data.Pla.parse text)

(* [f] inside a bench-side span, with its wall seconds. *)
let stage name f =
  let t0 = now () in
  let v = Telemetry.span ~cat:"bench" name f in
  (v, (name, now () -. t0))

type repair_input = { train_pla : string; valid_pla : string; test : D.t }

type repaired = {
  stages : (string * float) list;
  stats : Repair.stats;
  train : D.t;
  valid : D.t;
  test : D.t;
  base : Aig.Graph.t;  (** the team10 circuit before repair *)
  circuit : Aig.Graph.t;
  aag : string;
}

let solve_repair (input : repair_input) =
  let (train, valid), s_parse =
    stage "data.pla_parse" (fun () -> (dataset input.train_pla, dataset input.valid_pla))
  in
  (* The instance `lsml solve` builds around user PLA files. *)
  let placeholder, _ = D.split_at valid 0 in
  let spec =
    {
      S.id = 0;
      name = "user";
      category = S.Logic_cone;
      num_inputs = D.num_inputs train;
      description = "user-supplied PLA";
    }
  in
  let inst = { S.spec; train; valid; test = placeholder } in
  let base, s_train =
    stage "dtree.train" (fun () -> Contest.Teams.team10.Solver.solve inst)
  in
  let (repaired, stats), s_repair =
    stage "repair.repair" (fun () -> Repair.repair ~train base.Solver.aig)
  in
  let circuit, s_sweep =
    stage "contest.sweep" (fun () ->
        Solver.enforce_budget ~patterns:(D.columns valid) ~sweep:true ~seed:0
          (Aig.Opt.cleanup repaired))
  in
  let aag, s_io = stage "aig.io" (fun () -> Aig.Io.to_string circuit) in
  {
    stages = [ s_parse; s_train; s_repair; s_sweep; s_io ];
    stats;
    train;
    valid;
    test = input.test;
    base = base.Solver.aig;
    circuit;
    aag;
  }

let repair_sweep cfg =
  let ids, sizes, draws =
    if cfg.smoke then ([ 0; 1 ], { S.train = 96; valid = 48; test = 48 }, 4)
    else (repair_ids, { S.train = 150; valid = 75; test = 200 }, 32)
  in
  (* Each cycle solves its own data draw: one draw's repair cost swings
     with its samples, and averaging many draws is what makes runs on
     different seeds comparable.  The first [scored] draws, always run,
     give the accuracy and size numbers. *)
  let scored = 4 in
  let inputs, setup_s =
    timed_setup (fun () ->
        Array.init draws (fun k ->
            Array.map
              (fun (i : S.instance) ->
                { train_pla = pla_text i.S.train; valid_pla = pla_text i.S.valid; test = i.S.test })
              (instantiate ~seed:((cfg.seed * 1000) + k) sizes ids)))
  in
  let results, wall =
    run_pass cfg (fun () ->
        cycles ~min:scored ~name:"repair-sweep" ~ops:(List.length ids) ~seconds:cfg.seconds
          (fun k -> Array.map solve_repair inputs.(k mod draws)))
  in
  let rs = List.concat_map Array.to_list results in
  let time name r = List.assoc name r.stages in
  let p =
    {
      ops = List.length rs;
      wall;
      latencies = List.map (fun r -> List.fold_left (fun a (_, t) -> a +. t) 0.0 r.stages) rs;
    }
  in
  (* Every written AAG re-parses to the same validation accuracy, repair
     never loses training accuracy, and the budget holds. *)
  let bad r =
    let reparsed = Aig.Io.of_string r.aag in
    Solver.evaluate reparsed r.valid <> Solver.evaluate r.circuit r.valid
    || Solver.evaluate r.circuit r.train < Solver.evaluate r.base r.train
    || Aig.Graph.num_ands reparsed > Solver.gate_budget
  in
  let failed = List.length (List.filter bad rs) in
  let first = List.filteri (fun i _ -> i < scored * List.length ids) rs in
  let metrics =
    measured cfg p ~setup_s ~peak_rss_mb:(Host.peak_rss_mb ())
      ~test_acc:(List.map (fun r -> Solver.evaluate r.circuit r.test) first)
      ~gates:(List.map (fun r -> Aig.Graph.num_ands r.circuit) first)
  in
  let outcome = { attempted = p.ops; failed; problems = failed_ops failed; metrics } in
  if not cfg.trace then outcome
  else begin
    write_trace cfg "repair-sweep";
    let mean_ms name rs = 1000.0 *. Stats.mean (List.map (time name) rs) in
    let stat f = per_op p (float_of_int (List.fold_left (fun a r -> a + f r.stats) 0 rs)) in
    let proof_only, patched =
      List.partition (fun r -> r.stats.Repair.train_errors_before = 0) rs
    in
    let nodes = telemetry_nodes () in
    let sat_in_repair_s =
      Rollup.sum
        (fun n ->
          if n.Rollup.span.name = "sat.solve" && List.mem "repair.repair" n.ancestors
          then n.self_us /. 1e6
          else 0.0)
        nodes
    in
    let repair_s = List.fold_left (fun a r -> a +. time "repair.repair" r) 0.0 rs in
    {
      outcome with
      metrics =
        metrics
        @ Rollup.per_op_ms ~ops:p.ops nodes
        @ [
            ("data.pla_parse_ms", mean_ms "data.pla_parse" rs);
            ("dtree.train_ms", mean_ms "dtree.train" rs);
            ("repair.repair_ms", mean_ms "repair.repair" rs);
            ("repair.proof_only_ms", mean_ms "repair.repair" proof_only);
            ("repair.patch_ms", mean_ms "repair.repair" patched);
            ("contest.sweep_ms", mean_ms "contest.sweep" rs);
            ("aig.io_ms", mean_ms "aig.io" rs);
            ("repair.sat_share", sat_in_repair_s /. repair_s);
            ("repair.iterations", stat (fun s -> s.Repair.iterations));
            ("repair.counterexamples", stat (fun s -> s.Repair.counterexamples));
            ("repair.resub_patches", stat (fun s -> s.Repair.resub_patches));
            ("repair.mux_patches", stat (fun s -> s.Repair.mux_patches));
            ("repair.sweeps", stat (fun s -> s.Repair.sweeps));
            ("repair.sat_conflicts", stat (fun s -> s.Repair.sat_conflicts));
            ( "repair.exact_frac",
              stat (fun s -> if s.Repair.stopped = Repair.Exact then 1 else 0) );
            ("sat.solve_calls", per_op p (counter "sat.solve_calls"));
            ("sat.propagations", per_op p (counter "sat.propagations"));
          ];
    }
  end

(* ------------------------------------------------------------------ *)
(* Serve workloads: a daemon process, two closed-loop connections      *)
(* ------------------------------------------------------------------ *)

let connections = 2

let request_body (i : S.instance) =
  Printf.sprintf {|"train":%s,"valid":%s|}
    (J.to_string (J.Str (pla_text i.S.train)))
    (J.to_string (J.Str (pla_text i.S.valid)))

let solve_line ~id ~team ~seed ~trace body =
  Printf.sprintf {|{"id":%d,"op":"solve","team":"%s","seed":%d,"trace":%b,%s}|} id
    team seed trace body

(* Closed loop: each connection sends its next request only once the
   previous reply has arrived, until [n] requests are answered.  An
   empty reply marks a dropped connection. *)
let drive daemon ~n line =
  let next = Atomic.make 0 in
  let replies = Array.make n "" and latencies = Array.make n 0.0 in
  let client () =
    let c = Serve.Client.connect (Daemon.listen daemon) in
    Fun.protect
      ~finally:(fun () -> Serve.Client.close c)
      (fun () ->
        let rec loop () =
          let i = Atomic.fetch_and_add next 1 in
          if i < n then begin
            let l = line i in
            let t0 = now () in
            let r =
              Telemetry.span ~cat:"bench" "serve.request" (fun () ->
                  Serve.Client.rpc_raw c l)
            in
            latencies.(i) <- now () -. t0;
            replies.(i) <- Option.value r ~default:"";
            loop ()
          end
        in
        loop ())
  in
  let others = List.init (connections - 1) (fun _ -> Domain.spawn client) in
  client ();
  List.iter Domain.join others;
  (replies, Array.to_list latencies)

let daemon_paths cfg name =
  let base = Filename.concat cfg.dir (Printf.sprintf "%s-%d" name (Unix.getpid ())) in
  (base ^ ".sock", base ^ ".log")

(* The samples of a Prometheus page, "name value" or "name{..} value". *)
let scrape daemon =
  List.filter_map
    (fun l ->
      if l = "" || l.[0] = '#' then None
      else
        match String.rindex_opt l ' ' with
        | Some i ->
            Option.map
              (fun v -> (String.sub l 0 i, v))
              (float_of_string_opt (String.sub l (i + 1) (String.length l - i - 1)))
        | None -> None)
    (String.split_on_char '\n' (Serve.Client.scrape_metrics (Daemon.listen daemon)))

let sample s name = Option.value (List.assoc_opt name s) ~default:0.0

(* Median queue wait between two scrapes: the upper bound of the
   power-of-two bucket holding the middle sample.  The daemon lists
   buckets only up to its largest sample, so a bound missing from the
   earlier scrape holds all of that scrape's samples. *)
let queue_wait_p50_us ~before ~after =
  let hist = "lsml_serve_queue_wait_us" in
  let cum s le =
    match List.assoc_opt (Printf.sprintf "%s_bucket{le=\"%d\"}" hist le) s with
    | Some v -> v
    | None -> sample s (hist ^ "_count")
  in
  let count = sample after (hist ^ "_count") -. sample before (hist ^ "_count") in
  let bounds =
    List.sort_uniq compare
      (List.filter_map
         (fun (k, _) -> Scanf.sscanf_opt k "lsml_serve_queue_wait_us_bucket{le=\"%d\"}%!" Fun.id)
         after)
  in
  match List.find_opt (fun le -> cum after le -. cum before le >= count /. 2.0) bounds with
  | Some le -> float_of_int le
  | None -> 0.0

let hit_ratio ~before ~after =
  let d name = sample after name -. sample before name in
  let hits = d "lsml_serve_cache_hits_total" in
  hits /. Float.max 1.0 (hits +. d "lsml_serve_cache_misses_total")

(* One pass of cycles against [daemon].  When the run is traced, the
   requests ask for their span trees and the daemon's counters are
   scraped around the pass. *)
let serve_pass cfg ~name daemon ~n line =
  let before = if cfg.trace then scrape daemon else [] in
  let runs, wall =
    run_pass cfg (fun () ->
        cycles ~name ~ops:n ~seconds:cfg.seconds (fun k -> drive daemon ~n (line k)))
  in
  let after = if cfg.trace then scrape daemon else [] in
  if cfg.trace then write_trace cfg name;
  ( List.map fst runs,
    { ops = n * List.length runs; wall; latencies = List.concat_map snd runs },
    (before, after) )

(* A solve payload whose gates and validation accuracy re-derive from
   its own AAG: the circuit, or why not. *)
let checked_circuit (inst : S.instance) payload =
  let field k get = Option.bind (J.member k payload) get in
  match (field "aag" J.get_string, field "gates" J.get_int, field "valid_acc" J.get_float) with
  | Some aag, Some gates, Some valid_acc -> (
      match Aig.Io.of_string aag with
      | exception Aig.Io.Parse_error _ -> Error "reply AAG does not parse"
      | g ->
          if Aig.Graph.num_ands g <> gates then Error "reply gates do not re-derive from its AAG"
          else if Solver.evaluate g inst.S.valid <> valid_acc then
            Error "reply valid_acc does not re-derive from its AAG"
          else if gates > Solver.gate_budget then Error "reply circuit exceeds 5000 gates"
          else Ok g)
  | _ -> Error "reply lacks aag/gates/valid_acc"

let reply_spans reply =
  match J.member "trace" reply with
  | Some (J.List l) -> List.map Rollup.of_reply_span l
  | _ -> []

(* The per-layer numbers both serve workloads share. *)
let serve_layers (p : pass) ~scrapes:(before, after) ~spans ~(report : Daemon.report)
    ~cache_file ~request_bytes =
  Rollup.per_op_ms ~ops:p.ops (Rollup.self_times (List.concat spans))
  @ [
      ("serve.queue_wait_p50_us", queue_wait_p50_us ~before ~after);
      ("serve.hit_ratio", hit_ratio ~before ~after);
      ("serve.request_kb", request_bytes /. 1024.0);
      ("serve.cache_log_kb", float_of_int (Unix.stat cache_file).Unix.st_size /. 1024.0);
      ("serve.replay_ms", report.Daemon.create_ms);
    ]

let mean_length strings =
  Stats.mean (Array.to_list (Array.map (fun s -> float_of_int (String.length s)) strings))

(* ------------------------------------------------------------------ *)
(* serve-cold: one team1 solve request per contest benchmark            *)
(* ------------------------------------------------------------------ *)

let serve_cold cfg =
  let ids, sizes =
    if cfg.smoke then ([ 0; 30; 74; 85 ], tiny) else (List.init 100 Fun.id, S.reduced_sizes)
  in
  (* Two workers for two connections: a request's latency is its own
     service time, not the luck of which solve it queued behind. *)
  let jobs = 2 in
  let socket, cache_file = daemon_paths cfg "serve-cold" in
  Fun.protect ~finally:(fun () -> Daemon.remove cache_file) @@ fun () ->
  let (insts, bodies, daemon), setup_s =
    timed_setup
      ~dispose:(fun (_, _, d) -> ignore (Daemon.stop d))
      (fun () ->
        Daemon.remove cache_file;
        let insts = instantiate ~seed:cfg.seed sizes ids in
        let bodies = Array.map request_body insts in
        (insts, bodies, Daemon.start ~jobs ~socket ~cache_file))
  in
  let n = Array.length insts in
  (* Every request misses the cache: the seed field, which only seeds a
     sweep these requests do not ask for, makes each cycle's keys new. *)
  let replies, p, scrapes =
    serve_pass cfg ~name:"serve-cold" daemon ~n (fun k i ->
        solve_line ~id:i ~team:"team1" ~seed:k ~trace:cfg.trace bodies.(i))
  in
  let report = Daemon.stop daemon in
  (* A request fails unless its reply is a result whose circuit
     re-derives; the first cycle's circuits are scored. *)
  let failures = ref [] and circuits = ref [] and spans = ref [] in
  List.iteri
    (fun k rs ->
      Array.iteri
        (fun i line ->
          let fail msg = failures := msg :: !failures in
          match J.parse line with
          | exception J.Parse_error _ -> fail "missing or unparseable reply"
          | j -> (
              match (J.member "type" j, J.member "result" j) with
              | Some (J.Str "result"), Some payload -> (
                  match checked_circuit insts.(i) payload with
                  | Ok g ->
                      if k = 0 then circuits := (i, g) :: !circuits;
                      spans := reply_spans j :: !spans
                  | Error msg -> fail msg)
              | Some (J.Str t), _ -> fail ("reply of type " ^ t)
              | _ -> fail "reply without a type"))
        rs)
    replies;
  let failed = List.length !failures in
  {
    attempted = p.ops;
    failed;
    problems =
      (match List.sort_uniq compare !failures with
      | [] -> []
      | reasons -> [ Printf.sprintf "%d requests failed: %s" failed (String.concat "; " reasons) ]);
    metrics =
      measured cfg p ~setup_s ~peak_rss_mb:report.Daemon.peak_rss_mb
        ~test_acc:(List.map (fun (i, g) -> Solver.evaluate g insts.(i).S.test) !circuits)
        ~gates:(List.map (fun (_, g) -> Aig.Graph.num_ands g) !circuits)
      @
      if cfg.trace then
        serve_layers p ~scrapes ~spans:!spans ~report ~cache_file
          ~request_bytes:(mean_length bodies)
      else [];
  }

(* ------------------------------------------------------------------ *)
(* serve-cached: hits replayed from a restarted daemon's cache log     *)
(* ------------------------------------------------------------------ *)

let serve_cached cfg =
  let ids, sizes, per_key =
    if cfg.smoke then ([ 0; 3; 6; 9 ], tiny, 5)
    else (List.init 32 (fun i -> 3 * i), S.reduced_sizes, 32)
  in
  (* One worker: hits are short and allocate heavily, and a second
     worker parsing beside the IO loop on two cores serves fewer. *)
  let jobs = 1 in
  let socket, cache_file = daemon_paths cfg "serve-cached" in
  Fun.protect ~finally:(fun () -> Daemon.remove cache_file) @@ fun () ->
  let inputs () =
    let insts = instantiate ~seed:cfg.seed sizes ids in
    (insts, Array.map request_body insts)
  in
  let line ~id ~trace body = solve_line ~id ~team:"team10" ~seed:cfg.seed ~trace body in
  let n = List.length ids in
  (* Warm the persistent cache once; the payloads are what every hit
     must replay byte for byte. *)
  Daemon.remove cache_file;
  let insts, bodies = inputs () in
  let warm = Daemon.start ~jobs ~socket ~cache_file in
  let warm_replies, _ = drive warm ~n (fun k -> line ~id:k ~trace:false bodies.(k)) in
  ignore (Daemon.stop warm);
  let envelope ~id ~cached payload =
    P.response ~id:(J.Int id) ~typ:"result"
      ~extra:[ ("op", J.Str "solve"); ("cached", J.Bool cached); ("result", J.Raw payload) ]
      ()
  in
  let payloads =
    Array.mapi
      (fun k reply ->
        let prefix = envelope ~id:k ~cached:false "" in
        let prefix = String.sub prefix 0 (String.length prefix - 1) in
        let pl = String.length prefix and rl = String.length reply in
        if String.starts_with ~prefix reply && rl > pl then String.sub reply pl (rl - pl - 1)
        else failwith ("serve-cached: warm-up request failed: " ^ reply))
      warm_replies
  in
  let circuits =
    Array.mapi
      (fun k payload ->
        match checked_circuit insts.(k) (J.parse payload) with
        | Ok g -> g
        | Error msg -> failwith ("serve-cached: warm-up " ^ msg))
      payloads
  in
  (* Set-up: inputs, and a daemon started on the warm log (replay). *)
  let (_, daemon), setup_s =
    timed_setup
      ~dispose:(fun (_, d) -> ignore (Daemon.stop d))
      (fun () ->
        let v = inputs () in
        (v, Daemon.start ~jobs ~socket ~cache_file))
  in
  (* Every key is hit equally often, in an order the seed shuffles, so
     runs on different seeds send the same mix of request sizes. *)
  let draws = Array.init (per_key * n) (fun i -> i mod n) in
  let rng = Random.State.make [| cfg.seed; 0xcac4e |] in
  for i = Array.length draws - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = draws.(i) in
    draws.(i) <- draws.(j);
    draws.(j) <- t
  done;
  let replies, p, scrapes =
    serve_pass cfg ~name:"serve-cached" daemon ~n:(Array.length draws) (fun _ i ->
        line ~id:i ~trace:cfg.trace bodies.(draws.(i)))
  in
  let report = Daemon.stop daemon in
  (* A hit is correct when it is the warm-up reply, byte for byte, apart
     from its id and cached flag (and, when traced, the appended spans). *)
  let spans = ref [] and failed = ref 0 in
  List.iter
    (Array.iteri (fun i reply ->
         let expected = envelope ~id:i ~cached:true payloads.(draws.(i)) in
         let ok =
           if not cfg.trace then reply = expected
           else
             String.starts_with
               ~prefix:(String.sub expected 0 (String.length expected - 1) ^ {|,"trace":|})
               reply
         in
         if not ok then incr failed
         else if cfg.trace then spans := reply_spans (J.parse reply) :: !spans))
    replies;
  let keys = List.init n Fun.id in
  let metrics =
    measured cfg p ~setup_s ~peak_rss_mb:report.Daemon.peak_rss_mb
      ~test_acc:(List.map (fun k -> Solver.evaluate circuits.(k) insts.(k).S.test) keys)
      ~gates:(List.map (fun k -> Aig.Graph.num_ands circuits.(k)) keys)
  in
  let outcome =
    {
      attempted = p.ops;
      failed = !failed;
      problems =
        (if !failed = 0 then []
         else [ Printf.sprintf "%d hits were not byte-identical cached replays" !failed ]);
      metrics;
    }
  in
  if not cfg.trace then outcome
  else begin
    (* The hit path's stages, timed through the same public functions on
       the same request lines. *)
    let lines = Array.mapi (fun k b -> line ~id:k ~trace:false b) bodies in
    let cache = Serve.Cache.create ~capacity:(2 * n) in
    let reps = 3 in
    let acc = Hashtbl.create 4 in
    let time name f =
      let t0 = now () in
      let v = f () in
      let dt = now () -. t0 in
      Hashtbl.replace acc name (dt +. Option.value (Hashtbl.find_opt acc name) ~default:0.0);
      v
    in
    for _ = 1 to reps do
      Array.iteri
        (fun k l ->
          match time "parse" (fun () -> P.parse l) with
          | Ok { P.req = P.Solve s; _ } ->
              let key =
                time "fingerprint" (fun () ->
                    Resil.Fingerprint.(hash64 (render (P.solve_cache_fields s))))
              in
              ignore (time "pla" (fun () -> (dataset s.P.train, Option.map dataset s.P.valid)));
              if Serve.Cache.find cache key = None then
                ignore (Serve.Cache.put cache key payloads.(k));
              ignore (time "find" (fun () -> Serve.Cache.find cache key))
          | _ -> failwith "serve-cached: request line does not parse as a solve")
        lines
    done;
    let mean_of name scale = scale *. Hashtbl.find acc name /. float_of_int (reps * n) in
    {
      outcome with
      metrics =
        metrics
        @ serve_layers p ~scrapes ~spans:!spans ~report ~cache_file
            ~request_bytes:(mean_length bodies)
        @ [
            ("serve.protocol_parse_ms", mean_of "parse" 1000.0);
            ("serve.fingerprint_ms", mean_of "fingerprint" 1000.0);
            ("data.pla_parse_ms", mean_of "pla" 1000.0);
            ("serve.cache_find_us", mean_of "find" 1e6);
          ];
    }
  end

let all =
  [
    ("contest-grid", contest_grid);
    ("repair-sweep", repair_sweep);
    ("serve-cold", serve_cold);
    ("serve-cached", serve_cached);
  ]
