(** One driver per table/figure of the paper.

    Every function prints the regenerated rows/series to stdout; shared
    inputs come from a {!run} of the full team-by-benchmark grid so that
    Table III and Figures 2, 3, 4, 32 and 33 reuse the same solver
    executions. *)

type config = {
  sizes : Benchgen.Suite.sizes;
  seed : int;
  ids : int list;  (** benchmark ids to include *)
}

val default_config : config
(** Reduced sizes, all 100 benchmarks, seed 1. *)

val config_with : ?full:bool -> ?ids:int list -> ?seed:int -> unit -> config

type run = {
  config : config;
  instances : Benchgen.Suite.instance list;
  per_team : (string * Score.metrics list) list;
}

val instances_of : ?jobs:int -> config -> Benchgen.Suite.instance list
(** Instantiate [config.ids] in order, across [jobs] domains (default 1).
    Each instance depends only on [(config.seed, id, config.sizes)], so
    the list is identical for any [jobs] count. *)

val run_suite :
  ?teams:Solver.t list ->
  ?progress:bool ->
  ?jobs:int ->
  ?time_limit:float ->
  ?fuel:int ->
  ?journal:Resil.Journal.t ->
  config ->
  run
(** Instantiate the benchmarks and run every solver on every benchmark.
    [progress] (default true) logs one line per (team, benchmark) to
    stderr.  [jobs] (default 1) fans the instantiation ({!instances_of})
    and the team-by-benchmark grid across that many domains; every
    solver threads explicit seeds, so the resulting {!run} is
    bit-identical for any [jobs] count — only the stderr progress
    interleaving differs.

    Every task runs under {!Solver.solve_guarded}: [time_limit] seconds
    and/or [fuel] budget ticks per attempt, one retry on a crash, and a
    constant-function fallback — a crashing or diverging technique
    degrades its own row instead of killing the suite (the pool runs in
    per-task isolation mode).  [journal] enables checkpoint/resume:
    completed tasks are recorded as they finish, and tasks already in the
    journal are replayed from it rather than re-run, so a resumed run
    reproduces an uninterrupted one byte-for-byte.  Fuel budgets are
    deterministic; wall-clock limits are not (a resumed run replays
    journaled rows, so mixing [--resume] with [time_limit] is still
    deterministic for the replayed prefix only). *)

val solve_grid :
  ?teams:Solver.t list ->
  ?progress:bool ->
  ?jobs:int ->
  ?time_limit:float ->
  ?fuel:int ->
  ?journal:Resil.Journal.t ->
  Benchgen.Suite.instance list ->
  (string * Score.metrics list) list
(** The team-by-benchmark grid behind {!run_suite}, over an explicit
    instance list from any source — the suite generator or an external
    benchmark corpus.  Semantics (guarding, journaling, jobs-count
    byte-identity) are exactly {!run_suite}'s; rows come back in
    canonical team-then-instance order. *)

val task_key : Solver.t -> Benchgen.Suite.instance -> string
(** ["team3/ex07"] — the journal key and fault-context key of a task. *)

val journal_meta :
  ?repair:bool ->
  ?time_limit:float ->
  ?fuel:int ->
  teams:Solver.t list ->
  config ->
  string
(** Configuration fingerprint for {!Resil.Journal} headers: seed, sizes,
    ids, team list, budgets, and the fault-injection settings.  Resuming
    under a different fingerprint is rejected.  [repair] (default false)
    appends a [repair=on] field only when true, so pre-repair journals
    keep their original meta string. *)

val failure_summary : run -> unit
(** Print the end-of-run failure summary: a stable "degraded rows:" count
    line (grepped by CI) and one row per timeout/crash/fallback task. *)

val degraded_rows :
  (string * Score.metrics list) list -> (string * Score.metrics) list
(** The (team, metrics) pairs that timed out, crashed, or fell back —
    what {!failure_summary} tabulates and [--fail-degraded] counts. *)

val print_failure_summary :
  name_of:(int -> string) ->
  (string * Score.metrics list) list ->
  unit
(** {!failure_summary} over explicit rows, resolving benchmark ids to
    names through [name_of] (suite runs use [Suite.benchmark]; corpus
    runs use the corpus index). *)

val table3_of : (string * Score.metrics list) list -> unit
(** {!table3} over explicit per-team rows (used by corpus reports, whose
    rows may come from merged shard journals rather than a {!run}). *)

(** {1 Experiments driven by the shared run} *)

val table3 : run -> unit
(** Team performance: test accuracy, gates, levels, overfit. *)

val fig2 : run -> unit
(** Accuracy-size trade-off: per-team averages plus the virtual-best
    Pareto sweep over gate caps. *)

val fig3 : run -> unit
(** Maximum accuracy achieved for each benchmark. *)

val fig4 : run -> unit
(** Win rate (best and top-1%) per team. *)

val fig32_33 : run -> unit
(** Team 10 per-benchmark accuracy and AIG size. *)

(** {1 Standalone experiments} *)

val fig1 : unit -> unit
(** Technique matrix of the ten teams. *)

val table4_fig16_17 : config -> unit
(** Team 3's method comparison: DT, fringe DT, NN, LUT-net, ensemble —
    averages (Table IV) and per-benchmark series (Figs. 16/17). *)

val table5 : config -> unit
(** NN accuracy before pruning, after pruning, after LUT synthesis. *)

val table6 : config -> unit
(** Team 5 configuration census: winning decision tool / feature
    selection / scoring function / split proportion per benchmark. *)

val table7_cgp : config -> unit
(** Team 9: CGP hyper-parameter table and bootstrap-vs-random study. *)

val fig5_6 : config -> unit
(** Team 1's per-method accuracy and size (espresso / LUT network /
    random forest). *)

val fig7 : config -> unit
(** Approximation effect: oversized LUT-net AIGs before and after the
    node-budget approximation. *)

val fig11_12 : config -> unit
(** Team 2: J48-style trees vs PART rules, per-benchmark accuracy and
    AND counts. *)

val fig21 : config -> unit
(** Team 4 per-benchmark validation accuracy and node count. *)

val fig26_27 : config -> unit
(** Team 7's explanatory analysis (paper Figs. 26-27): per-input-bit
    importance of a boosted-tree model on word-structured benchmarks.
    Correlation shows no pattern on the multiplier MSB while model-based
    (permutation) importance exposes the per-word monotone "weight"
    staircase that the matcher exploits. *)

val ablations : config -> unit
(** Ablation studies of the design choices this reproduction makes:
    espresso pass count (Team 1 stops after one irredundant), fringe
    extraction rounds, the functional-decomposition threshold, and the
    approximation pass's protected output levels. *)

val appendix_bdd : config -> unit
(** Team 1's post-contest BDD study: learning the second MSB of adders
    with don't-care BDD minimization under MSB-first interleaved variable
    order (one-sided vs two-sided vs complemented matching), and learning
    large parities, where only complemented matching succeeds. *)
