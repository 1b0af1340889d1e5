// E9 — the executable form of "enumerate all rank-q formulas": type-majority
// ERM vs literal formula enumeration on tiny instances.
//   * optimality: the type optimum lower-bounds every enumerated formula
//     (Corollary 6 made computational);
//   * cost: the enumeration explodes combinatorially while the type count
//     stays bounded by the number of realised local types.

#include <algorithm>
#include <cstdio>

#include "bench_json.h"
#include "fo/parser.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "learn/erm.h"
#include "util/governor.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/table.h"

using namespace folearn;

// Governed-vs-ungoverned ERM core: the governor's per-type-computation
// checkpoint must stay under ~2% overhead (it is a couple of branches and
// two increments; the wall clock is only probed every 256 checkpoints).
// Fixed workload (early_stop off), best-of-k timing to suppress noise.
int BenchGovernorOverhead(Rng& rng, BenchJsonWriter& json) {
  Graph graph = MakeRandomTree(60, rng);
  AddRandomColors(graph, {"Red"}, 0.4, rng);
  std::vector<std::vector<Vertex>> tuples =
      SampleTuples(graph.order(), 1, 4 * graph.order(), rng);
  TrainingSet examples = LabelByQuery(
      graph, MustParseFormula("exists z. (E(x1, z) & Red(z))"),
      QueryVars(1), tuples);
  FlipLabels(examples, 0.3, rng);

  const int kReps = 15;
  double plain_ms = 1e300;
  double work_ms = 1e300;
  double deadline_ms = 1e300;
  double plain_error = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    Stopwatch plain_watch;
    ErmResult plain = BruteForceErm(graph, examples, 1, {1, -1}, nullptr,
                                    /*early_stop=*/false);
    plain_ms = std::min(plain_ms, plain_watch.ElapsedMillis());
    plain_error = plain.training_error;

    GovernorLimits work_limits;
    work_limits.max_work = int64_t{1} << 60;  // present but never trips
    ResourceGovernor work_governor(work_limits);
    ErmOptions work_options;
    work_options.governor = &work_governor;
    Stopwatch work_watch;
    ErmResult governed = BruteForceErm(graph, examples, 1, work_options,
                                       nullptr, /*early_stop=*/false);
    work_ms = std::min(work_ms, work_watch.ElapsedMillis());
    if (governed.status != RunStatus::kComplete ||
        governed.training_error != plain.training_error) {
      std::printf("VIOLATION: a non-tripping governor changed the result!\n");
      return 1;
    }

    GovernorLimits deadline_limits;
    deadline_limits.deadline_ms = 1000 * 60 * 60;  // exercises clock probes
    ResourceGovernor deadline_governor(deadline_limits);
    ErmOptions deadline_options;
    deadline_options.governor = &deadline_governor;
    Stopwatch deadline_watch;
    BruteForceErm(graph, examples, 1, deadline_options, nullptr,
                  /*early_stop=*/false);
    deadline_ms = std::min(deadline_ms, deadline_watch.ElapsedMillis());
  }

  Table table({"variant", "best ms", "overhead %"});
  table.AddRow({"ungoverned", FormatDouble(plain_ms, 3), "-"});
  table.AddRow({"work budget",
                FormatDouble(work_ms, 3),
                FormatDouble((work_ms - plain_ms) / plain_ms * 100.0, 2)});
  table.AddRow({"deadline",
                FormatDouble(deadline_ms, 3),
                FormatDouble((deadline_ms - plain_ms) / plain_ms * 100.0,
                             2)});
  table.Print();
  std::printf("\nfixed workload: full n^ℓ scan, n = %d, m = %zu, error "
              "%.3f identical across variants;\ntarget: < 2%% overhead "
              "per variant (best-of-%d timing)\n",
              graph.order(), examples.size(), plain_error, kReps);
  const long long scan = static_cast<long long>(graph.order());
  json.Record("erm_core/governor", "variant=ungoverned", plain_ms, scan);
  json.Record("erm_core/governor", "variant=work-budget", work_ms, scan);
  json.Record("erm_core/governor", "variant=deadline", deadline_ms, scan);
  return 0;
}

// Thread sweep on the full brute-force parameter scan plus cold-vs-warm
// ball-cache timings. The determinism contract means every row computes
// the same result; only the wall clock may move. On a single-core host
// the threaded rows measure the coordination overhead, not a speedup —
// the JSON records whatever this machine actually does.
int BenchParallelSweep(Rng& rng, BenchJsonWriter& json) {
  Graph graph = MakeRandomTree(60, rng);
  AddRandomColors(graph, {"Red"}, 0.4, rng);
  std::vector<std::vector<Vertex>> tuples =
      SampleTuples(graph.order(), 1, 4 * graph.order(), rng);
  TrainingSet examples = LabelByQuery(
      graph, MustParseFormula("exists z. (E(x1, z) & Red(z))"),
      QueryVars(1), tuples);
  FlipLabels(examples, 0.3, rng);

  const int kReps = 5;
  std::printf("\nparallel brute-force sweep (full n^ℓ scan, n = %d, "
              "m = %zu, best-of-%d):\n\n",
              graph.order(), examples.size(), kReps);
  Table table({"threads", "best ms", "speedup", "error"});
  double base_ms = 0.0;
  for (int threads : {1, 2, 4, 8}) {
    double best_ms = 1e300;
    double error = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
      ErmOptions options;
      options.threads = threads;
      Stopwatch watch;
      ErmResult result = BruteForceErm(graph, examples, 1, options, nullptr,
                                       /*early_stop=*/false);
      best_ms = std::min(best_ms, watch.ElapsedMillis());
      error = result.training_error;
    }
    if (threads == 1) base_ms = best_ms;
    table.AddRow({std::to_string(threads), FormatDouble(best_ms, 3),
                  FormatDouble(base_ms / best_ms, 2),
                  FormatDouble(error, 3)});
    json.Record("erm_core/thread_sweep",
                "threads=" + std::to_string(threads) +
                    " n=" + std::to_string(graph.order()),
                best_ms, static_cast<long long>(graph.order()));
  }
  table.Print();
  std::printf("(hardware threads available: %d)\n", EffectiveThreads(0));

  std::printf("\nball cache, cold vs warm (same scan, threads = 1):\n\n");
  Table cache_table({"variant", "best ms", "hits", "misses"});
  double cold_ms = 1e300;
  double warm_ms = 1e300;
  long long hits = 0;
  long long misses = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    BallCache cold_cache(graph);
    ErmOptions cold_options;
    cold_options.ball_cache = &cold_cache;
    Stopwatch cold_watch;
    BruteForceErm(graph, examples, 1, cold_options, nullptr,
                  /*early_stop=*/false);
    cold_ms = std::min(cold_ms, cold_watch.ElapsedMillis());

    // Warm: same cache reused — every per-vertex ball is already there.
    ErmOptions warm_options;
    warm_options.ball_cache = &cold_cache;
    Stopwatch warm_watch;
    BruteForceErm(graph, examples, 1, warm_options, nullptr,
                  /*early_stop=*/false);
    warm_ms = std::min(warm_ms, warm_watch.ElapsedMillis());
    hits = cold_cache.hits();
    misses = cold_cache.misses();
  }
  cache_table.AddRow({"cold", FormatDouble(cold_ms, 3), "-", "-"});
  cache_table.AddRow({"warm", FormatDouble(warm_ms, 3),
                      std::to_string(hits), std::to_string(misses)});
  cache_table.Print();
  json.Record("erm_core/ball_cache", "variant=cold", cold_ms,
              static_cast<long long>(examples.size()));
  json.Record("erm_core/ball_cache", "variant=warm", warm_ms,
              static_cast<long long>(examples.size()));
  return 0;
}

// The far/near split of BruteForceErm's sweep on the learn-shared shape
// (perfbench's 200-vertex pattern tree, 32 coin-flip examples plus one
// contradicting duplicate, ℓ = 1, q = 1, r = 1) and on a rank-2 row.
// Each row times the sweep against a first-minimiser scan of direct
// TypeMajorityErm calls (every pair's local type computed from its ball,
// which is what the sweep did before far pairs were composed), checks
// that both find the same parameters and error, and reports the share of
// (example, candidate) pairs more than 2r + 1 apart. Fresh registries on
// every run.
Graph PatternTree(int n, int colours) {
  Rng pattern(0x7e3e0000u + static_cast<uint64_t>(n));
  Graph graph = MakeRandomTree(n, pattern);
  const char* names[] = {"Red", "Blue"};
  for (int c = 0; c < colours; ++c) {
    ColorId colour = graph.AddColor(names[c]);
    std::vector<Vertex> order(n);
    for (int v = 0; v < n; ++v) order[v] = v;
    pattern.Shuffle(order);
    for (int i = 0; i < n * 3 / 10; ++i) graph.SetColor(order[i], colour);
  }
  graph.Finalize();
  return graph;
}

int BenchFarPairSweep(BenchJsonWriter& json) {
  struct Row {
    const char* name;
    int n;
    int colours;
    int examples;
    int rank;
  };
  const Row rows[] = {{"learn-shared", 200, 1, 32, 1},
                      {"rank-2", 120, 2, 24, 2}};
  const int kReps = 5;
  const int radius = 1;
  Table table({"shape", "pairs", "far %", "direct ms", "sweep ms",
               "speedup"});
  for (const Row& row : rows) {
    Graph graph = PatternTree(row.n, row.colours);
    Rng rng(4242);
    TrainingSet examples;
    for (const std::vector<Vertex>& tuple :
         SampleTuples(row.n, 1, row.examples, rng)) {
      examples.push_back({tuple, rng.Bernoulli(0.5)});
    }
    examples.push_back({examples[0].tuple, !examples[0].label});

    long long far = 0;
    for (const LabeledExample& example : examples) {
      const std::vector<int> dist = BfsDistances(graph, example.tuple);
      for (Vertex w = 0; w < graph.order(); ++w) {
        if (dist[w] == kUnreachable || dist[w] > 2 * radius + 1) ++far;
      }
    }
    const long long pairs =
        static_cast<long long>(examples.size()) * graph.order();

    ErmOptions options;
    options.rank = row.rank;
    options.radius = radius;
    double direct_ms = 1e300;
    double sweep_ms = 1e300;
    ErmResult direct;
    ErmResult swept;
    for (int rep = 0; rep < kReps; ++rep) {
      Stopwatch direct_watch;
      for (Vertex w = 0; w < graph.order(); ++w) {
        Vertex parameters[] = {w};
        ErmResult candidate =
            TypeMajorityErm(graph, examples, parameters, options);
        if (w == 0 || candidate.training_error < direct.training_error) {
          direct = std::move(candidate);
        }
      }
      direct_ms = std::min(direct_ms, direct_watch.ElapsedMillis());
      Stopwatch sweep_watch;
      swept = BruteForceErm(graph, examples, 1, options, nullptr,
                            /*early_stop=*/false);
      sweep_ms = std::min(sweep_ms, sweep_watch.ElapsedMillis());
    }
    if (swept.training_error != direct.training_error ||
        swept.hypothesis.parameters != direct.hypothesis.parameters) {
      std::printf("VIOLATION: the sweep and the direct scan disagree on "
                  "%s!\n", row.name);
      return 1;
    }
    table.AddRow({row.name, std::to_string(pairs),
                  FormatDouble(100.0 * static_cast<double>(far) /
                                   static_cast<double>(pairs),
                               1),
                  FormatDouble(direct_ms, 2), FormatDouble(sweep_ms, 2),
                  FormatDouble(direct_ms / sweep_ms, 1)});
    json.Record("erm_core/far_pair", std::string("shape=") + row.name +
                                         " variant=direct",
                direct_ms, pairs);
    json.Record("erm_core/far_pair", std::string("shape=") + row.name +
                                         " variant=sweep",
                sweep_ms, far);
  }
  table.Print();
  std::printf("(best-of-%d; 'far' = more than 2r + 1 apart, composed from "
              "the two sides' local types)\n",
              kReps);
  return 0;
}

int main(int argc, char** argv) {
  BenchJsonWriter json(argc, argv);
  Rng rng(777);
  std::printf("E9: type-majority ERM vs literal formula enumeration "
              "(noisy rank-1 target, rank-2 slice, k=1, ℓ=0)\n\n");

  Table table({"n", "types err", "types seen", "types ms", "enum err",
               "formulas tried", "vm ms", "interp ms", "interp/vm"});
  for (int n : {12, 16, 20, 24}) {
    Graph graph = MakeRandomTree(n, rng);
    AddRandomColors(graph, {"Red"}, 0.4, rng);
    std::vector<std::vector<Vertex>> tuples =
        SampleTuples(graph.order(), 1, 8 * n, rng);
    TrainingSet examples = LabelByQuery(
        graph, MustParseFormula("exists z. (E(x1, z) & Red(z))"),
        QueryVars(1), tuples);
    FlipLabels(examples, 0.15, rng);

    Stopwatch type_watch;
    ErmResult types = TypeMajorityErm(graph, examples, {}, {2, -1});
    double type_ms = type_watch.ElapsedMillis();

    // Enumerate the rank-2 syntactic slice ONCE, outside the stopwatches:
    // the enumeration is pure formula syntax (identical for every eval
    // mode) and would otherwise swamp the grid-search timing.
    // PrepareFormulas then hoists plan compilation AND bytecode lowering
    // out of the timed region too (mirroring the production PlanCache), so
    // the rows measure the search itself under both engines: the bytecode
    // VM (the default) and the interpreted reference oracle.
    EnumerationOptions enumeration;
    enumeration.free_variables = QueryVars(1);
    enumeration.colors = {"Red"};
    enumeration.max_quantifier_rank = 2;
    enumeration.max_boolean_depth = 1;
    enumeration.max_count = 4000;
    std::vector<FormulaRef> formulas = EnumerateFormulas(enumeration);

    constexpr EvalEngine kEngines[] = {EvalEngine::kVm,
                                       EvalEngine::kInterpreted};
    const int kGridReps = 3;  // best-of-k: the ratio, not the noise
    double engine_ms[2] = {1e300, 1e300};
    EnumerationErmResult engine_results[2];
    std::vector<PreparedFormula> prepared = PrepareFormulas(formulas, 1, 0);
    for (int e = 0; e < 2; ++e) {
      EvalOptions eval;
      eval.engine = kEngines[e];
      for (int rep = 0; rep < kGridReps; ++rep) {
        Stopwatch watch;
        engine_results[e] =
            EnumerationErm(graph, examples, 0, prepared, nullptr, 1, eval);
        engine_ms[e] = std::min(engine_ms[e], watch.ElapsedMillis());
      }
    }
    const double vm_ms = engine_ms[0];
    const double interp_ms = engine_ms[1];
    const EnumerationErmResult& enumerated = engine_results[0];

    table.AddRow({std::to_string(n), FormatDouble(types.training_error, 3),
                  std::to_string(types.distinct_types_seen),
                  FormatDouble(type_ms, 2),
                  FormatDouble(enumerated.training_error, 3),
                  std::to_string(enumerated.formulas_tried),
                  FormatDouble(vm_ms, 1), FormatDouble(interp_ms, 1),
                  FormatDouble(interp_ms / vm_ms, 2)});
    json.Record("erm_core/e9_types", "n=" + std::to_string(n), type_ms,
                types.distinct_types_seen);
    json.Record("erm_core/e9_enumeration", "n=" + std::to_string(n), vm_ms,
                enumerated.formulas_tried);
    json.Record("erm_core/e9_enumeration_interpreted",
                "n=" + std::to_string(n), interp_ms,
                engine_results[1].formulas_tried);
    if (types.training_error > enumerated.training_error + 1e-12) {
      std::printf("VIOLATION: type ERM worse than an enumerated formula!\n");
      return 1;
    }
    if (engine_results[1].training_error != enumerated.training_error ||
        engine_results[1].formulas_tried != enumerated.formulas_tried) {
      std::printf("VIOLATION: the interpreted and vm grids disagree!\n");
      return 1;
    }
  }
  table.Print();
  std::printf("\n'types err' ≤ 'enum err' on every row (Corollary 6: "
              "rank-q hypotheses are unions of\nlocal types, and the "
              "majority vote is the exact minimiser over those unions),\n"
              "at a tiny fraction of the enumeration cost — and the "
              "enumeration here covers only a\nbounded syntactic slice of "
              "FO[τ, 2], while the type ERM covers ALL of it.\n");

  std::printf("\nfar-pair composition in the brute-force sweep (threads = "
              "1, ℓ = 1, r = 1):\n\n");
  if (int rc = BenchFarPairSweep(json); rc != 0) return rc;

  std::printf("\ngovernor checkpoint overhead on the ERM core:\n\n");
  if (int rc = BenchGovernorOverhead(rng, json); rc != 0) return rc;
  return BenchParallelSweep(rng, json);
}
