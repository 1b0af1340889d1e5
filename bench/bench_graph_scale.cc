// Million-vertex graph-core bench: the columnar CSR layout and the `.fog`
// memory-mapped binary format measured end to end at n = 10^5..10^6 (pass
// `--max-n 10000000` to extend the sweep; the default keeps CI bounded).
//
// Three experiments per n over a bounded-degree random graph (max degree
// 8, ~2n edges, periodic Red colour):
//
//   graph_scale/load   config "mode=text|fog|fog_warm n=<n>"
//       wall-clock to get a servable Graph from disk. `text` parses the
//       line format; `fog` memory-maps and validates the binary format
//       cold; `fog_warm` hits the process-wide mapping registry (the
//       folearnd re-warm path). work_units = edge count.
//
//   graph_scale/ball   config "n=<n> radius=2"
//       radius-2 ball assembly through BallCache for a fixed batch of
//       random centres. work_units = total ball vertices returned.
//
//   graph_scale/vm_ball_query   config "n=<n> radius=2"
//       NeighborhoodExtractor + VmEvaluator per tuple: extract the
//       radius-2 neighbourhood as its own finalized CSR graph, build the
//       VM index over it, evaluate a rank-1 guarded query. Includes an
//       n=400 row so the per-edge cost (wall_ms / work_units, work_units
//       = sum of neighbourhood edge counts) can be compared across four
//       orders of magnitude — locality means it should be flat.
//
// run_benches.sh aggregates the --json rows into BENCH_graph.json and
// fails the run if the fog load at the largest n is not at least 10x
// faster than the text parse.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_json.h"
#include "fo/parser.h"
#include "graph/algorithms.h"
#include "graph/fog.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "mc/bytecode.h"
#include "mc/vm.h"
#include "util/checkpoint.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/table.h"

using namespace folearn;

namespace {

constexpr int kRadius = 2;
constexpr int kBallQueries = 200;
constexpr int kTupleQueries = 300;

Graph MakeSubstrate(int64_t n, Rng& rng) {
  Graph graph = MakeBoundedDegreeAtScale(n, /*max_degree=*/8,
                                         /*target_edges=*/2 * n, rng);
  AddPeriodicColor(graph, "Red", 3, 0);
  graph.Finalize();
  return graph;
}

struct LoadTimes {
  double text_ms = 0.0;
  double fog_ms = 0.0;
  double fog_warm_ms = 0.0;
};

LoadTimes MeasureLoads(const Graph& graph, int64_t n,
                       BenchJsonWriter& json) {
  const std::string stem =
      "/tmp/folearn_bench_graph_" + std::to_string(::getpid()) + "_" +
      std::to_string(n);
  const std::string text_path = stem + ".graph";
  const std::string fog_path = stem + ".fog";
  Status wrote = WriteFileAtomic(text_path, ToText(graph));
  FOLEARN_CHECK(wrote.ok()) << wrote.message();
  wrote = WriteFogFile(fog_path, graph);
  FOLEARN_CHECK(wrote.ok()) << wrote.message();

  LoadTimes times;
  const long long edges = graph.EdgeCount();
  {
    Stopwatch watch;
    StatusOr<Graph> loaded = LoadGraphAuto(text_path);
    times.text_ms = watch.ElapsedMillis();
    FOLEARN_CHECK(loaded.ok()) << loaded.status().message();
    FOLEARN_CHECK_EQ(loaded->EdgeCount(), edges);
  }
  {
    // Cold: first map of this file validates the whole payload.
    Stopwatch watch;
    StatusOr<Graph> loaded = LoadGraphAuto(fog_path);
    times.fog_ms = watch.ElapsedMillis();
    FOLEARN_CHECK(loaded.ok()) << loaded.status().message();
    FOLEARN_CHECK_EQ(loaded->EdgeCount(), edges);
    // Warm: the mapping registry still holds the validated mapping while
    // `loaded` is alive, so this is the many-sessions-one-graph path.
    Stopwatch warm;
    StatusOr<Graph> again = LoadGraphAuto(fog_path);
    times.fog_warm_ms = warm.ElapsedMillis();
    FOLEARN_CHECK(again.ok()) << again.status().message();
    FOLEARN_CHECK_EQ(again->EdgeCount(), edges);
  }
  std::remove(text_path.c_str());
  std::remove(fog_path.c_str());

  const std::string suffix = " n=" + std::to_string(n);
  json.Record("graph_scale/load", "mode=text" + suffix, times.text_ms,
              edges);
  json.Record("graph_scale/load", "mode=fog" + suffix, times.fog_ms, edges);
  json.Record("graph_scale/load", "mode=fog_warm" + suffix,
              times.fog_warm_ms, edges);
  return times;
}

double MeasureBalls(const Graph& graph, int64_t n, BenchJsonWriter& json) {
  Rng rng(7 * n + 1);
  BallCache cache(graph, /*max_bytes=*/64 << 20);
  long long total_ball_vertices = 0;
  Stopwatch watch;
  for (int i = 0; i < kBallQueries; ++i) {
    const auto v = static_cast<Vertex>(rng.UniformIndex(graph.order()));
    total_ball_vertices +=
        static_cast<long long>(cache.VertexBall(v, kRadius).size());
  }
  const double wall_ms = watch.ElapsedMillis();
  json.Record("graph_scale/ball",
              "n=" + std::to_string(n) + " radius=" + std::to_string(kRadius),
              wall_ms, total_ball_vertices);
  return wall_ms;
}

// Per-tuple local evaluation: extract the radius-2 neighbourhood, lower
// the fixed plan onto it through the VM, evaluate. Returns {wall_ms,
// neighbourhood edges processed}.
std::pair<double, long long> MeasureVmBallQueries(const Graph& graph,
                                                  int64_t n,
                                                  BenchJsonWriter& json) {
  FormulaRef formula =
      MustParseFormula("exists y. (E(x1, y) & Red(y))");
  const std::vector<std::string> frame = {"x1"};
  CompiledFormula plan = CompileFormula(formula, frame);
  LoweredPlan lowered = LowerPlan(plan);
  FOLEARN_CHECK(lowered.supported);

  NeighborhoodExtractor extractor(graph);
  long long edges = 0;
  int accepted = 0;
  // One untimed pass first: the extractor's scratch buffers, the
  // allocator's arenas, and the touched graph pages all reach steady state
  // there, which is the regime the per-edge claim is about (folearnd keeps
  // extractors alive across requests).
  {
    Rng warm_rng(13 * n + 5);
    for (int i = 0; i < kTupleQueries; ++i) {
      const Vertex tuple[] = {
          static_cast<Vertex>(warm_rng.UniformIndex(graph.order()))};
      NeighborhoodExtractor::Result local = extractor.Extract(tuple, kRadius);
      VmEvaluator vm(plan, lowered, local.graph, {});
      (void)vm.Eval(local.tuple);
    }
  }
  Rng rng(13 * n + 5);
  Stopwatch watch;
  for (int i = 0; i < kTupleQueries; ++i) {
    const Vertex tuple[] = {
        static_cast<Vertex>(rng.UniformIndex(graph.order()))};
    NeighborhoodExtractor::Result local = extractor.Extract(tuple, kRadius);
    edges += local.graph.EdgeCount();
    VmEvaluator vm(plan, lowered, local.graph, {});
    if (vm.Eval(local.tuple)) ++accepted;
  }
  const double wall_ms = watch.ElapsedMillis();
  json.Record("graph_scale/vm_ball_query",
              "n=" + std::to_string(n) + " radius=" + std::to_string(kRadius),
              wall_ms, edges);
  std::fprintf(stderr, "  vm_ball_query n=%lld: %d/%d accepted\n",
               static_cast<long long>(n), accepted, kTupleQueries);
  return {wall_ms, edges};
}

}  // namespace

int main(int argc, char** argv) {
  BenchJsonWriter json(argc, argv);
  int64_t max_n = 1000000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--max-n") == 0 && i + 1 < argc) {
      max_n = std::atoll(argv[i + 1]);
      ++i;
    }
  }

  std::vector<int64_t> sweep = {400, 100000};
  for (int64_t n = 1000000; n <= max_n; n *= 10) sweep.push_back(n);

  Table table({"n", "edges", "text_ms", "fog_ms", "fog_warm_ms", "ball_ms",
               "vm_query_ms", "vm_us_per_edge"});
  for (int64_t n : sweep) {
    Rng rng(n);
    std::fprintf(stderr, "n=%lld: generating...\n",
                 static_cast<long long>(n));
    Graph graph = MakeSubstrate(n, rng);
    LoadTimes loads{};
    double ball_ms = 0.0;
    if (n >= 1000) {
      // The load and ball experiments only carry signal at scale; n=400
      // exists purely as the vm_ball_query per-edge baseline.
      loads = MeasureLoads(graph, n, json);
      ball_ms = MeasureBalls(graph, n, json);
    }
    auto [query_ms, query_edges] = MeasureVmBallQueries(graph, n, json);
    table.AddRow({std::to_string(n), std::to_string(graph.EdgeCount()),
                  FormatDouble(loads.text_ms), FormatDouble(loads.fog_ms),
                  FormatDouble(loads.fog_warm_ms), FormatDouble(ball_ms),
                  FormatDouble(query_ms),
                  FormatDouble(query_edges > 0
                                   ? 1e3 * query_ms / query_edges
                                   : 0.0,
                               3)});
  }
  table.Print();
  return 0;
}
