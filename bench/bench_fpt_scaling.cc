// E1 — Theorem 13 is FPT: learner runtime scales polynomially (near
// linearly) in n + m on nowhere dense families with all parameters fixed.
//
// Workload: hidden 1-parameter target "x within distance 1 of w*" on
// paths, random trees, and grids; k=1, ℓ*=1, q*=1, ε=0.2 fixed; n sweeps.
// The "ratio" column is time(n) / time(previous n): a bounded ratio ≈
// the sweep factor certifies polynomial scaling; exponential growth would
// blow the ratio up.

#include <cstdio>

#include "bench_json.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "learn/nd_learner.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/table.h"

using namespace folearn;

namespace {

TrainingSet DistanceOneWorkload(const Graph& graph, Rng& rng) {
  Vertex w_star = static_cast<Vertex>(rng.UniformIndex(graph.order()));
  Vertex source[] = {w_star};
  std::vector<int> dist = BfsDistances(graph, source);
  TrainingSet examples;
  for (Vertex v = 0; v < graph.order(); ++v) {
    examples.push_back({{v}, dist[v] != kUnreachable && dist[v] <= 1});
  }
  return examples;
}

}  // namespace

int main(int argc, char** argv) {
  BenchJsonWriter json(argc, argv);
  BenchTotalTimer bench_total(json, "fpt_scaling");
  std::printf("E1: Theorem 13 learner, runtime vs n "
              "(k=1, ℓ*=1, q*=1, r=1, ε=0.2 fixed)\n\n");
  Rng rng(2024);
  Table table({"family", "n", "train err", "time ms", "ratio"});

  struct FamilySpec {
    const char* name;
    Graph (*make)(int, Rng&);
  };
  auto make_path = [](int n, Rng&) { return MakePath(n); };
  auto make_tree = [](int n, Rng& r) { return MakeRandomTree(n, r); };
  auto make_grid = [](int n, Rng&) {
    int side = 1;
    while (side * side < n) ++side;
    return MakeGrid(side, side);
  };
  struct Entry {
    const char* name;
    Graph (*make)(int, Rng&);
  };
  Entry families[] = {{"path", +make_path},
                      {"random tree", +make_tree},
                      {"grid", +make_grid}};

  for (const Entry& family : families) {
    double previous = 0.0;
    for (int n : {100, 200, 400, 800}) {
      Graph graph = family.make(n, rng);
      TrainingSet examples = DistanceOneWorkload(graph, rng);
      NdLearnerOptions options;
      options.erm.rank = 1;
      options.erm.radius = 1;
      options.epsilon = 0.2;
      Stopwatch watch;
      NdLearnerResult result = LearnNowhereDense(graph, examples, options);
      double ms = watch.ElapsedMillis();
      table.AddRow({family.name, std::to_string(graph.order()),
                    FormatDouble(result.erm.training_error, 3),
                    FormatDouble(ms, 1),
                    previous > 0 ? FormatDouble(ms / previous, 2) : "-"});
      previous = ms;
    }
  }
  table.Print();
  std::printf(
      "\nn doubles each row; a bounded time ratio (near ~2 on paths/trees, "
      "a larger but\nstable constant on grids whose radius-R balls are "
      "quadratically bigger) is the\npoly(n+m) signature of Theorem 13 — "
      "exponential behaviour would blow the ratio up.\n");
  return 0;
}
