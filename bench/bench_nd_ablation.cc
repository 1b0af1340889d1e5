// E8 — ablations of the Theorem 13 learner's design knobs on a
// conflict-heavy workload (three hidden hubs, noisy labels, k = 1, ℓ* = 1):
//   (a) the Y-guess branch cap (the deterministic unrolling of the paper's
//       nondeterministic guess);
//   (b) the Splitter strategy used for parameter extraction;
//   (c) ε, which sizes the Lemma 14 centre budget ⌈kℓ*s/ε⌉.

#include <cstdio>

#include "bench_json.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "learn/erm.h"
#include "learn/nd_learner.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/table.h"

using namespace folearn;

namespace {

struct Workload {
  Graph graph;
  TrainingSet examples;
};

// Three disjoint star clusters; label = near hub of cluster 0 or 1 (so one
// parameter is not enough for zero error — conflicts survive step 1).
Workload ThreeHubs(int leaves, double noise, Rng& rng) {
  Workload w{DisjointCopies(MakeStar(leaves), 3), {}};
  int cluster = leaves + 1;
  std::vector<Vertex> hubs = {0, static_cast<Vertex>(cluster)};
  std::vector<int> dist = BfsDistances(w.graph, hubs);
  for (Vertex v = 0; v < w.graph.order(); ++v) {
    bool label = dist[v] != kUnreachable && dist[v] <= 1;
    if (rng.Bernoulli(noise)) label = !label;
    w.examples.push_back({{v}, label});
  }
  return w;
}

}  // namespace

int main(int argc, char** argv) {
  BenchJsonWriter json(argc, argv);
  BenchTotalTimer bench_total(json, "nd_ablation");
  Rng rng(2468);
  Workload w = ThreeHubs(30, 0.05, rng);
  ErmResult brute = BruteForceErm(w.graph, w.examples, 1, {1, 1});
  ErmResult brute2 = BruteForceErm(w.graph, w.examples, 2, {1, 1});
  std::printf("E8: Theorem 13 ablations (3-cluster workload, %d examples; "
              "brute-force optimum: ℓ=1 → %.3f, ℓ=2 → %.3f)\n\n",
              static_cast<int>(w.examples.size()), brute.training_error,
              brute2.training_error);

  std::printf("E8a: branch cap (max Y-guesses per step), ℓ* = 2\n\n");
  {
    Table table({"branch cap", "train err", "candidates", "time ms"});
    for (int cap : {1, 2, 4, 8, 16}) {
      NdLearnerOptions options;
      options.erm.rank = 1;
      options.erm.radius = 1;
      options.ell_star = 2;
      options.epsilon = 0.2;
      options.max_branches_per_step = cap;
      Stopwatch watch;
      NdLearnerResult result = LearnNowhereDense(w.graph, w.examples,
                                                 options);
      table.AddRow({std::to_string(cap),
                    FormatDouble(result.erm.training_error, 3),
                    std::to_string(result.candidates_evaluated),
                    FormatDouble(watch.ElapsedMillis(), 1)});
    }
    table.Print();
    std::printf("\nMore branches = more of the nondeterministic guess "
                "explored = error approaches the\nbrute-force optimum, at "
                "linear extra cost.\n\n");
  }

  std::printf("E8b: Splitter strategy (ℓ* = 2, cap 8)\n\n");
  {
    Table table({"strategy", "train err", "candidates", "time ms"});
    std::vector<std::unique_ptr<SplitterStrategy>> strategies;
    strategies.push_back(MakeCenterSplitter());
    strategies.push_back(MakeTreeSplitter());
    strategies.push_back(MakeGreedyDegreeSplitter());
    for (auto& strategy : strategies) {
      NdLearnerOptions options;
      options.erm.rank = 1;
      options.erm.radius = 1;
      options.ell_star = 2;
      options.epsilon = 0.2;
      options.max_branches_per_step = 8;
      options.splitter = strategy.get();
      Stopwatch watch;
      NdLearnerResult result = LearnNowhereDense(w.graph, w.examples,
                                                 options);
      table.AddRow({strategy->name(),
                    FormatDouble(result.erm.training_error, 3),
                    std::to_string(result.candidates_evaluated),
                    FormatDouble(watch.ElapsedMillis(), 1)});
    }
    table.Print();
    std::printf("\nThe parameters ARE Splitter's moves (paper §5): a "
                "strategy that removes hubs finds\nthe discriminating "
                "vertices; a poor strategy still satisfies the ε guarantee "
                "via the\ncandidate pool but may need more branches.\n\n");
  }

  std::printf("E8c: ε (sizes the Lemma 14 centre budget kℓ*s/ε)\n\n");
  {
    Table table({"epsilon", "centre budget", "train err", "time ms"});
    for (double epsilon : {0.5, 0.25, 0.1, 0.05}) {
      NdLearnerOptions options;
      options.erm.rank = 1;
      options.erm.radius = 1;
      options.ell_star = 2;
      options.epsilon = epsilon;
      options.max_branches_per_step = 8;
      int budget = static_cast<int>(
          std::ceil(1 * options.ell_star *
                    options.EffectiveRounds(1) / epsilon));
      Stopwatch watch;
      NdLearnerResult result = LearnNowhereDense(w.graph, w.examples,
                                                 options);
      table.AddRow({FormatDouble(epsilon, 2), std::to_string(budget),
                    FormatDouble(result.erm.training_error, 3),
                    FormatDouble(watch.ElapsedMillis(), 1)});
    }
    table.Print();
    std::printf("\nSmaller ε buys a larger centre set X (more conflict mass "
                "attended) — the paper's\nerror-vs-work dial.\n");
  }
  return 0;
}
