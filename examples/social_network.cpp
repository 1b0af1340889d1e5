// Social-network moderation: learn "x is within distance 1 of a flagged
// account" — a concept that NEEDS a hypothesis parameter when flags are not
// part of the vocabulary (the paper's h_{φ,w̄}: the flagged hub becomes w̄).
//
// The scenario: a synthetic follower network with a hidden influencer whose
// neighbourhood was moderated; the platform wants a first-order rule
// explaining the moderation decisions. We compare the parameter-free
// learner, the brute-force parameter search (Proposition 11), and the
// nowhere-dense learner (Theorem 13), and PAC-evaluate the winner.
//
//   $ ./social_network

#include <cstdio>

#include "graph/algorithms.h"
#include "graph/generators.h"
#include "learn/erm.h"
#include "learn/nd_learner.h"
#include "learn/pac.h"
#include "util/rng.h"
#include "util/stopwatch.h"

using namespace folearn;

int main() {
  Rng rng(7);
  // A sparse follower network (bounded-degree keeps it nowhere dense).
  const int members = 300;
  Graph network = MakeBoundedDegree(members, 6, 500, rng);
  AddRandomColors(network, {"Verified"}, 0.15, rng);

  // Hidden moderation source: the highest-degree account.
  Vertex influencer = 0;
  for (Vertex v = 0; v < network.order(); ++v) {
    if (network.Degree(v) > network.Degree(influencer)) influencer = v;
  }
  Vertex source[] = {influencer};
  std::vector<int> dist = BfsDistances(network, source);
  std::printf("network       : %d members, %lld edges, influencer degree %d\n",
              network.order(),
              static_cast<long long>(network.EdgeCount()),
              network.Degree(influencer));

  // Training set: moderated ⇔ within distance 1 of the influencer.
  TrainingSet examples;
  for (Vertex v = 0; v < network.order(); ++v) {
    bool moderated = dist[v] != kUnreachable && dist[v] <= 1;
    examples.push_back({{v}, moderated});
  }

  ErmOptions erm_options;
  erm_options.rank = 1;
  erm_options.radius = 1;

  // Parameter-free ERM cannot explain the decisions.
  ErmResult no_params = TypeMajorityErm(network, examples, {}, erm_options);
  std::printf("ℓ = 0 ERM     : training error %.4f\n",
              no_params.training_error);

  // Brute force over all w̄ ∈ V (Proposition 11).
  Stopwatch brute_watch;
  ErmResult brute = BruteForceErm(network, examples, 1, erm_options);
  std::printf("brute force   : training error %.4f (w̄ = %d, %.1f ms, "
              "%lld candidates)\n",
              brute.training_error, brute.hypothesis.parameters[0],
              brute_watch.ElapsedMillis(),
              static_cast<long long>(brute.parameter_tuples_tried));

  // The Theorem 13 learner finds the influencer through conflict analysis
  // and the splitter game instead of scanning all n parameters.
  NdLearnerOptions nd_options;
  nd_options.erm.rank = 1;
  nd_options.erm.radius = 1;
  nd_options.epsilon = 0.1;
  auto splitter = MakeGreedyDegreeSplitter();
  nd_options.splitter = splitter.get();
  Stopwatch nd_watch;
  NdLearnerResult nd = LearnNowhereDense(network, examples, nd_options);
  std::printf("Theorem 13    : training error %.4f (params = [",
              nd.erm.training_error);
  for (size_t i = 0; i < nd.parameters.size(); ++i) {
    std::printf("%s%d", i ? ", " : "", nd.parameters[i]);
  }
  std::printf("], %.1f ms, %lld candidates)\n", nd_watch.ElapsedMillis(),
              static_cast<long long>(nd.candidates_evaluated));
  for (const NdStepStats& step : nd.steps) {
    std::printf("  step %d: |G|=%d, examples=%d, conflict classes=%d, "
                "critical=%d, |X|=%d, branches=%d\n",
                step.step, step.graph_order, step.examples, step.conflicts,
                step.critical, step.x_size, step.branches);
  }

  // PAC evaluation of the learned rule on fresh samples.
  auto target = [&](std::span<const Vertex> tuple) {
    return dist[tuple[0]] != kUnreachable && dist[tuple[0]] <= 1;
  };
  Rng eval_rng(99);
  int wrong = 0;
  const int trials = 2000;
  for (int i = 0; i < trials; ++i) {
    Vertex v = static_cast<Vertex>(eval_rng.UniformIndex(network.order()));
    Vertex tuple[] = {v};
    if (nd.erm.hypothesis.Classify(network, tuple) != target(tuple)) ++wrong;
  }
  std::printf("generalisation: %.4f error on %d fresh samples\n",
              static_cast<double>(wrong) / trials, trials);
  return nd.erm.training_error <= brute.training_error + 0.1 ? 0 : 1;
}
