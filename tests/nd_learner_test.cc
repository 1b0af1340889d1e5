#include <gtest/gtest.h>

#include "fo/parser.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "learn/erm.h"
#include "learn/nd_learner.h"
#include "util/rng.h"

namespace folearn {
namespace {

TEST(NdLearnerOptions, RadiiMatchPaperFormulas) {
  NdLearnerOptions options;
  options.erm.rank = 1;      // r(1) = 3
  options.ell_star = 1;  // R = 3^0 · (k+2)(2r+1)
  EXPECT_EQ(options.erm.EffectiveRadius(), 3);
  EXPECT_EQ(options.GameRadius(/*k=*/1), 21);
  options.ell_star = 2;
  EXPECT_EQ(options.GameRadius(1), 63);
  options.erm.radius = 1;
  EXPECT_EQ(options.GameRadius(2), 36);  // 3 · (4·3)
}

TEST(NdLearner, NoConflictsLearnsWithoutParameters) {
  Graph g = MakePath(12);
  AddPeriodicColor(g, "Red", 2, 0);
  TrainingSet examples = LabelByQuery(
      g, MustParseFormula("Red(x1)"), QueryVars(1), AllTuples(g.order(), 1));
  NdLearnerOptions options;
  options.erm.rank = 1;
  options.erm.radius = 1;
  NdLearnerResult result = LearnNowhereDense(g, examples, options);
  EXPECT_EQ(result.erm.training_error, 0.0);
  EXPECT_TRUE(result.parameters.empty());
}

TEST(NdLearner, EmptyExamplesTrivial) {
  Graph g = MakePath(3);
  NdLearnerResult result = LearnNowhereDense(g, {}, {});
  EXPECT_EQ(result.erm.training_error, 0.0);
  // The result is a real (parameter-free) model, not an empty shell.
  ASSERT_NE(result.erm.hypothesis.registry, nullptr);
  EXPECT_TRUE(result.erm.hypothesis.parameters.empty());
  EXPECT_FALSE(result.erm.hypothesis.ToExplicit().formula == nullptr);
}

// The canonical parameter-demanding workload: two disjoint stars, positives
// near one hub — indistinguishable without parameters, separable with one.
TEST(NdLearner, TwoStarsNeedParameter) {
  Graph g = DisjointCopies(MakeStar(8), 2);  // hubs 0 and 9
  TrainingSet examples;
  for (Vertex v = 1; v <= 8; ++v) examples.push_back({{v}, true});
  for (Vertex v = 10; v <= 17; ++v) examples.push_back({{v}, false});
  NdLearnerOptions options;
  options.erm.rank = 1;
  options.erm.radius = 1;
  options.epsilon = 0.25;
  NdLearnerResult result = LearnNowhereDense(g, examples, options);
  EXPECT_EQ(result.erm.training_error, 0.0);
  EXPECT_FALSE(result.parameters.empty());
  ASSERT_FALSE(result.steps.empty());
  EXPECT_GT(result.steps[0].critical, 0);
  EXPECT_GT(result.steps[0].x_size, 0);
}

// The learner's guarantee (err ≤ ε* + ε) cross-checked against the
// brute-force optimum on random trees with a hidden 1-parameter target.
TEST(NdLearner, WithinEpsilonOfBruteForceOnTrees) {
  Rng rng(55);
  for (int trial = 0; trial < 4; ++trial) {
    Graph g = MakeRandomTree(30, rng);
    AddRandomColors(g, {"Red"}, 0.3, rng);
    // Hidden target: x adjacent to the (random) special vertex w*.
    Vertex w_star = static_cast<Vertex>(rng.UniformIndex(g.order()));
    TrainingSet examples;
    Vertex source[] = {w_star};
    std::vector<int> dist = BfsDistances(g, source);
    for (Vertex v = 0; v < g.order(); ++v) {
      examples.push_back({{v}, dist[v] != kUnreachable && dist[v] <= 1});
    }
    NdLearnerOptions options;
    options.erm.rank = 1;
    options.erm.radius = 1;
    options.epsilon = 0.2;
    NdLearnerResult learned = LearnNowhereDense(g, examples, options);
    ErmResult brute = BruteForceErm(g, examples, 1, {1, 1});
    EXPECT_LE(learned.erm.training_error,
              brute.training_error + options.epsilon + 1e-9)
        << "trial=" << trial;
  }
}

TEST(NdLearner, AgnosticNoiseDoesNotBreakGuarantee) {
  Rng rng(77);
  Graph g = MakeCaterpillar(10, 2);
  TrainingSet examples;
  // Noisy version of "x is on the spine" (degree ≥ 2 ⇔ spine here).
  for (Vertex v = 0; v < g.order(); ++v) {
    bool label = g.Degree(v) >= 2;
    if (rng.Bernoulli(0.1)) label = !label;
    examples.push_back({{v}, label});
  }
  NdLearnerOptions options;
  options.erm.rank = 1;
  options.erm.radius = 1;
  options.epsilon = 0.25;
  NdLearnerResult learned = LearnNowhereDense(g, examples, options);
  ErmResult brute = BruteForceErm(g, examples, 1, {1, 1});
  EXPECT_LE(learned.erm.training_error,
            brute.training_error + options.epsilon + 1e-9);
}

TEST(NdLearner, PairExamplesWithParameter) {
  // k = 2 concept over a path: "x1 and x2 on the same side of the marked
  // centre" is not local-type definable without the centre as parameter
  // when the path is long enough; with the parameter it separates.
  Graph g = MakePath(13);  // centre = 6
  TrainingSet examples;
  Rng rng(101);
  std::vector<std::vector<Vertex>> tuples = SampleTuples(g.order(), 2, 60,
                                                         rng);
  for (const std::vector<Vertex>& t : tuples) {
    bool same_side = (t[0] < 6) == (t[1] < 6) && t[0] != 6 && t[1] != 6;
    examples.push_back({t, same_side});
  }
  NdLearnerOptions options;
  options.erm.rank = 1;
  options.erm.radius = 1;
  options.epsilon = 0.3;
  options.final_radius = 13;  // the whole path fits in the window
  NdLearnerResult learned = LearnNowhereDense(g, examples, options);
  // Compare against brute force with the same final hypothesis class.
  ErmResult brute = BruteForceErm(g, examples, 1, {1, 13});
  EXPECT_LE(learned.erm.training_error,
            brute.training_error + options.epsilon + 1e-9);
}

TEST(NdLearner, MultiStepRecursionAccumulatesParameters) {
  // A two-level broom: root 0 joined to 5 hubs, each hub with 6 leaves.
  // All leaves share one local type; positives = leaves of hubs 1 and 2.
  // The best ONE-parameter hypothesis must sacrifice one positive hub
  // (ε* > 0), and because all conflicts stay inside the root's
  // neighbourhood, the contraction recursion keeps running and collects a
  // parameter per step — letting the learner land BELOW ε*, which the
  // (L,Q) relaxation explicitly allows.
  Graph g(6);  // root 0, hubs 1..5
  for (Vertex hub = 1; hub <= 5; ++hub) g.AddEdge(0, hub);
  std::vector<std::vector<Vertex>> leaves(6);
  for (Vertex hub = 1; hub <= 5; ++hub) {
    for (int i = 0; i < 6; ++i) {
      Vertex leaf = g.AddVertex();
      g.AddEdge(hub, leaf);
      leaves[hub].push_back(leaf);
    }
  }
  TrainingSet examples;
  for (Vertex hub = 1; hub <= 5; ++hub) {
    for (Vertex leaf : leaves[hub]) {
      examples.push_back({{leaf}, hub <= 2});
    }
  }
  NdLearnerOptions options;
  options.erm.rank = 1;
  options.erm.radius = 1;
  options.ell_star = 1;
  options.epsilon = 0.2;
  auto splitter = MakeGreedyDegreeSplitter();
  options.splitter = splitter.get();
  NdLearnerResult result = LearnNowhereDense(g, examples, options);

  ErmResult brute1 = BruteForceErm(g, examples, 1, {1, 1});
  EXPECT_GT(brute1.training_error, 0.0) << "one parameter must not suffice";
  // Paper guarantee: within ε of the one-parameter optimum…
  EXPECT_LE(result.erm.training_error,
            brute1.training_error + options.epsilon + 1e-9);
  // …and the multi-step parameters actually beat it outright here.
  bool deep_step_with_conflicts = false;
  for (const NdStepStats& step : result.steps) {
    if (step.step >= 1 && step.critical > 0) deep_step_with_conflicts = true;
  }
  EXPECT_TRUE(deep_step_with_conflicts);
  EXPECT_GE(result.parameters.size(), 2u);
  EXPECT_EQ(result.erm.training_error, 0.0);
}

TEST(NdLearner, StatsArePopulated) {
  Graph g = DisjointCopies(MakeStar(5), 2);
  TrainingSet examples;
  for (Vertex v = 1; v <= 5; ++v) examples.push_back({{v}, true});
  for (Vertex v = 7; v <= 11; ++v) examples.push_back({{v}, false});
  NdLearnerOptions options;
  options.erm.rank = 1;
  options.erm.radius = 1;
  NdLearnerResult result = LearnNowhereDense(g, examples, options);
  EXPECT_GT(result.candidates_evaluated, 0);
  ASSERT_FALSE(result.steps.empty());
  EXPECT_EQ(result.steps[0].examples, 10);
  EXPECT_EQ(result.steps[0].graph_order, 12);
}

TEST(NdLearner, HypothesisClassifiesConsistently) {
  Graph g = DisjointCopies(MakeStar(4), 2);
  TrainingSet examples;
  for (Vertex v = 1; v <= 4; ++v) examples.push_back({{v}, true});
  for (Vertex v = 6; v <= 9; ++v) examples.push_back({{v}, false});
  NdLearnerOptions options;
  options.erm.rank = 1;
  options.erm.radius = 1;
  NdLearnerResult result = LearnNowhereDense(g, examples, options);
  // The reported error must match re-evaluating the hypothesis.
  EXPECT_DOUBLE_EQ(result.erm.training_error,
                   result.erm.hypothesis.Error(g, examples));
}

}  // namespace
}  // namespace folearn
