// Property tests (TEST_P sweeps) for the learning stack: ERM optimality
// invariants, the Theorem 13 guarantee against the brute-force optimum,
// covering-lemma properties, and splitter-game budgets, across graph
// families and seeds.

#include <gtest/gtest.h>

#include "fo/parser.h"
#include "graph/algorithms.h"
#include "learn/erm.h"
#include "learn/nd_learner.h"
#include "learn/sublinear.h"
#include "nd/covering.h"
#include "nd/splitter_game.h"
#include "test_helpers.h"

namespace folearn {
namespace {

struct FamilySeedParam {
  GraphFamily family;
  int seed;
};

std::string FamilySeedName(
    const ::testing::TestParamInfo<FamilySeedParam>& info) {
  return std::string(FamilyName(info.param.family)) + "_" +
         std::to_string(info.param.seed);
}

// --- ERM invariants -------------------------------------------------------------

class ErmProperty : public ::testing::TestWithParam<FamilySeedParam> {};

// Workload: noisy hidden rank-1 target on the family graph.
TrainingSet NoisyWorkload(const Graph& g, Rng& rng) {
  std::vector<std::vector<Vertex>> tuples =
      SampleTuples(g.order(), 1, 3 * g.order(), rng);
  TrainingSet examples = LabelByQuery(
      g, MustParseFormula("exists z. (E(x1, z) & Red(z))"), QueryVars(1),
      tuples);
  FlipLabels(examples, 0.1, rng);
  return examples;
}

TEST_P(ErmProperty, ReportedErrorMatchesReEvaluation) {
  Rng rng(GetParam().seed);
  Graph g = MakeFamilyGraph(GetParam().family, 20, rng);
  AddRandomColors(g, {"Red"}, 0.4, rng);
  TrainingSet examples = NoisyWorkload(g, rng);
  ErmResult result = TypeMajorityErm(g, examples, {}, {1, 2});
  EXPECT_DOUBLE_EQ(result.training_error,
                   result.hypothesis.Error(g, examples));
}

TEST_P(ErmProperty, MajorityIsOptimalAmongTypeSets) {
  // No other accept-set over the same types beats the majority vote:
  // flipping any single type's decision cannot reduce the error.
  Rng rng(GetParam().seed + 100);
  Graph g = MakeFamilyGraph(GetParam().family, 15, rng);
  AddRandomColors(g, {"Red"}, 0.4, rng);
  TrainingSet examples = NoisyWorkload(g, rng);
  ErmResult result = TypeMajorityErm(g, examples, {}, {1, 2});
  // Collect per-type counts again and verify the exchange argument.
  std::map<TypeId, std::pair<int, int>> counts;
  for (const LabeledExample& example : examples) {
    TypeId type = ComputeLocalType(g, example.tuple, 1, 2,
                                   result.hypothesis.registry.get());
    auto& entry = counts[type];
    (example.label ? entry.first : entry.second) += 1;
  }
  for (const auto& [type, count] : counts) {
    bool accepted = std::binary_search(result.hypothesis.accepted.begin(),
                                       result.hypothesis.accepted.end(),
                                       type);
    int error_if_accepted = count.second;
    int error_if_rejected = count.first;
    int chosen = accepted ? error_if_accepted : error_if_rejected;
    EXPECT_LE(chosen, accepted ? error_if_rejected : error_if_accepted)
        << "type " << type << " mis-voted";
  }
}

TEST_P(ErmProperty, BruteForceMonotoneInEll) {
  Rng rng(GetParam().seed + 200);
  Graph g = MakeFamilyGraph(GetParam().family, 10, rng);
  AddRandomColors(g, {"Red"}, 0.4, rng);
  TrainingSet examples = NoisyWorkload(g, rng);
  ErmOptions options{1, 1};
  double previous = 1.1;
  for (int ell = 0; ell <= 2; ++ell) {
    ErmResult result = BruteForceErm(g, examples, ell, options);
    EXPECT_LE(result.training_error, previous + 1e-12) << "ell=" << ell;
    previous = result.training_error;
  }
}

TEST_P(ErmProperty, ExplicitFormulaAgreesWithTypeClassifier) {
  Rng rng(GetParam().seed + 300);
  Graph g = MakeFamilyGraph(GetParam().family, 12, rng);
  AddRandomColors(g, {"Red"}, 0.4, rng);
  TrainingSet examples = NoisyWorkload(g, rng);
  ErmResult result = TypeMajorityErm(g, examples, {}, {1, 1});
  Hypothesis explicit_h = result.hypothesis.ToExplicit();
  for (Vertex v = 0; v < g.order(); ++v) {
    Vertex tuple[] = {v};
    ASSERT_EQ(explicit_h.Classify(g, tuple),
              result.hypothesis.Classify(g, tuple))
        << "v=" << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, ErmProperty,
    ::testing::Values(FamilySeedParam{GraphFamily::kPath, 41},
                      FamilySeedParam{GraphFamily::kRandomTree, 42},
                      FamilySeedParam{GraphFamily::kCaterpillar, 43},
                      FamilySeedParam{GraphFamily::kGrid, 44},
                      FamilySeedParam{GraphFamily::kBoundedDegree, 45},
                      FamilySeedParam{GraphFamily::kStar, 46}),
    FamilySeedName);

// Counting ERM refines plain ERM at equal rank/radius on every family.
TEST_P(ErmProperty, CountingNeverWorseThanPlain) {
  Rng rng(GetParam().seed + 400);
  Graph g = MakeFamilyGraph(GetParam().family, 18, rng);
  AddRandomColors(g, {"Red"}, 0.4, rng);
  TrainingSet examples = NoisyWorkload(g, rng);
  ErmResult plain = TypeMajorityErm(g, examples, {}, {1, 1});
  ErmResult counting =
      TypeMajorityErm(g, examples, {}, {1, 1},
                      std::make_shared<TypeRegistry>(g.vocabulary(), 3));
  EXPECT_LE(counting.training_error, plain.training_error + 1e-12);
  EXPECT_DOUBLE_EQ(counting.training_error,
                   counting.hypothesis.Error(g, examples));
}

// The sublinear learner matches the full brute force on every family
// (parameters far from examples cannot help — the Lemma 15 locality).
TEST_P(ErmProperty, SublinearMatchesBruteForce) {
  Rng rng(GetParam().seed + 500);
  Graph g = MakeFamilyGraph(GetParam().family, 20, rng);
  AddRandomColors(g, {"Red"}, 0.4, rng);
  TrainingSet examples = NoisyWorkload(g, rng);
  ErmOptions options{1, 1};
  SublinearErmResult sub = SublinearErm(g, examples, 1, options);
  ErmResult brute = BruteForceErm(g, examples, 1, options);
  EXPECT_EQ(sub.erm.training_error, brute.training_error);
}

// --- Theorem 13 guarantee ---------------------------------------------------------

class NdLearnerProperty : public ::testing::TestWithParam<FamilySeedParam> {};

TEST_P(NdLearnerProperty, WithinEpsilonOfBruteForce) {
  Rng rng(GetParam().seed);
  Graph g = MakeFamilyGraph(GetParam().family, 24, rng);
  // Hidden 1-parameter target: within distance 1 of w*.
  Vertex w_star = static_cast<Vertex>(rng.UniformIndex(g.order()));
  Vertex source[] = {w_star};
  std::vector<int> dist = BfsDistances(g, source);
  TrainingSet examples;
  for (Vertex v = 0; v < g.order(); ++v) {
    examples.push_back({{v}, dist[v] != kUnreachable && dist[v] <= 1});
  }
  NdLearnerOptions options;
  options.erm.rank = 1;
  options.erm.radius = 1;
  options.epsilon = 0.25;
  auto splitter = MakeGreedyDegreeSplitter();
  options.splitter = splitter.get();
  NdLearnerResult learned = LearnNowhereDense(g, examples, options);
  ErmResult brute = BruteForceErm(g, examples, 1, {1, 1});
  EXPECT_LE(learned.erm.training_error,
            brute.training_error + options.epsilon + 1e-9);
  EXPECT_DOUBLE_EQ(learned.erm.training_error,
                   learned.erm.hypothesis.Error(g, examples));
}

INSTANTIATE_TEST_SUITE_P(
    Families, NdLearnerProperty,
    ::testing::Values(FamilySeedParam{GraphFamily::kPath, 51},
                      FamilySeedParam{GraphFamily::kRandomTree, 52},
                      FamilySeedParam{GraphFamily::kRandomTree, 53},
                      FamilySeedParam{GraphFamily::kCaterpillar, 54},
                      FamilySeedParam{GraphFamily::kGrid, 55},
                      FamilySeedParam{GraphFamily::kBoundedDegree, 56},
                      FamilySeedParam{GraphFamily::kStar, 57}),
    FamilySeedName);

// --- Covering lemma across radii ---------------------------------------------------

struct CoveringParam {
  GraphFamily family;
  int seed;
  int radius;
};

class CoveringProperty : public ::testing::TestWithParam<CoveringParam> {};

TEST_P(CoveringProperty, Lemma3PropertiesHold) {
  Rng rng(GetParam().seed);
  Graph g = MakeFamilyGraph(GetParam().family, 40, rng);
  for (int trial = 0; trial < 5; ++trial) {
    int count = 1 + static_cast<int>(rng.UniformIndex(5));
    std::vector<Vertex> centers;
    for (int i = 0; i < count; ++i) {
      centers.push_back(static_cast<Vertex>(rng.UniformIndex(g.order())));
    }
    CoveringResult covering =
        GreedyBallCovering(g, centers, GetParam().radius);
    EXPECT_TRUE(VerifyCovering(g, centers, covering, GetParam().radius))
        << "trial " << trial;
    EXPECT_LE(covering.iterations, static_cast<int>(centers.size()));
  }
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesAndRadii, CoveringProperty,
    ::testing::Values(CoveringParam{GraphFamily::kPath, 61, 1},
                      CoveringParam{GraphFamily::kPath, 62, 3},
                      CoveringParam{GraphFamily::kRandomTree, 63, 2},
                      CoveringParam{GraphFamily::kGrid, 64, 2},
                      CoveringParam{GraphFamily::kBoundedDegree, 65, 1},
                      CoveringParam{GraphFamily::kCycle, 66, 2}),
    [](const ::testing::TestParamInfo<CoveringParam>& info) {
      return std::string(FamilyName(info.param.family)) + "_s" +
             std::to_string(info.param.seed) + "_r" +
             std::to_string(info.param.radius);
    });

// --- Splitter budgets ---------------------------------------------------------------

struct SplitterParam {
  GraphFamily family;
  int radius;
};

class SplitterBudgetProperty
    : public ::testing::TestWithParam<SplitterParam> {};

bool IsForestFamily(GraphFamily family) {
  return family == GraphFamily::kPath ||
         family == GraphFamily::kRandomTree ||
         family == GraphFamily::kCaterpillar ||
         family == GraphFamily::kStar;
}

TEST_P(SplitterBudgetProperty, NowhereDenseFamiliesFinishWithinBudget) {
  Rng rng(71);
  Graph g = MakeFamilyGraph(GetParam().family, 60, rng);
  auto splitter = IsForestFamily(GetParam().family)
                      ? MakeTreeSplitter()
                      : MakeGreedyDegreeSplitter();
  auto connector = MakeGreedyBallConnector();
  Rng connector_rng(72);
  auto random_connector = MakeRandomConnector(connector_rng);
  const int budget = 3 * GetParam().radius + 8;
  for (ConnectorStrategy* c :
       {connector.get(), random_connector.get()}) {
    SplitterGameResult result =
        PlaySplitterGame(g, GetParam().radius, budget, *splitter, *c);
    EXPECT_TRUE(result.splitter_won)
        << FamilyName(GetParam().family) << " r=" << GetParam().radius
        << " vs " << c->name();
  }
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesAndRadii, SplitterBudgetProperty,
    ::testing::Values(SplitterParam{GraphFamily::kPath, 1},
                      SplitterParam{GraphFamily::kPath, 2},
                      SplitterParam{GraphFamily::kRandomTree, 1},
                      SplitterParam{GraphFamily::kRandomTree, 2},
                      SplitterParam{GraphFamily::kCaterpillar, 2},
                      SplitterParam{GraphFamily::kGrid, 1},
                      SplitterParam{GraphFamily::kStar, 2}),
    [](const ::testing::TestParamInfo<SplitterParam>& info) {
      return std::string(FamilyName(info.param.family)) + "_r" +
             std::to_string(info.param.radius);
    });

}  // namespace
}  // namespace folearn
