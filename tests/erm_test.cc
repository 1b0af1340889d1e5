#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "fo/parser.h"
#include "fo/printer.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "learn/erm.h"
#include "learn/model_io.h"
#include "learn/sublinear.h"
#include "util/rng.h"

namespace folearn {
namespace {

// Labels all k-tuples of `graph` by `query` (over x1..xk).
TrainingSet LabelAll(const Graph& graph, const std::string& query, int k) {
  FormulaRef f = MustParseFormula(query);
  std::vector<std::string> vars = QueryVars(k);
  return LabelByQuery(graph, f, vars, AllTuples(graph.order(), k));
}

TEST(TypeMajorityErm, PerfectFitOnDefinableConcept) {
  Graph g = MakePath(10);
  AddPeriodicColor(g, "Red", 3, 0);
  // Target: x has a red neighbour (rank 1).
  TrainingSet examples = LabelAll(g, "exists z. (E(x1, z) & Red(z))", 1);
  ErmResult result = TypeMajorityErm(g, examples, {}, {1, -1});
  EXPECT_EQ(result.training_error, 0.0);
  EXPECT_EQ(result.hypothesis.Error(g, examples), 0.0);
  EXPECT_GT(result.distinct_types_seen, 1);
}

TEST(TypeMajorityErm, ErrorMatchesMinorityCounts) {
  // Two examples with the same tuple and contradictory labels force
  // exactly one error.
  Graph g = MakePath(5);
  TrainingSet examples = {{{2}, true}, {{2}, false}, {{0}, true}};
  ErmResult result = TypeMajorityErm(g, examples, {}, {1, -1});
  EXPECT_DOUBLE_EQ(result.training_error, 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(result.hypothesis.Error(g, examples), 1.0 / 3.0);
}

TEST(TypeMajorityErm, TieRejectsType) {
  Graph g = MakePath(3);
  TrainingSet examples = {{{1}, true}, {{1}, false}};
  ErmResult result = TypeMajorityErm(g, examples, {}, {0, 0});
  EXPECT_TRUE(result.hypothesis.accepted.empty());
  EXPECT_DOUBLE_EQ(result.training_error, 0.5);
}

TEST(TypeMajorityErm, EmptyTrainingSetIsPerfect) {
  Graph g = MakePath(3);
  ErmResult result = TypeMajorityErm(g, {}, {}, {1, -1});
  EXPECT_EQ(result.training_error, 0.0);
}

TEST(TypeMajorityErm, ExplicitFormulaAgreesWithTypeClassifier) {
  Rng rng(17);
  Graph g = MakeRandomTree(12, rng);
  AddRandomColors(g, {"Red"}, 0.4, rng);
  TrainingSet examples = LabelAll(g, "Red(x1) | exists z. (E(x1, z) & Red(z))", 1);
  ErmResult result = TypeMajorityErm(g, examples, {}, {1, 2});
  Hypothesis explicit_h = result.hypothesis.ToExplicit();
  EXPECT_LE(explicit_h.formula->quantifier_rank(),
            1 + 3);  // rank + O(log radius)
  for (const LabeledExample& example : examples) {
    EXPECT_EQ(explicit_h.Classify(g, example.tuple),
              result.hypothesis.Classify(g, example.tuple))
        << ToString(explicit_h.formula);
  }
}

TEST(TypeMajorityErm, ParametersEnableSeparation) {
  // Target: x is within distance 1 of the marked hub w. Without parameters
  // the two star leaves are indistinguishable; with w̄ = (hub) the concept
  // is rank-0 definable on the combined tuple.
  Graph g = MakeStar(6);          // hub = 0
  Graph h = DisjointCopies(g, 2);  // two stars: hubs 0 and 7
  // Positives: leaves of star 0; negatives: leaves of star 1.
  TrainingSet examples;
  for (Vertex v = 1; v <= 6; ++v) examples.push_back({{v}, true});
  for (Vertex v = 8; v <= 13; ++v) examples.push_back({{v}, false});
  // Parameter-free: leaves all share one local type → majority everything.
  ErmResult without = TypeMajorityErm(h, examples, {}, {1, 2});
  EXPECT_GT(without.training_error, 0.4);
  // Parameter = hub of star 0.
  Vertex params[] = {0};
  ErmResult with = TypeMajorityErm(h, examples, params, {1, 2});
  EXPECT_EQ(with.training_error, 0.0);
}

TEST(BruteForceErm, FindsDiscriminatingParameter) {
  Graph g = DisjointCopies(MakeStar(5), 2);
  TrainingSet examples;
  for (Vertex v = 1; v <= 5; ++v) examples.push_back({{v}, true});
  for (Vertex v = 7; v <= 11; ++v) examples.push_back({{v}, false});
  ErmResult result = BruteForceErm(g, examples, 1, {1, 2});
  EXPECT_EQ(result.training_error, 0.0);
  EXPECT_EQ(result.hypothesis.parameters.size(), 1u);
}

TEST(BruteForceErm, EllZeroEqualsFixedEmptyParameters) {
  Graph g = MakePath(8);
  AddPeriodicColor(g, "Red", 2, 0);
  TrainingSet examples = LabelAll(g, "Red(x1)", 1);
  ErmResult brute = BruteForceErm(g, examples, 0, {1, -1});
  ErmResult fixed = TypeMajorityErm(g, examples, {}, {1, -1});
  EXPECT_EQ(brute.training_error, fixed.training_error);
  EXPECT_EQ(brute.parameter_tuples_tried, 1);
}

TEST(BruteForceErm, NeverWorseThanAnySingleParameter) {
  Rng rng(23);
  Graph g = MakeRandomTree(9, rng);
  AddRandomColors(g, {"Red"}, 0.5, rng);
  std::vector<std::vector<Vertex>> tuples = SampleTuples(g.order(), 1, 30, rng);
  TrainingSet examples =
      LabelByQuery(g, MustParseFormula("exists z. (E(x1, z) & Red(z))"),
                   QueryVars(1), tuples);
  FlipLabels(examples, 0.15, rng);
  ErmOptions options{1, 2};
  ErmResult best = BruteForceErm(g, examples, 1, options);
  for (Vertex w = 0; w < g.order(); ++w) {
    Vertex params[] = {w};
    ErmResult candidate = TypeMajorityErm(g, examples, params, options);
    EXPECT_LE(best.training_error, candidate.training_error) << "w=" << w;
  }
}

// E9's core assertion in miniature: the type-majority optimum lower-bounds
// every explicitly enumerated formula of the same rank (Corollary 6).
TEST(TypeMajorityErm, LowerBoundsEnumeratedFormulas) {
  Graph g = MakePath(6);
  AddPeriodicColor(g, "Red", 2, 0);
  Rng rng(31);
  std::vector<std::vector<Vertex>> tuples = SampleTuples(g.order(), 1, 40, rng);
  TrainingSet examples =
      LabelByQuery(g, MustParseFormula("Red(x1) & exists z. E(x1, z)"),
                   QueryVars(1), tuples);
  FlipLabels(examples, 0.2, rng);

  ErmResult type_best = TypeMajorityErm(g, examples, {}, {1, -1});

  EnumerationOptions enumeration;
  enumeration.colors = {"Red"};
  enumeration.max_quantifier_rank = 1;
  enumeration.max_boolean_depth = 1;
  enumeration.max_count = 2000;
  EnumerationErmResult formula_best = EnumerationErm(g, examples, 0,
                                                     enumeration);
  EXPECT_LE(type_best.training_error, formula_best.training_error + 1e-12);
}

TEST(EnumerationErm, SolvesTinyRealizableInstanceExactly) {
  Graph g = MakePath(4);
  AddPeriodicColor(g, "Red", 2, 1);
  TrainingSet examples = LabelAll(g, "Red(x1)", 1);
  EnumerationOptions enumeration;
  enumeration.colors = {"Red"};
  enumeration.max_quantifier_rank = 0;
  enumeration.max_count = 200;
  EnumerationErmResult result = EnumerationErm(g, examples, 0, enumeration);
  EXPECT_EQ(result.training_error, 0.0);
  EXPECT_EQ(ToString(result.hypothesis.formula), "Red(x1)");
}

TEST(Dataset, CountAndSplitAndFlip) {
  Graph g = MakePath(6);
  TrainingSet examples = LabelAll(g, "exists z. E(x1, z)", 1);
  auto [pos, neg] = CountLabels(examples);
  EXPECT_EQ(pos, 6);
  EXPECT_EQ(neg, 0);
  Rng rng(3);
  FlipLabels(examples, 1.0, rng);
  auto [pos2, neg2] = CountLabels(examples);
  EXPECT_EQ(pos2, 0);
  EXPECT_EQ(neg2, 6);
  auto [train, test] = SplitTrainTest(examples, 0.5, rng);
  EXPECT_EQ(train.size(), 3u);
  EXPECT_EQ(test.size(), 3u);
}

TEST(Dataset, AllTuplesPairs) {
  std::vector<std::vector<Vertex>> tuples = AllTuples(3, 2);
  EXPECT_EQ(tuples.size(), 9u);
  EXPECT_EQ(tuples[0], (std::vector<Vertex>{0, 0}));
  EXPECT_EQ(tuples[5], (std::vector<Vertex>{1, 2}));
}

// Binary classification of PAIRS (k = 2).
TEST(TypeMajorityErm, PairQueries) {
  Graph g = MakePath(7);
  // Target: dist(x1, x2) ≤ 2 — rank-1 definable (common neighbour or edge
  // or equal).
  TrainingSet examples =
      LabelAll(g, "x1 = x2 | E(x1, x2) | exists z. (E(x1, z) & E(z, x2))", 2);
  ErmResult result = TypeMajorityErm(g, examples, {}, {1, -1});
  EXPECT_EQ(result.training_error, 0.0);
  EXPECT_EQ(result.hypothesis.k, 2);
}


// Oracle grid: the shared sweep composes the local types of far
// (example, candidate) pairs instead of computing them. For each of its
// candidate sources — all of V^ℓ (BruteForceErm), the example pool^ℓ
// (SublinearErm) and an explicit list of mixed-length tuples (the
// nowhere-dense learner's final phase) — the result must be exactly that
// of a first-minimiser scan of direct TypeMajorityErm over the same
// candidates: parameters, error and model bytes, at any thread count.
enum class OracleFamily { kTree, kGrid, kSparseRandom, kDisconnected };
enum class OracleSource { kAll, kPool, kList };

using OracleParam = std::tuple<OracleFamily, int /*q*/, int /*r*/,
                               int /*k*/, int /*ell*/, OracleSource>;

Graph MakeOracleGraph(OracleFamily family, int n, Rng& rng) {
  switch (family) {
    case OracleFamily::kTree: {
      Graph g = MakeRandomTree(n, rng);
      AddRandomColors(g, {"Red"}, 0.4, rng);
      return g;
    }
    case OracleFamily::kGrid: {
      Graph g = MakeGrid(n / 3, 3);
      AddRandomColors(g, {"Red"}, 0.4, rng);
      return g;
    }
    case OracleFamily::kSparseRandom: {
      Graph g = MakeErdosRenyi(n, 1.5 / n, rng);
      AddRandomColors(g, {"Red", "Blue"}, 0.35, rng);
      return g;
    }
    case OracleFamily::kDisconnected: {
      // Three components, one of them an isolated vertex: most pairs are
      // at infinite distance.
      Graph g = DisjointUnion(DisjointCopies(MakeRandomTree(n / 2, rng), 2),
                              MakePath(1));
      AddRandomColors(g, {"Red"}, 0.4, rng);
      return g;
    }
  }
  return Graph(0);
}

// SublinearErm's pool: every vertex within 2r+1 of an example entry, then
// the first vertex outside that neighbourhood.
std::vector<Vertex> ExamplePool(const Graph& g, const TrainingSet& examples,
                                int radius) {
  std::vector<Vertex> sources;
  for (const LabeledExample& example : examples) {
    sources.insert(sources.end(), example.tuple.begin(), example.tuple.end());
  }
  std::vector<int> dist = BfsDistances(g, sources, 2 * radius + 1);
  std::vector<Vertex> pool;
  Vertex far = kNoVertex;
  for (Vertex v = 0; v < g.order(); ++v) {
    if (dist[v] != kUnreachable) {
      pool.push_back(v);
    } else if (far == kNoVertex) {
      far = v;
    }
  }
  if (far != kNoVertex) pool.push_back(far);
  return pool;
}

class ErmOracleGrid : public ::testing::TestWithParam<OracleParam> {};

TEST_P(ErmOracleGrid, SweepEqualsFirstMinimiserOfDirectScan) {
  const auto [family, q, r, k, ell, source] = GetParam();
  Rng rng(1000 + 100 * static_cast<int>(family) + 10 * q + r + 3 * k + ell);
  // Rank-2 models are large formulas (most of this test's time goes into
  // printing them): smaller graphs and fewer examples keep the grid fast
  // enough for repeated sanitizer runs.
  const int n = (ell == 2 ? 10 : 16) - (q == 2 ? 3 : 0);
  Graph g = MakeOracleGraph(family, n, rng);
  TrainingSet examples;
  for (const std::vector<Vertex>& tuple :
       SampleTuples(g.order(), k, q == 2 ? 6 : 10, rng)) {
    examples.push_back({tuple, rng.Bernoulli(0.5)});
  }
  ErmOptions options;
  options.rank = q;
  options.radius = r;

  std::vector<std::vector<Vertex>> candidates;
  const std::vector<Vertex> pool =
      ExamplePool(g, examples, options.EffectiveRadius());
  if (source == OracleSource::kAll) {
    candidates = AllTuples(g.order(), ell);
  } else if (source == OracleSource::kPool) {
    for (const std::vector<Vertex>& raw :
         AllTuples(static_cast<int>(pool.size()), ell)) {
      std::vector<Vertex> parameters;
      for (Vertex index : raw) parameters.push_back(pool[index]);
      candidates.push_back(parameters);
    }
  } else {
    // The empty tuple first, then random tuples of length 0…ℓ, repeats
    // included.
    candidates.push_back({});
    for (int i = 0; i < 12; ++i) {
      candidates.push_back(
          SampleTuples(g.order(), static_cast<int>(rng.UniformIndex(ell + 1)),
                       1, rng)[0]);
    }
  }

  // The oracle: every candidate on its own fresh registry, direct types,
  // first strict minimiser kept.
  ErmResult oracle;
  int64_t oracle_tried = 0;
  for (const std::vector<Vertex>& parameters : candidates) {
    ErmResult candidate = TypeMajorityErm(g, examples, parameters, options);
    ++oracle_tried;
    if (oracle_tried == 1 ||
        candidate.training_error < oracle.training_error) {
      oracle = std::move(candidate);
    }
    if (oracle.training_error == 0.0) break;
  }
  const std::string oracle_text =
      HypothesisToText(oracle.hypothesis.ToExplicit());

  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    options.threads = threads;
    ErmResult swept;
    if (source == OracleSource::kAll) {
      swept = BruteForceErm(g, examples, ell, options);
    } else if (source == OracleSource::kPool) {
      SublinearErmResult sublinear = SublinearErm(g, examples, ell, options);
      EXPECT_EQ(sublinear.candidate_pool_size,
                static_cast<int64_t>(pool.size()));
      swept = sublinear.erm;
    } else {
      swept = TypeMajoritySweep(
          g, examples, static_cast<int64_t>(candidates.size()),
          [&](int64_t index) { return candidates[index]; }, options,
          nullptr, "list", /*early_stop=*/true, /*first_item_discount=*/1);
    }
    EXPECT_EQ(swept.hypothesis.parameters, oracle.hypothesis.parameters);
    EXPECT_EQ(swept.training_error, oracle.training_error);
    EXPECT_EQ(swept.distinct_types_seen, oracle.distinct_types_seen);
    EXPECT_EQ(swept.parameter_tuples_tried, oracle_tried);
    EXPECT_EQ(HypothesisToText(swept.hypothesis.ToExplicit()), oracle_text);
  }
}

std::string OracleName(const ::testing::TestParamInfo<OracleParam>& info) {
  const char* families[] = {"tree", "grid", "sparse", "disconnected"};
  const char* sources[] = {"", "_pool", "_list"};
  const auto [family, q, r, k, ell, source] = info.param;
  return std::string(families[static_cast<int>(family)]) + "_q" +
         std::to_string(q) + "_r" + std::to_string(r) + "_k" +
         std::to_string(k) + "_ell" + std::to_string(ell) +
         sources[static_cast<int>(source)];
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ErmOracleGrid,
    ::testing::Combine(::testing::Values(OracleFamily::kTree,
                                         OracleFamily::kGrid,
                                         OracleFamily::kSparseRandom,
                                         OracleFamily::kDisconnected),
                       ::testing::Values(0, 1, 2), ::testing::Values(0, 1, 2),
                       ::testing::Values(1, 2), ::testing::Values(1, 2),
                       ::testing::Values(OracleSource::kAll)),
    OracleName);

// The other two sources on a smaller grid: the pool of these small graphs
// is nearly all of V, so the full grid would mostly repeat the one above
// (and triple its sanitizer time).
INSTANTIATE_TEST_SUITE_P(
    Sources, ErmOracleGrid,
    ::testing::Combine(::testing::Values(OracleFamily::kTree,
                                         OracleFamily::kDisconnected),
                       ::testing::Values(1, 2), ::testing::Values(0, 1),
                       ::testing::Values(1, 2), ::testing::Values(1, 2),
                       ::testing::Values(OracleSource::kPool,
                                         OracleSource::kList)),
    OracleName);

}  // namespace
}  // namespace folearn
