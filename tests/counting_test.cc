#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "fo/parser.h"
#include "fo/printer.h"
#include "fo/transform.h"
#include "graph/generators.h"
#include "learn/erm.h"
#include "learn/model_io.h"
#include "mc/evaluator.h"
#include "types/hintikka.h"
#include "types/type.h"
#include "util/checkpoint.h"
#include "util/governor.h"
#include "util/rng.h"

namespace folearn {
namespace {

// --- Formula layer ------------------------------------------------------------

TEST(CountingFormula, FoldingRules) {
  FormulaRef body = Formula::Edge("x", "z");
  EXPECT_EQ(Formula::CountExists(0, "z", body)->kind(), FormulaKind::kTrue);
  EXPECT_EQ(Formula::CountExists(1, "z", body)->kind(),
            FormulaKind::kExists);
  EXPECT_EQ(Formula::CountExists(2, "z", Formula::False())->kind(),
            FormulaKind::kFalse);
  FormulaRef counted = Formula::CountExists(3, "z", body);
  EXPECT_EQ(counted->kind(), FormulaKind::kCountExists);
  EXPECT_EQ(counted->threshold(), 3);
  EXPECT_EQ(counted->quantifier_rank(), 1);
  EXPECT_EQ(counted->free_variables(), std::vector<std::string>{"x"});
  // ∃^{≥t} x true is size-dependent and must NOT fold.
  EXPECT_EQ(Formula::CountExists(2, "z", Formula::True())->kind(),
            FormulaKind::kCountExists);
}

TEST(CountingFormula, ParserPrinterRoundTrip) {
  const char* inputs[] = {
      "exists>=2 z. E(x, z)",
      "exists>=3 z. E(x, z) & Red(z)",
      "!(exists>=2 z. E(x, z))",
  };
  for (const char* input : inputs) {
    FormulaRef once = MustParseFormula(input);
    EXPECT_EQ(ToString(once), input);
    FormulaRef twice = MustParseFormula(ToString(once));
    EXPECT_EQ(ToString(once), ToString(twice));
  }
  // exists>=1 normalises to a plain exists.
  EXPECT_EQ(ToString(MustParseFormula("exists>=1 z. E(x, z)")),
            "exists z. E(x, z)");
  EXPECT_EQ(ToString(MustParseFormula("exists>=0 z. E(x, z)")), "true");
}

TEST(CountingFormula, ParserRejectsMalformedThreshold) {
  std::string error;
  EXPECT_FALSE(ParseFormula("exists>= z. E(x, z)", &error).has_value());
  EXPECT_FALSE(ParseFormula("exists> 2 z. E(x, z)", &error).has_value());
  EXPECT_FALSE(ParseFormula("forall>=2 z. E(x, z)", &error).has_value());
}

// --- Evaluation ---------------------------------------------------------------

TEST(CountingEvaluator, DegreeThresholds) {
  Graph g = MakeStar(4);  // centre 0 with degree 4, leaves degree 1
  std::string vars[] = {"x"};
  for (int t = 1; t <= 5; ++t) {
    FormulaRef at_least =
        Formula::CountExists(t, "z", Formula::Edge("x", "z"));
    Vertex centre[] = {0};
    Vertex leaf[] = {1};
    EXPECT_EQ(EvaluateQuery(g, at_least, vars, centre), t <= 4) << t;
    EXPECT_EQ(EvaluateQuery(g, at_least, vars, leaf), t <= 1) << t;
  }
}

TEST(CountingEvaluator, ThresholdOverTrueCountsVertices) {
  FormulaRef at_least_4 = Formula::CountExists(4, "z", Formula::True());
  EXPECT_FALSE(EvaluateSentence(MakePath(3), at_least_4));
  EXPECT_TRUE(EvaluateSentence(MakePath(4), at_least_4));
}

TEST(CountingEvaluator, RelativizedCountingCountsBallOnly) {
  Graph g = MakePath(9);
  FormulaRef two_neighbours =
      MustParseFormula("exists>=2 z. E(x, z)");
  FormulaRef local = RelativizeToBall(two_neighbours, {"x"}, 1);
  std::string vars[] = {"x"};
  Vertex mid[] = {4};
  Vertex end[] = {0};
  EXPECT_TRUE(EvaluateQuery(g, local, vars, mid));
  EXPECT_FALSE(EvaluateQuery(g, local, vars, end));
}

// --- Counting types (TypeRegistry with cap > 1) -------------------------------

TEST(CountingTypes, SeparateDegreeOneFromTwoAtRankOne) {
  // Plain FO rank-1 types CANNOT separate path endpoints from midpoints
  // (see types_test); counting types with cap 2 can.
  Graph g = MakePath(5);
  TypeRegistry plain(g.vocabulary());
  TypeRegistry counting(g.vocabulary(), 2);
  Vertex end[] = {0};
  Vertex mid[] = {2};
  EXPECT_EQ(ComputeType(g, end, 1, &plain), ComputeType(g, mid, 1, &plain));
  EXPECT_NE(ComputeType(g, end, 1, &counting),
            ComputeType(g, mid, 1, &counting));
}

TEST(CountingTypes, CapOneEquivalentToPlainTypes) {
  Rng rng(72);
  Graph g = MakeRandomTree(12, rng);
  AddRandomColors(g, {"Red"}, 0.4, rng);
  TypeRegistry plain(g.vocabulary());
  TypeRegistry counting(g.vocabulary(), 1);
  // Same partition of vertices.
  std::map<TypeId, std::set<Vertex>> plain_classes;
  std::map<TypeId, std::set<Vertex>> counting_classes;
  for (Vertex v = 0; v < g.order(); ++v) {
    Vertex tuple[] = {v};
    plain_classes[ComputeType(g, tuple, 2, &plain)].insert(v);
    counting_classes[ComputeType(g, tuple, 2, &counting)].insert(v);
  }
  std::set<std::set<Vertex>> plain_partition;
  std::set<std::set<Vertex>> counting_partition;
  for (auto& [id, cls] : plain_classes) plain_partition.insert(cls);
  for (auto& [id, cls] : counting_classes) counting_partition.insert(cls);
  EXPECT_EQ(plain_partition, counting_partition);
}

TEST(CountingTypes, HigherCapRefines) {
  Rng rng(73);
  Graph g = MakePreferentialAttachment(15, 2, rng);
  TypeRegistry cap2(g.vocabulary(), 2);
  TypeRegistry cap4(g.vocabulary(), 4);
  std::set<TypeId> classes2;
  std::set<TypeId> classes4;
  for (Vertex v = 0; v < g.order(); ++v) {
    Vertex tuple[] = {v};
    classes2.insert(ComputeType(g, tuple, 1, &cap2));
    classes4.insert(ComputeType(g, tuple, 1, &cap4));
  }
  EXPECT_GE(classes4.size(), classes2.size());
}

TEST(CountingTypes, ChildrenAreCappedMultisets) {
  // The centre of a 4-star sees itself once and four neighbours: at cap 3
  // its rank-1 type records the "adjacent" child three times. The centre
  // itself (u = 0) is interned first, so its child sorts first.
  Graph g = MakeStar(4);
  TypeRegistry registry(g.vocabulary(), 3);
  Vertex centre[] = {0};
  const TypeNode node = registry.Node(ComputeType(g, centre, 1, &registry));
  ASSERT_EQ(node.children.size(), 4u);
  const TypeId self = node.children.front();
  const TypeId neighbour = node.children.back();
  EXPECT_EQ(std::count(node.children.begin(), node.children.end(), self), 1);
  EXPECT_EQ(
      std::count(node.children.begin(), node.children.end(), neighbour), 3);
  // A multiset over the cap is refused.
  TypeNode over = node;
  over.children.push_back(neighbour);
  EXPECT_DEATH(registry.Intern(over), "cap");
}

TEST(CountingHintikka, DefinesCountingTypeExactly) {
  Rng rng(74);
  Graph g = MakeRandomTree(9, rng);
  AddRandomColors(g, {"Red"}, 0.4, rng);
  TypeRegistry registry(g.vocabulary(), 2);
  std::vector<TypeId> types;
  for (Vertex v = 0; v < g.order(); ++v) {
    Vertex tuple[] = {v};
    types.push_back(ComputeType(g, tuple, 1, &registry));
  }
  HintikkaBuilder builder(registry);
  std::string vars[] = {"x1"};
  for (Vertex v = 0; v < g.order(); ++v) {
    FormulaRef phi = builder.Build(types[v], {"x1"});
    for (Vertex u = 0; u < g.order(); ++u) {
      Vertex tuple[] = {u};
      EXPECT_EQ(EvaluateQuery(g, phi, vars, tuple), types[u] == types[v])
          << "u=" << u << " v=" << v;
    }
  }
}

// --- Counting ERM (the plain learners on a cap-T registry) --------------------

std::shared_ptr<TypeRegistry> CapRegistry(const Graph& g, int cap) {
  return std::make_shared<TypeRegistry>(g.vocabulary(), cap);
}

// Rank 1, radius 1: the FO+C shapes below.
ErmOptions RankOne(int threads = 1) {
  ErmOptions options;
  options.rank = 1;
  options.radius = 1;
  options.threads = threads;
  return options;
}

TEST(CountingErm, LearnsDegreeTwoAtRankOneWherePlainFoFails) {
  Rng rng(75);
  Graph g = MakeRandomTree(30, rng);
  // Target: deg(x) ≥ 2.
  TrainingSet examples;
  for (Vertex v = 0; v < g.order(); ++v) {
    examples.push_back({{v}, g.Degree(v) >= 2});
  }
  // Plain FO at rank 1, radius 1: cannot always separate (leaves vs
  // internal vertices share rank-1 local types when colours are absent).
  ErmResult plain = TypeMajorityErm(g, examples, {}, {1, 1});
  // FO+C at rank 1, cap 2: exact.
  ErmResult counting =
      TypeMajorityErm(g, examples, {}, RankOne(), CapRegistry(g, 2));
  EXPECT_EQ(counting.training_error, 0.0);
  EXPECT_LE(counting.training_error, plain.training_error);
  EXPECT_GT(plain.training_error, 0.0)
      << "tree should have degree variety that plain rank-1 FO cannot see";
}

TEST(CountingErm, ExplicitFormulaMatchesClassifier) {
  Graph g = MakeCaterpillar(6, 2);
  TrainingSet examples;
  for (Vertex v = 0; v < g.order(); ++v) {
    examples.push_back({{v}, g.Degree(v) >= 3});
  }
  ErmResult result =
      TypeMajorityErm(g, examples, {}, RankOne(), CapRegistry(g, 3));
  EXPECT_EQ(result.training_error, 0.0);
  Hypothesis explicit_h = result.hypothesis.ToExplicit();
  for (const LabeledExample& example : examples) {
    EXPECT_EQ(explicit_h.Classify(g, example.tuple), example.label);
  }
}

TEST(CountingErm, BruteForceWithParameters) {
  // Two hubs; target = "adjacent to hub A AND deg(x) small" style mixed
  // concept: at least, brute force must find zero error with the hub as
  // parameter at rank 1 cap 2.
  Graph g = DisjointCopies(MakeStar(6), 2);
  TrainingSet examples;
  for (Vertex v = 1; v <= 6; ++v) examples.push_back({{v}, true});
  for (Vertex v = 8; v <= 13; ++v) examples.push_back({{v}, false});
  ErmResult result =
      BruteForceErm(g, examples, 1, RankOne(), CapRegistry(g, 2));
  EXPECT_EQ(result.training_error, 0.0);
  EXPECT_EQ(result.hypothesis.parameters.size(), 1u);
}

TEST(CountingErm, NeverWorseThanPlainErmAtSameRank) {
  // The counting class (cap ≥ 2) refines the plain class at equal rank and
  // radius, so its ERM optimum can only be at most the FO optimum.
  Rng rng(77);
  for (int trial = 0; trial < 4; ++trial) {
    Graph g = MakePreferentialAttachment(25, 2, rng);
    AddRandomColors(g, {"Red"}, 0.3, rng);
    TrainingSet examples;
    for (Vertex v = 0; v < g.order(); ++v) {
      bool label = g.Degree(v) >= 3;
      if (rng.Bernoulli(0.1)) label = !label;
      examples.push_back({{v}, label});
    }
    ErmResult plain = TypeMajorityErm(g, examples, {}, {1, 1});
    ErmResult counting =
        TypeMajorityErm(g, examples, {}, RankOne(), CapRegistry(g, 3));
    EXPECT_LE(counting.training_error, plain.training_error + 1e-12)
        << "trial=" << trial;
  }
}

// --- FO+C golden rows ---------------------------------------------------------
//
// Recorded from the FO+C learner that kept a type system of its own
// (CountingTypeMajorityErm / CountingBruteForceErm), with its `_c<n>`
// Hintikka variables renamed to `_h<n>`. That brute force interned every
// losing candidate into the winner's registry, so its disjunct order
// depended on the losers; the hash of the two ell = 1 rows is that of its
// per-candidate vote at the winning parameters on a fresh registry (same
// byte count, same parameters, error and diagnostics), which is what the
// sweep's winner re-evaluation reproduces.

struct CountingGolden {
  const char* name;
  std::vector<Vertex> parameters;
  double training_error;
  int64_t distinct_types;
  int64_t tried;
  size_t accepted;
  size_t bytes;
  uint64_t hash;
};

struct CountingShape {
  Graph graph{0};
  TrainingSet examples;
  int ell = 0;
  int cap = 1;
};

CountingShape MakeCountingShape(std::string_view name) {
  CountingShape s;
  if (name == "e11a_t2" || name == "e11a_t3") {
    // E11a: deg(x) ≥ t on bench_counting's random tree.
    Rng rng(4242);
    s.graph = MakeRandomTree(60, rng);
    s.cap = name == "e11a_t2" ? 2 : 3;
    for (Vertex v = 0; v < s.graph.order(); ++v) {
      s.examples.push_back({{v}, s.graph.Degree(v) >= s.cap});
    }
  } else if (name == "tree_ell1") {
    Rng rng(11);
    s.graph = MakeRandomTree(30, rng);
    AddRandomColors(s.graph, {"Red"}, 0.3, rng);
    for (Vertex v = 0; v < s.graph.order(); ++v) {
      bool label =
          (s.graph.Degree(v) >= 2) != (v == 3 || s.graph.HasEdge(v, 3));
      if (rng.Bernoulli(0.1)) label = !label;
      s.examples.push_back({{v}, label});
    }
    s.ell = 1;
    s.cap = 2;
  } else if (name == "pa_ell1") {
    Rng rng(12);
    s.graph = MakePreferentialAttachment(40, 2, rng);
    for (Vertex v = 0; v < s.graph.order(); ++v) {
      bool label = s.graph.Degree(v) >= 3;
      if (rng.Bernoulli(0.1)) label = !label;
      s.examples.push_back({{v}, label});
    }
    s.ell = 1;
    s.cap = 3;
  }
  return s;
}

// A golden row in the table's own literal syntax, so a mismatch prints the
// row to paste.
std::string CountingRow(const CountingGolden& golden) {
  std::string params;
  for (Vertex w : golden.parameters) {
    params += (params.empty() ? "" : ", ") + std::to_string(w);
  }
  char row[256];
  std::snprintf(row, sizeof(row),
                "{\"%s\", {%s}, %.17g, %lld, %lld, %zu, %zu, 0x%016llxull}",
                golden.name, params.c_str(), golden.training_error,
                static_cast<long long>(golden.distinct_types),
                static_cast<long long>(golden.tried), golden.accepted,
                golden.bytes, static_cast<unsigned long long>(golden.hash));
  return row;
}

std::string CountingRow(const char* name, const ErmResult& result) {
  const std::string text = HypothesisToText(result.hypothesis.ToExplicit());
  return CountingRow(CountingGolden{
      name, result.hypothesis.parameters, result.training_error,
      result.distinct_types_seen, result.parameter_tuples_tried,
      result.hypothesis.accepted.size(), text.size(), Fnv1a64(text)});
}

TEST(CountingGolden, RowsMatchAcrossThreads) {
  const CountingGolden golden[] = {
      {"e11a_t2", {}, 0, 2, 1, 1, 320, 0x0a7afb744b0c6708ull},
      {"e11a_t3", {}, 0, 3, 1, 1, 320, 0xf70b4a53e7648ae1ull},
      {"tree_ell1", {3}, 0.033333333333333333, 14, 30, 9, 17966,
       0x451a158807abbeb4ull},
      {"pa_ell1", {7}, 0.025000000000000001, 15, 40, 10, 14023,
       0x8da42d4eda63a0afull},
  };
  for (const CountingGolden& expected : golden) {
    SCOPED_TRACE(expected.name);
    CountingShape s = MakeCountingShape(expected.name);
    if (s.ell == 0) {
      ErmResult direct = TypeMajorityErm(s.graph, s.examples, {}, RankOne(),
                                         CapRegistry(s.graph, s.cap));
      EXPECT_EQ(CountingRow(expected.name, direct), CountingRow(expected));
    }
    for (int threads : {1, 2, 8}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      ErmResult result =
          BruteForceErm(s.graph, s.examples, s.ell, RankOne(threads),
                        CapRegistry(s.graph, s.cap));
      EXPECT_EQ(result.status, RunStatus::kComplete);
      EXPECT_EQ(CountingRow(expected.name, result), CountingRow(expected));
    }
  }
}

// --- FO+C on the governed sweep -----------------------------------------------

// A 0-vertex graph has no parameter tuple of length ≥ 1: the empty range
// yields the parameter-free hypothesis instead of aborting.
TEST(CountingSweep, EmptyParameterRangeGivesParameterFreeHypothesis) {
  Graph g(0);
  for (int ell : {1, 2}) {
    ErmResult result =
        BruteForceErm(g, TrainingSet{}, ell, RankOne(), CapRegistry(g, 2));
    EXPECT_EQ(result.status, RunStatus::kComplete);
    EXPECT_TRUE(result.hypothesis.parameters.empty());
    EXPECT_EQ(result.training_error, 0.0);
    EXPECT_EQ(result.parameter_tuples_tried, 0);
    EXPECT_EQ(result.hypothesis.registry->cap(), 2);
    const std::string text =
        HypothesisToText(result.hypothesis.ToExplicit());
    EXPECT_TRUE(ParseHypothesis(text).ok()) << text;
  }
}

// A work-budget or injected cut stops the FO+C sweep like the plain one:
// status says so, the best-so-far hypothesis materialises and parses back,
// and its bytes do not depend on the thread count.
TEST(CountingSweep, GovernedCutReturnsMaterialisableHypothesis) {
  CountingShape s = MakeCountingShape("tree_ell1");
  const int64_t unit = static_cast<int64_t>(s.examples.size()) + 1;
  FaultInjector injector(10);
  struct Cut {
    const char* name;
    GovernorLimits limits;
    const FaultInjector* injector;
  };
  const Cut cuts[] = {
      {"max_work=3.5 candidates", {kNoLimit, 3 * unit + unit / 2}, nullptr},
      {"max_work=5", {kNoLimit, 5}, nullptr},
      {"fault at checkpoint 10", {}, &injector},
  };
  for (const Cut& cut : cuts) {
    SCOPED_TRACE(cut.name);
    std::string first_text;
    for (int threads : {1, 2, 8}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      ResourceGovernor governor(cut.limits, nullptr, cut.injector);
      ErmOptions options = RankOne(threads);
      options.governor = &governor;
      ErmResult result = BruteForceErm(s.graph, s.examples, s.ell, options,
                                       CapRegistry(s.graph, s.cap));
      EXPECT_NE(result.status, RunStatus::kComplete);
      EXPECT_EQ(result.hypothesis.parameters.size(), 1u);
      const std::string text =
          HypothesisToText(result.hypothesis.ToExplicit());
      StatusOr<Hypothesis> parsed = ParseHypothesis(text);
      ASSERT_TRUE(parsed.ok()) << parsed.status().message();
      if (threads == 1) first_text = text;
      EXPECT_EQ(text, first_text);
    }
  }
}

}  // namespace
}  // namespace folearn
