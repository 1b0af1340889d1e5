#include <gtest/gtest.h>

#include "fo/parser.h"
#include "fo/printer.h"
#include "fo/transform.h"
#include "graph/generators.h"
#include "learn/counting_erm.h"
#include "learn/erm.h"
#include "mc/evaluator.h"
#include "types/counting_type.h"
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

// --- Counting types -------------------------------------------------------------

TEST(CountingTypes, SeparateDegreeOneFromTwoAtRankOne) {
  // Plain FO rank-1 types CANNOT separate path endpoints from midpoints
  // (see types_test); counting types with cap 2 can.
  Graph g = MakePath(5);
  TypeRegistry plain(g.vocabulary());
  CountingTypeRegistry counting(g.vocabulary(), 2);
  Vertex end[] = {0};
  Vertex mid[] = {2};
  EXPECT_EQ(ComputeType(g, end, 1, &plain), ComputeType(g, mid, 1, &plain));
  EXPECT_NE(ComputeCountingType(g, end, 1, &counting),
            ComputeCountingType(g, mid, 1, &counting));
}

TEST(CountingTypes, CapOneEquivalentToPlainTypes) {
  Rng rng(72);
  Graph g = MakeRandomTree(12, rng);
  AddRandomColors(g, {"Red"}, 0.4, rng);
  TypeRegistry plain(g.vocabulary());
  CountingTypeRegistry counting(g.vocabulary(), 1);
  // Same partition of vertices.
  std::map<TypeId, std::set<Vertex>> plain_classes;
  std::map<TypeId, std::set<Vertex>> counting_classes;
  for (Vertex v = 0; v < g.order(); ++v) {
    Vertex tuple[] = {v};
    plain_classes[ComputeType(g, tuple, 2, &plain)].insert(v);
    counting_classes[ComputeCountingType(g, tuple, 2, &counting)].insert(v);
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
  CountingTypeRegistry cap2(g.vocabulary(), 2);
  CountingTypeRegistry cap4(g.vocabulary(), 4);
  std::set<TypeId> classes2;
  std::set<TypeId> classes4;
  for (Vertex v = 0; v < g.order(); ++v) {
    Vertex tuple[] = {v};
    classes2.insert(ComputeCountingType(g, tuple, 1, &cap2));
    classes4.insert(ComputeCountingType(g, tuple, 1, &cap4));
  }
  EXPECT_GE(classes4.size(), classes2.size());
}

TEST(CountingHintikka, DefinesCountingTypeExactly) {
  Rng rng(74);
  Graph g = MakeRandomTree(9, rng);
  AddRandomColors(g, {"Red"}, 0.4, rng);
  CountingTypeRegistry registry(g.vocabulary(), 2);
  std::vector<TypeId> types;
  for (Vertex v = 0; v < g.order(); ++v) {
    Vertex tuple[] = {v};
    types.push_back(ComputeCountingType(g, tuple, 1, &registry));
  }
  CountingHintikkaBuilder builder(registry);
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

// --- Counting ERM ----------------------------------------------------------------

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
  CountingErmOptions options;
  options.rank = 1;
  options.cap = 2;
  options.radius = 1;
  CountingErmResult counting =
      CountingTypeMajorityErm(g, examples, {}, options);
  EXPECT_EQ(counting.training_error, 0.0);
  EXPECT_LE(counting.training_error, plain.training_error);
  EXPECT_GT(plain.training_error, 0.0)
      << "tree should have degree variety that plain rank-1 FO cannot see";
}

TEST(CountingErm, ExplicitFormulaMatchesClassifier) {
  Rng rng(76);
  Graph g = MakeCaterpillar(6, 2);
  TrainingSet examples;
  for (Vertex v = 0; v < g.order(); ++v) {
    examples.push_back({{v}, g.Degree(v) >= 3});
  }
  CountingErmOptions options;
  options.rank = 1;
  options.cap = 3;
  options.radius = 1;
  CountingErmResult result = CountingTypeMajorityErm(g, examples, {},
                                                     options);
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
  CountingErmOptions options;
  options.rank = 1;
  options.cap = 2;
  options.radius = 1;
  CountingErmResult result = CountingBruteForceErm(g, examples, 1, options);
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
    CountingErmOptions options;
    options.rank = 1;
    options.cap = 3;
    options.radius = 1;
    CountingErmResult counting =
        CountingTypeMajorityErm(g, examples, {}, options);
    EXPECT_LE(counting.training_error, plain.training_error + 1e-12)
        << "trial=" << trial;
  }
}

}  // namespace
}  // namespace folearn
