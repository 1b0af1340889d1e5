// Property tests (TEST_P sweeps) for the formula layer: parser/printer
// round-trips on random ASTs, evaluator equivalence (recursive vs
// bottom-up), and transform invariants, across seeds and graph families.

#include <gtest/gtest.h>

#include "fo/parser.h"
#include "fo/printer.h"
#include "fo/transform.h"
#include "graph/algorithms.h"
#include "learn/dataset.h"
#include "mc/evaluator.h"
#include "test_helpers.h"

namespace folearn {
namespace {

// --- Round trip over random formulas ------------------------------------------

class RoundTripProperty : public ::testing::TestWithParam<int> {};

TEST_P(RoundTripProperty, PrintParsePrintIsFixedPoint) {
  Rng rng(GetParam());
  const std::vector<std::string> colors = {"Red", "Blue"};
  for (int i = 0; i < 40; ++i) {
    FormulaRef f = RandomFormula(rng, {"x1", "x2"}, colors,
                                 /*quantifier_budget=*/2, /*depth=*/4,
                                 /*allow_counting=*/true);
    std::string printed = ToString(f);
    std::string error;
    std::optional<FormulaRef> reparsed = ParseFormula(printed, &error);
    ASSERT_TRUE(reparsed.has_value()) << printed << " — " << error;
    EXPECT_EQ(ToString(*reparsed), printed);
    EXPECT_EQ((*reparsed)->quantifier_rank(), f->quantifier_rank());
    EXPECT_EQ((*reparsed)->free_variables(), f->free_variables());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoundTripProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// --- Reference interpreter vs VM ----------------------------------------------

struct EvalEquivalenceParam {
  GraphFamily family;
  int seed;
};

class EvalEquivalenceProperty
    : public ::testing::TestWithParam<EvalEquivalenceParam> {};

TEST_P(EvalEquivalenceProperty, InterpreterMatchesVm) {
  Rng rng(GetParam().seed);
  Graph g = MakeFamilyGraph(GetParam().family, 7, rng);
  AddRandomColors(g, {"Red"}, 0.5, rng);
  std::string vars[] = {"x1"};
  const std::vector<std::vector<Vertex>> tuples = AllTuples(g.order(), 1);
  for (int i = 0; i < 25; ++i) {
    FormulaRef f = RandomFormula(rng, {"x1"}, {"Red"},
                                 /*quantifier_budget=*/2, /*depth=*/4,
                                 /*allow_counting=*/true);
    const std::vector<bool> vm = EvaluateOnTuples(g, f, vars, tuples);
    for (Vertex v = 0; v < g.order(); ++v) {
      Vertex tuple[] = {v};
      Assignment assignment(vars, tuple);
      ASSERT_EQ(Evaluate(g, f, assignment), vm[v])
          << ToString(f) << " at v=" << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesAndSeeds, EvalEquivalenceProperty,
    ::testing::Values(EvalEquivalenceParam{GraphFamily::kPath, 11},
                      EvalEquivalenceParam{GraphFamily::kCycle, 12},
                      EvalEquivalenceParam{GraphFamily::kRandomTree, 13},
                      EvalEquivalenceParam{GraphFamily::kStar, 14},
                      EvalEquivalenceParam{GraphFamily::kErdosRenyiSparse,
                                           15},
                      EvalEquivalenceParam{GraphFamily::kGrid, 16}),
    [](const ::testing::TestParamInfo<EvalEquivalenceParam>& info) {
      return std::string(FamilyName(info.param.family)) + "_" +
             std::to_string(info.param.seed);
    });

// --- Transform invariants --------------------------------------------------------

class TransformProperty : public ::testing::TestWithParam<int> {};

TEST_P(TransformProperty, RenamingPreservesSemanticsUnderRenamedBinding) {
  Rng rng(GetParam());
  Graph g = MakeFamilyGraph(GraphFamily::kRandomTree, 8, rng);
  AddRandomColors(g, {"Red"}, 0.5, rng);
  for (int i = 0; i < 20; ++i) {
    FormulaRef f = RandomFormula(rng, {"x1", "x2"}, {"Red"}, 2, 3);
    FormulaRef renamed =
        RenameFreeVariables(f, {{"x1", "u"}, {"x2", "x1"}});
    // Semantics: f(a, b) ⟺ renamed with u ↦ a, x1 ↦ b.
    for (int probe = 0; probe < 6; ++probe) {
      Vertex a = static_cast<Vertex>(rng.UniformIndex(g.order()));
      Vertex b = static_cast<Vertex>(rng.UniformIndex(g.order()));
      std::string original_vars[] = {"x1", "x2"};
      Vertex original_tuple[] = {a, b};
      std::string renamed_vars[] = {"u", "x1"};
      Vertex renamed_tuple[] = {a, b};
      ASSERT_EQ(
          EvaluateQuery(g, f, original_vars, original_tuple),
          EvaluateQuery(g, renamed, renamed_vars, renamed_tuple))
          << ToString(f) << " ↦ " << ToString(renamed) << " a=" << a
          << " b=" << b;
    }
  }
}

TEST_P(TransformProperty, RelativizationEqualsInducedBallEvaluation) {
  Rng rng(1000 + GetParam());
  Graph g = MakeFamilyGraph(GraphFamily::kBoundedDegree, 20, rng);
  AddRandomColors(g, {"Red"}, 0.4, rng);
  const int radius = 2;
  std::string vars[] = {"x1"};
  for (int i = 0; i < 10; ++i) {
    FormulaRef f = RandomFormula(rng, {"x1"}, {"Red"}, 2, 3);
    FormulaRef local = RelativizeToBall(f, {"x1"}, radius);
    EXPECT_LE(local->quantifier_rank(),
              f->quantifier_rank() + 2);  // + O(log radius)
    for (Vertex v = 0; v < g.order(); v += 3) {
      Vertex tuple[] = {v};
      NeighborhoodGraph nbhd = BuildNeighborhoodGraph(g, tuple, radius);
      Vertex mapped[] = {nbhd.tuple[0]};
      ASSERT_EQ(EvaluateQuery(nbhd.induced.graph, f, vars, mapped),
                EvaluateQuery(g, local, vars, tuple))
          << ToString(f) << " v=" << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransformProperty,
                         ::testing::Values(21, 22, 23, 24));

}  // namespace
}  // namespace folearn
