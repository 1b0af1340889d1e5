// Failure-injection tests: every module's preconditions abort loudly
// instead of corrupting state. (The library is exception-free; CHECK
// violations are the error contract, so the contract itself is under
// test.)

#include <gtest/gtest.h>

#include "db/database.h"
#include "fo/formula.h"
#include "fo/parser.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "learn/erm.h"
#include "learn/vc.h"
#include "mc/evaluator.h"
#include "nd/covering.h"
#include "nd/wcol.h"
#include "learn/model_io.h"
#include "types/type.h"
#include "util/combinatorics.h"
#include "util/governor.h"
#include "util/rng.h"

namespace folearn {
namespace {

TEST(FailureGraph, VertexOutOfRange) {
  Graph g(3);
  EXPECT_DEATH(g.AddEdge(0, 3), "out of range");
  EXPECT_DEATH(g.AddEdge(-1, 0), "out of range");
  EXPECT_DEATH(g.HasEdge(0, 5), "out of range");
  EXPECT_DEATH(g.SetColor(0, 0), "");  // no colours declared
}

TEST(FailureGraph, SelfLoopRejected) {
  Graph g(2);
  EXPECT_DEATH(g.AddEdge(1, 1), "irreflexive");
}

TEST(FailureGraph, DuplicateColorRejected) {
  Graph g(1);
  g.AddColor("C");
  EXPECT_DEATH(g.AddColor("C"), "duplicate");
}

TEST(FailureGraph, MapTupleOutsideSubgraph) {
  Graph g = MakePath(5);
  Vertex keep[] = {0, 1};
  InducedSubgraph sub = BuildInducedSubgraph(g, keep);
  Vertex outside[] = {4};
  EXPECT_DEATH(sub.MapTuple(outside), "not in induced subgraph");
}

TEST(FailureFormula, EmptyNamesRejected) {
  EXPECT_DEATH(Formula::Color("", "x"), "");
  EXPECT_DEATH(Formula::Edge("x", ""), "");
  EXPECT_DEATH(Formula::Exists("", Formula::Edge("x", "y")), "");
  EXPECT_DEATH(Formula::Color("E", "x"), "reserved");
}

TEST(FailureParser, MustParseDiesOnGarbage) {
  EXPECT_DEATH(MustParseFormula("exists ."), "parse error");
}

TEST(FailureEvaluator, QuantifierOnEmptyGraph) {
  // Note: "exists x. x = x" folds to `true` at construction and never
  // reaches the evaluator — a real quantifier body is needed.
  Graph empty(0);
  EXPECT_DEATH(EvaluateSentence(empty,
                                MustParseFormula("exists x. exists y. E(x, y)")),
               "empty graph");
}

TEST(FailureTypes, NegativeRankRejected) {
  Graph g = MakePath(3);
  TypeRegistry registry(g.vocabulary());
  Vertex tuple[] = {0};
  EXPECT_DEATH(ComputeType(g, tuple, -1, &registry), "");
}

TEST(FailureTypes, CountingRegistryZeroCapRejected) {
  Graph g = MakePath(3);
  EXPECT_DEATH(TypeRegistry(g.vocabulary(), 0), "");
}

TEST(FailureTypes, RegistryMergeAcrossCapsRejected) {
  Graph g = MakePath(3);
  TypeRegistry plain(g.vocabulary());
  TypeRegistry counting(g.vocabulary(), 2);
  EXPECT_DEATH(plain.MergeFrom(counting), "caps");
}

TEST(FailureCovering, EmptyCentersRejected) {
  Graph g = MakePath(4);
  EXPECT_DEATH(GreedyBallCovering(g, {}, 1), "");
  Vertex x[] = {0};
  EXPECT_DEATH(GreedyBallCovering(g, x, 0), "");
}

TEST(FailureWcol, BadOrderRejected) {
  Graph g = MakePath(4);
  std::vector<Vertex> short_order = {0, 1};
  EXPECT_DEATH(WeakColoringNumber(g, short_order, 1), "");
}

TEST(FailureDatabase, SchemaViolations) {
  Schema schema;
  schema.AddRelation("R", 2);
  EXPECT_DEATH(schema.AddRelation("R", 1), "duplicate");
  EXPECT_DEATH(schema.AddRelation("S", 0), "");
  EXPECT_DEATH(Database(schema, -1), "");
}

TEST(FailureErm, MixedArityExamplesRejected) {
  Graph g = MakePath(4);
  TrainingSet mixed = {{{0}, true}, {{1, 2}, false}};
  EXPECT_DEATH(TypeMajorityErm(g, mixed, {}, {1, 1}), "");
}

TEST(FailureCombinatorics, BadArguments) {
  EXPECT_DEATH(ForEachTuple(0, 2, [](const auto&) { return true; }), "");
  EXPECT_DEATH(ForEachSubset(5, -1, [](const auto&) { return true; }), "");
  EXPECT_DEATH(RamseyUpperBound(0, 1, 1), "");
}

TEST(FailureRng, EmptyChooseRejected) {
  Rng rng(1);
  std::vector<int> empty;
  EXPECT_DEATH(rng.Choose(empty), "");
  EXPECT_DEATH(rng.UniformIndex(0), "");
}

TEST(FailureVc, RequiresPositiveK) {
  Graph g = MakePath(3);
  EXPECT_DEATH(ComputeVcDimension(g, 0, {}), "");
}

TEST(FailureGovernor, NegativeDeadlineRejected) {
  GovernorLimits limits;
  limits.deadline_ms = -5;
  EXPECT_DEATH(ResourceGovernor governor(limits), "negative deadline");
}

TEST(FailureGovernor, NonPositiveWorkBudgetRejected) {
  GovernorLimits zero;
  zero.max_work = 0;
  EXPECT_DEATH(ResourceGovernor governor(zero),
               "work budget must be positive");
  GovernorLimits negative;
  negative.max_work = -7;  // any negative value except the kNoLimit sentinel
  EXPECT_DEATH(ResourceGovernor governor(negative),
               "work budget must be positive");
}

TEST(FailureGovernor, InjectorPreconditions) {
  EXPECT_DEATH(FaultInjector injector(0), "positive checkpoint");
  EXPECT_DEATH(FaultInjector injector(-3), "positive checkpoint");
  EXPECT_DEATH(FaultInjector injector(1, RunStatus::kComplete),
               "cannot inject");
}

// Regression pin: an injected trip at a fixed checkpoint N must always
// yield the same best-so-far hypothesis — anytime degradation is part of
// the deterministic contract, not an accident of timing.
TEST(FailureGovernor, InjectedTripIsReproducible) {
  Graph g = MakePath(9);
  AddPeriodicColor(g, "Red", 3, 0);
  TrainingSet examples;
  for (Vertex v = 0; v < g.order(); ++v) {
    examples.push_back({{v}, v % 3 == 1});
  }
  auto run = [&]() {
    FaultInjector injector(7);
    ResourceGovernor governor(GovernorLimits{}, nullptr, &injector);
    ErmOptions options;
    options.governor = &governor;
    return BruteForceErm(g, examples, 1, options);
  };
  ErmResult first = run();
  ErmResult second = run();
  EXPECT_TRUE(IsInterrupted(first.status));
  EXPECT_EQ(first.status, second.status);
  EXPECT_EQ(first.training_error, second.training_error);
  EXPECT_EQ(HypothesisToText(first.hypothesis.ToExplicit()),
            HypothesisToText(second.hypothesis.ToExplicit()));
}

}  // namespace
}  // namespace folearn
