// ResourceGovernor unit tests plus anytime-semantics tests for every
// governed entry point: interrupted runs return a valid best-so-far
// result, and work-budget / injected trips are deterministic (same inputs
// + same budget ⇒ byte-identical serialised model).

#include <gtest/gtest.h>

#include <atomic>
#include <string>

#include "fo/mso.h"
#include "fo/parser.h"
#include "graph/generators.h"
#include "learn/erm.h"
#include "learn/hardness.h"
#include "learn/model_io.h"
#include "learn/nd_learner.h"
#include "learn/sublinear.h"
#include "learn/vc.h"
#include "mc/evaluator.h"
#include "util/governor.h"
#include "util/rng.h"

namespace folearn {
namespace {

// Labels all k-tuples of `graph` by `query` (over x1..xk).
TrainingSet LabelAll(const Graph& graph, const std::string& query, int k) {
  FormulaRef f = MustParseFormula(query);
  std::vector<std::string> vars = QueryVars(k);
  return LabelByQuery(graph, f, vars, AllTuples(graph.order(), k));
}

std::string ModelText(const ErmResult& result) {
  return HypothesisToText(result.hypothesis.ToExplicit());
}

// --- ResourceGovernor unit tests ---------------------------------------

TEST(Governor, UnlimitedPassesAndCountsWork) {
  ResourceGovernor governor;
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(governor.Checkpoint());
  EXPECT_EQ(governor.status(), RunStatus::kComplete);
  EXPECT_FALSE(governor.Interrupted());
  EXPECT_EQ(governor.work_used(), 1000);
  EXPECT_EQ(governor.checkpoints_passed(), 1000);
}

TEST(Governor, WorkBudgetTripsDeterministicallyAndLatches) {
  GovernorLimits limits;
  limits.max_work = 10;
  ResourceGovernor governor(limits);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(governor.Checkpoint()) << i;
  EXPECT_FALSE(governor.Checkpoint());
  EXPECT_EQ(governor.status(), RunStatus::kBudgetExhausted);
  EXPECT_TRUE(governor.Interrupted());
  // Latched: every later checkpoint fails without charging more work.
  int64_t work_at_trip = governor.work_used();
  EXPECT_FALSE(governor.Checkpoint());
  EXPECT_FALSE(governor.Checkpoint(100));
  EXPECT_EQ(governor.work_used(), work_at_trip);
}

TEST(Governor, UnitsChargeMultipleWork) {
  GovernorLimits limits;
  limits.max_work = 10;
  ResourceGovernor governor(limits);
  EXPECT_TRUE(governor.Checkpoint(6));
  EXPECT_EQ(governor.work_used(), 6);
  EXPECT_FALSE(governor.Checkpoint(6));  // 12 > 10
  EXPECT_EQ(governor.status(), RunStatus::kBudgetExhausted);
}

TEST(Governor, ZeroDeadlineTripsAtFirstCheckpoint) {
  GovernorLimits limits;
  limits.deadline_ms = 0;
  ResourceGovernor governor(limits);
  EXPECT_FALSE(governor.Checkpoint());
  EXPECT_EQ(governor.status(), RunStatus::kDeadlineExceeded);
}

TEST(Governor, CancellationFlagTripsNextCheckpoint) {
  std::atomic<bool> cancel{false};
  ResourceGovernor governor(GovernorLimits{}, &cancel);
  EXPECT_TRUE(governor.Checkpoint());
  cancel.store(true);
  EXPECT_FALSE(governor.Checkpoint());
  EXPECT_EQ(governor.status(), RunStatus::kCancelled);
}

TEST(Governor, FaultInjectorTripsAtExactCheckpoint) {
  FaultInjector injector(5, RunStatus::kDeadlineExceeded);
  ResourceGovernor governor(GovernorLimits{}, nullptr, &injector);
  for (int i = 1; i <= 4; ++i) EXPECT_TRUE(governor.Checkpoint()) << i;
  EXPECT_FALSE(governor.Checkpoint());
  EXPECT_EQ(governor.status(), RunStatus::kDeadlineExceeded);
  EXPECT_EQ(governor.checkpoints_passed(), 5);
}

TEST(Governor, NullHelpersAreUngoverned) {
  EXPECT_TRUE(GovernorCheckpoint(nullptr));
  EXPECT_TRUE(GovernorCheckpoint(nullptr, 100));
  EXPECT_EQ(GovernorStatus(nullptr), RunStatus::kComplete);
  EXPECT_FALSE(GovernorInterrupted(nullptr));
}

TEST(Governor, StatusNames) {
  EXPECT_STREQ(RunStatusName(RunStatus::kComplete), "complete");
  EXPECT_STREQ(RunStatusName(RunStatus::kDeadlineExceeded),
               "deadline-exceeded");
  EXPECT_STREQ(RunStatusName(RunStatus::kBudgetExhausted),
               "budget-exhausted");
  EXPECT_STREQ(RunStatusName(RunStatus::kCancelled), "cancelled");
  EXPECT_FALSE(IsInterrupted(RunStatus::kComplete));
  EXPECT_TRUE(IsInterrupted(RunStatus::kBudgetExhausted));
}

// --- Governed ERM ------------------------------------------------------

TEST(GovernedErm, GenerousBudgetMatchesUngoverned) {
  Graph g = MakePath(8);
  AddPeriodicColor(g, "Red", 3, 0);
  TrainingSet examples = LabelAll(g, "exists z. (E(x1, z) & Red(z))", 1);
  ErmResult ungoverned = BruteForceErm(g, examples, 1, {1, -1});
  GovernorLimits limits;
  limits.max_work = 1000000000;
  ResourceGovernor governor(limits);
  ErmOptions options;
  options.governor = &governor;
  ErmResult governed = BruteForceErm(g, examples, 1, options);
  EXPECT_EQ(governed.status, RunStatus::kComplete);
  EXPECT_EQ(governed.training_error, ungoverned.training_error);
  EXPECT_EQ(ModelText(governed), ModelText(ungoverned));
}

TEST(GovernedErm, TypeMajorityPartialVoteOverSeenExamples) {
  Graph g = MakePath(6);
  TrainingSet examples = {{{0}, true}, {{1}, true}, {{2}, true}, {{3}, true}};
  FaultInjector injector(3);  // two examples processed, third trips
  ResourceGovernor governor(GovernorLimits{}, nullptr, &injector);
  ErmOptions options;
  options.governor = &governor;
  ErmResult result = TypeMajorityErm(g, examples, {}, options);
  EXPECT_EQ(result.status, RunStatus::kBudgetExhausted);
  EXPECT_GE(result.training_error, 0.0);
  EXPECT_LE(result.training_error, 1.0);
  ASSERT_NE(result.hypothesis.registry, nullptr);
}

TEST(GovernedErm, TripBeforeAnyExampleIsPessimistic) {
  Graph g = MakePath(4);
  TrainingSet examples = {{{0}, true}, {{1}, false}};
  FaultInjector injector(1);
  ResourceGovernor governor(GovernorLimits{}, nullptr, &injector);
  ErmOptions options;
  options.governor = &governor;
  ErmResult result = TypeMajorityErm(g, examples, {}, options);
  EXPECT_TRUE(IsInterrupted(result.status));
  EXPECT_EQ(result.training_error, 1.0);
}

TEST(GovernedErm, EveryInjectedTripYieldsSerialisableHypothesis) {
  Rng rng(7);
  Graph g = MakeRandomTree(12, rng);
  AddRandomColors(g, {"Red"}, 0.5, rng);
  TrainingSet examples =
      LabelAll(g, "Red(x1) | exists z. (E(x1, z) & Red(z))", 1);
  int interrupted_runs = 0;
  for (int trip = 1; trip <= 40; trip += 3) {
    FaultInjector injector(trip);
    ResourceGovernor governor(GovernorLimits{}, nullptr, &injector);
    ErmOptions options;
    options.governor = &governor;
    ErmResult result = BruteForceErm(g, examples, 1, options);
    // A late enough trip point lets the scan finish first — that run is
    // simply complete. Early trips must still yield a usable model.
    if (IsInterrupted(result.status)) ++interrupted_runs;
    ASSERT_NE(result.hypothesis.registry, nullptr) << "trip=" << trip;
    EXPECT_GE(result.training_error, 0.0);
    EXPECT_LE(result.training_error, 1.0);
    // The degraded model must survive the save/load round trip.
    std::string text = ModelText(result);
    EXPECT_TRUE(ParseHypothesis(text).ok()) << text;
  }
  EXPECT_GT(interrupted_runs, 0);
}

TEST(GovernedErm, InjectedTripIsDeterministic) {
  Rng rng(7);
  Graph g = MakeRandomTree(12, rng);
  AddRandomColors(g, {"Red"}, 0.5, rng);
  TrainingSet examples =
      LabelAll(g, "Red(x1) | exists z. (E(x1, z) & Red(z))", 1);
  for (int trip = 1; trip <= 40; trip += 7) {
    auto run = [&](int at) {
      FaultInjector injector(at);
      ResourceGovernor governor(GovernorLimits{}, nullptr, &injector);
      ErmOptions options;
      options.governor = &governor;
      return BruteForceErm(g, examples, 1, options);
    };
    ErmResult a = run(trip);
    ErmResult b = run(trip);
    EXPECT_EQ(a.status, b.status) << "trip=" << trip;
    EXPECT_EQ(a.training_error, b.training_error) << "trip=" << trip;
    EXPECT_EQ(a.parameter_tuples_tried, b.parameter_tuples_tried);
    EXPECT_EQ(ModelText(a), ModelText(b)) << "trip=" << trip;
  }
}

TEST(GovernedErm, WorkBudgetTripIsDeterministic) {
  Graph g = MakeCycle(9);
  AddPeriodicColor(g, "Red", 2, 0);
  TrainingSet examples = LabelAll(g, "Red(x1)", 1);
  for (int64_t budget : {1, 5, 20, 50, 200}) {
    auto run = [&]() {
      GovernorLimits limits;
      limits.max_work = budget;
      ResourceGovernor governor(limits);
      ErmOptions options;
      options.governor = &governor;
      return BruteForceErm(g, examples, 1, options);
    };
    ErmResult a = run();
    ErmResult b = run();
    EXPECT_EQ(a.status, b.status) << "budget=" << budget;
    EXPECT_EQ(a.training_error, b.training_error) << "budget=" << budget;
    EXPECT_EQ(ModelText(a), ModelText(b)) << "budget=" << budget;
  }
}

TEST(GovernedErm, EnumerationErmReportsInterruption) {
  Graph g = MakePath(4);
  TrainingSet examples = LabelAll(g, "exists z. E(x1, z)", 1);
  EnumerationOptions enumeration;
  enumeration.max_quantifier_rank = 1;
  FaultInjector injector(1);  // before the very first formula
  ResourceGovernor governor(GovernorLimits{}, nullptr, &injector);
  EnumerationErmResult result =
      EnumerationErm(g, examples, 0, enumeration, &governor);
  EXPECT_TRUE(IsInterrupted(result.status));
  EXPECT_EQ(result.formulas_tried, 0);
}

// --- Governed nd-learner ----------------------------------------------

TEST(GovernedNdLearner, GenerousBudgetMatchesUngoverned) {
  Rng rng(3);
  Graph g = MakeRandomTree(14, rng);
  AddRandomColors(g, {"Red"}, 0.4, rng);
  TrainingSet examples = LabelAll(g, "exists z. (E(x1, z) & Red(z))", 1);
  NdLearnerOptions base;
  base.erm.rank = 1;
  base.ell_star = 1;
  NdLearnerResult ungoverned = LearnNowhereDense(g, examples, base);
  EXPECT_EQ(ungoverned.status, RunStatus::kComplete);
  GovernorLimits limits;
  limits.max_work = 1000000000;
  ResourceGovernor governor(limits);
  NdLearnerOptions governed_options = base;
  governed_options.erm.governor = &governor;
  NdLearnerResult governed = LearnNowhereDense(g, examples, governed_options);
  EXPECT_EQ(governed.status, RunStatus::kComplete);
  EXPECT_EQ(governed.erm.training_error, ungoverned.erm.training_error);
  EXPECT_EQ(ModelText(governed.erm), ModelText(ungoverned.erm));
}

TEST(GovernedNdLearner, InjectedTripReturnsBestSoFarDeterministically) {
  Rng rng(3);
  Graph g = MakeRandomTree(14, rng);
  AddRandomColors(g, {"Red"}, 0.4, rng);
  TrainingSet examples = LabelAll(g, "exists z. (E(x1, z) & Red(z))", 1);
  NdLearnerOptions base;
  base.erm.rank = 1;
  base.ell_star = 1;
  for (int trip : {1, 2, 5, 10, 25, 60, 150}) {
    auto run = [&](int at) {
      FaultInjector injector(at);
      ResourceGovernor governor(GovernorLimits{}, nullptr, &injector);
      NdLearnerOptions options = base;
      options.erm.governor = &governor;
      return LearnNowhereDense(g, examples, options);
    };
    NdLearnerResult a = run(trip);
    NdLearnerResult b = run(trip);
    EXPECT_EQ(a.status, b.status) << "trip=" << trip;
    // A trip point past the run's total checkpoint count never fires, so
    // that run is simply complete; determinism must hold either way.
    if (trip <= 25) {
      EXPECT_TRUE(IsInterrupted(a.status)) << "trip=" << trip;
    }
    // Even under the earliest possible trip, the result carries a
    // well-formed, serialisable hypothesis (the empty-prefix candidate).
    ASSERT_NE(a.erm.hypothesis.registry, nullptr) << "trip=" << trip;
    EXPECT_EQ(a.erm.training_error, b.erm.training_error) << "trip=" << trip;
    EXPECT_EQ(a.candidates_evaluated, b.candidates_evaluated);
    EXPECT_EQ(ModelText(a.erm), ModelText(b.erm)) << "trip=" << trip;
  }
}

// --- Governed sublinear learning ---------------------------------------

TEST(GovernedSublinear, ErmTripKeepsBestSoFar) {
  Graph g = MakePath(10);
  AddPeriodicColor(g, "Red", 2, 0);
  TrainingSet examples = LabelAll(g, "Red(x1)", 1);
  FaultInjector injector(5);
  ResourceGovernor governor(GovernorLimits{}, nullptr, &injector);
  ErmOptions options;
  options.governor = &governor;
  SublinearErmResult result = SublinearErm(g, examples, 1, options);
  EXPECT_TRUE(IsInterrupted(result.erm.status));
  ASSERT_NE(result.erm.hypothesis.registry, nullptr);
  EXPECT_GE(result.erm.training_error, 0.0);
  EXPECT_LE(result.erm.training_error, 1.0);
}

// A trip before the first candidate completes — an injected trip at the
// very first checkpoint, or a deadline of zero — still yields candidate
// 0's (pessimistic) vote on the caller's registry: a model that can be
// saved and loaded, never a default-constructed shell.
TEST(GovernedSublinear, InjectedTripAtFirstCheckpointYieldsModel) {
  Graph g = MakePath(10);
  AddPeriodicColor(g, "Red", 2, 0);
  TrainingSet examples = LabelAll(g, "Red(x1)", 1);
  for (int threads : {1, 2, 8}) {
    FaultInjector injector(1);
    ResourceGovernor governor(GovernorLimits{}, nullptr, &injector);
    ErmOptions options;
    options.governor = &governor;
    options.threads = threads;
    SublinearErmResult result = SublinearErm(g, examples, 1, options);
    EXPECT_EQ(result.erm.status, RunStatus::kBudgetExhausted);
    EXPECT_EQ(result.erm.parameter_tuples_tried, 0);
    ASSERT_NE(result.erm.hypothesis.registry, nullptr);
    EXPECT_EQ(result.erm.training_error, 1.0);
    std::string text = ModelText(result.erm);
    EXPECT_TRUE(ParseHypothesis(text).ok()) << text;
  }
}

TEST(GovernedSublinear, ZeroDeadlineYieldsModel) {
  Graph g = MakePath(10);
  AddPeriodicColor(g, "Red", 2, 0);
  TrainingSet examples = LabelAll(g, "Red(x1)", 1);
  for (int threads : {1, 2, 8}) {
    GovernorLimits limits;
    limits.deadline_ms = 0;
    ResourceGovernor governor(limits);
    ErmOptions options;
    options.governor = &governor;
    options.threads = threads;
    SublinearErmResult result = SublinearErm(g, examples, 1, options);
    EXPECT_EQ(result.erm.status, RunStatus::kDeadlineExceeded);
    ASSERT_NE(result.erm.hypothesis.registry, nullptr);
    std::string text = ModelText(result.erm);
    EXPECT_TRUE(ParseHypothesis(text).ok()) << text;
  }
}

TEST(GovernedSublinear, IndexBuildReportsStatusAndIndexedPrefix) {
  Graph g = MakePath(12);
  FaultInjector injector(4);
  ResourceGovernor governor(GovernorLimits{}, nullptr, &injector);
  LocalTypeIndex index(g, 1, 1, &governor);
  EXPECT_EQ(index.build_status(), RunStatus::kBudgetExhausted);
  EXPECT_EQ(index.indexed_vertices(), 3);
  index.Lookup(2);  // indexed before the trip
  LocalTypeIndex full(g, 1, 1);
  EXPECT_EQ(full.build_status(), RunStatus::kComplete);
  EXPECT_EQ(full.indexed_vertices(), 12);
}

// --- Governed VC search ------------------------------------------------

TEST(GovernedVc, TripYieldsLowerBound) {
  Graph g = MakeCycle(6);
  AddPeriodicColor(g, "Red", 2, 0);
  VcOptions ungoverned_options;
  ungoverned_options.ell = 1;
  VcResult full = ComputeVcDimension(g, 1, ungoverned_options);
  EXPECT_EQ(full.status, RunStatus::kComplete);
  FaultInjector injector(10);
  ResourceGovernor governor(GovernorLimits{}, nullptr, &injector);
  VcOptions options;
  options.ell = 1;
  options.governor = &governor;
  VcResult partial = ComputeVcDimension(g, 1, options);
  EXPECT_TRUE(IsInterrupted(partial.status));
  EXPECT_LE(partial.vc_dimension, full.vc_dimension);
}

// --- Governed evaluators -----------------------------------------------

TEST(GovernedEvaluator, TinyWorkBudgetInterrupts) {
  Graph g = MakePath(8);
  FormulaRef f = MustParseFormula("exists x. exists y. E(x, y)");
  GovernorLimits limits;
  limits.max_work = 2;
  ResourceGovernor governor(limits);
  EvalOptions options;
  options.governor = &governor;
  EvalStats stats;
  EvaluateSentence(g, f, options, &stats);
  EXPECT_EQ(stats.status, RunStatus::kBudgetExhausted);
}

TEST(GovernedEvaluator, CompleteWithinBudgetMatchesUngoverned) {
  Graph g = MakeCycle(5);
  FormulaRef f = MustParseFormula("forall x. exists y. E(x, y)");
  bool plain = EvaluateSentence(g, f);
  GovernorLimits limits;
  limits.max_work = 1000000;
  ResourceGovernor governor(limits);
  EvalOptions options;
  options.governor = &governor;
  EvalStats stats;
  bool governed = EvaluateSentence(g, f, options, &stats);
  EXPECT_EQ(stats.status, RunStatus::kComplete);
  EXPECT_EQ(governed, plain);
}

// --- Governed hardness reduction ---------------------------------------

TEST(GovernedHardness, GenerousBudgetAgreesWithDirectEvaluation) {
  Graph g = MakePath(5);
  FormulaRef sentence = MustParseFormula("exists x. exists y. E(x, y)");
  GovernorLimits limits;
  limits.max_work = 1000000000;
  ResourceGovernor governor(limits);
  TypeErmOracle oracle(0, &governor);
  ModelCheckOptions options;
  options.governor = &governor;
  HardnessStats stats;
  bool value = ModelCheckViaErm(g, sentence, oracle, options, &stats);
  EXPECT_EQ(stats.status, RunStatus::kComplete);
  EXPECT_EQ(value, EvaluateSentence(g, sentence));
}

TEST(GovernedHardness, InjectedTripRecordsInterruption) {
  Graph g = MakePath(6);
  FormulaRef sentence = MustParseFormula("exists x. exists y. E(x, y)");
  FaultInjector injector(2);
  ResourceGovernor governor(GovernorLimits{}, nullptr, &injector);
  TypeErmOracle oracle(0, &governor);
  ModelCheckOptions options;
  options.governor = &governor;
  HardnessStats stats;
  ModelCheckViaErm(g, sentence, oracle, options, &stats);
  EXPECT_TRUE(IsInterrupted(stats.status));
}

// --- MSO budget sizing -------------------------------------------------

TEST(GovernedMso, WorkBoundIsSufficientBudget) {
  Graph g = MakeCycle(6);
  FormulaRef bipartite = MsoBipartiteSentence();
  int64_t bound = MsoEvaluationWorkBound(bipartite, g.order());
  EXPECT_GE(bound, int64_t{1} << g.order());
  GovernorLimits limits;
  limits.max_work = bound;
  ResourceGovernor governor(limits);
  EvalOptions options;
  options.governor = &governor;
  EvalStats stats;
  bool value = EvaluateSentence(g, bipartite, options, &stats);
  EXPECT_EQ(stats.status, RunStatus::kComplete);
  EXPECT_TRUE(value);  // even cycle
}

TEST(GovernedMso, SubsetEnumerationInterrupts) {
  Graph g = MakeCycle(5);  // odd cycle: no early exit, all 2^5 subsets
  GovernorLimits limits;
  limits.max_work = 8;
  ResourceGovernor governor(limits);
  EvalOptions options;
  options.governor = &governor;
  EvalStats stats;
  EvaluateSentence(g, MsoBipartiteSentence(), options, &stats);
  EXPECT_EQ(stats.status, RunStatus::kBudgetExhausted);
}

}  // namespace
}  // namespace folearn
