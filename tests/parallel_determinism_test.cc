// Determinism of the parallel sweeps: BruteForceErm, SublinearErm,
// EnumerationErm, and the nd-learner must return identical hypotheses, training errors,
// diagnostics, and serialised model bytes for --threads 1/2/8 — on
// complete runs, on early-stopped (zero-error) runs, and under injected
// governor trips at fixed checkpoints.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fo/parser.h"
#include "fo/printer.h"
#include "graph/generators.h"
#include "learn/dataset.h"
#include "learn/erm.h"
#include "learn/model_io.h"
#include "learn/nd_learner.h"
#include "learn/sublinear.h"
#include "util/governor.h"
#include "util/rng.h"

namespace folearn {
namespace {

const int kThreadCounts[] = {1, 2, 8};

std::string ModelText(const ErmResult& result) {
  return HypothesisToText(result.hypothesis.ToExplicit());
}

// Noisy workload: no zero-error candidate, so scans run to their limit.
struct NoisyWorkload {
  Graph graph{0};
  TrainingSet examples;

  NoisyWorkload() {
    Rng rng(321);
    graph = MakeRandomTree(18, rng);
    AddRandomColors(graph, {"Red"}, 0.4, rng);
    std::vector<std::vector<Vertex>> tuples =
        SampleTuples(graph.order(), 1, 3 * graph.order(), rng);
    examples = LabelByQuery(
        graph, MustParseFormula("exists z. (E(x1, z) & Red(z))"),
        QueryVars(1), tuples);
    FlipLabels(examples, 0.3, rng);
  }
};

// Realisable workload: labels come from E(x1, y1) with the parameter
// y1 = 3 substituted, so some candidate reaches zero error and the scan
// exercises the early-stop (first-hit) path.
struct RealisableWorkload {
  Graph graph{0};
  TrainingSet examples;

  RealisableWorkload() {
    Rng rng(99);
    graph = MakeRandomTree(14, rng);
    AddRandomColors(graph, {"Red"}, 0.5, rng);
    std::vector<std::vector<Vertex>> pairs;
    for (const auto& tuple :
         SampleTuples(graph.order(), 1, 2 * graph.order(), rng)) {
      pairs.push_back({tuple[0], Vertex{3}});
    }
    const std::vector<std::string> vars = {"x1", "y1"};
    TrainingSet labelled =
        LabelByQuery(graph, MustParseFormula("E(x1, y1)"), vars, pairs);
    for (const auto& example : labelled) {
      examples.push_back({{example.tuple[0]}, example.label});
    }
  }
};

void ExpectSameErm(const ErmResult& base, const ErmResult& other,
                   const std::string& label) {
  EXPECT_EQ(base.training_error, other.training_error) << label;
  EXPECT_EQ(base.status, other.status) << label;
  EXPECT_EQ(base.parameter_tuples_tried, other.parameter_tuples_tried)
      << label;
  EXPECT_EQ(base.hypothesis.parameters, other.hypothesis.parameters) << label;
  EXPECT_EQ(base.hypothesis.accepted, other.hypothesis.accepted) << label;
  EXPECT_EQ(ModelText(base), ModelText(other)) << label;
}

TEST(ParallelDeterminism, BruteForceCompleteScan) {
  NoisyWorkload w;
  ErmOptions options;
  options.threads = 1;
  ErmResult base = BruteForceErm(w.graph, w.examples, 1, options, nullptr,
                                 /*early_stop=*/false);
  EXPECT_EQ(base.parameter_tuples_tried, w.graph.order());
  for (int threads : kThreadCounts) {
    ErmOptions parallel = options;
    parallel.threads = threads;
    ErmResult result = BruteForceErm(w.graph, w.examples, 1, parallel,
                                     nullptr, /*early_stop=*/false);
    ExpectSameErm(base, result, "threads=" + std::to_string(threads));
  }
}

TEST(ParallelDeterminism, BruteForceEarlyStopOnZeroError) {
  RealisableWorkload w;
  ErmOptions options;
  options.threads = 1;
  ErmResult base = BruteForceErm(w.graph, w.examples, 1, options);
  ASSERT_EQ(base.training_error, 0.0);
  for (int threads : kThreadCounts) {
    ErmOptions parallel = options;
    parallel.threads = threads;
    ErmResult result = BruteForceErm(w.graph, w.examples, 1, parallel);
    ExpectSameErm(base, result, "threads=" + std::to_string(threads));
  }
}

TEST(ParallelDeterminism, BruteForceUnderInjectedTrips) {
  NoisyWorkload w;
  // Trip points spanning "before anything", mid-candidate, between
  // candidates, and beyond the scan.
  for (int64_t trip : {1, 2, 17, 40, 41, 100, 1000}) {
    ErmResult base;
    std::string base_text;
    bool first = true;
    for (int threads : kThreadCounts) {
      FaultInjector injector(trip);
      ResourceGovernor governor(GovernorLimits{}, nullptr, &injector);
      ErmOptions options;
      options.governor = &governor;
      options.threads = threads;
      ErmResult result = BruteForceErm(w.graph, w.examples, 1, options);
      const std::string label =
          "trip=" + std::to_string(trip) +
          " threads=" + std::to_string(threads);
      // Work accounting must match the sequential scan exactly.
      if (first) {
        base = result;
        base_text = ModelText(base);
        first = false;
        continue;
      }
      ExpectSameErm(base, result, label);
      EXPECT_EQ(ModelText(result), base_text) << label;
    }
  }
}

TEST(ParallelDeterminism, BruteForceWorkBudgetAccountingMatches) {
  NoisyWorkload w;
  for (int64_t budget : {5, 33, 64, 500}) {
    int64_t base_work = -1;
    RunStatus base_status = RunStatus::kComplete;
    for (int threads : kThreadCounts) {
      GovernorLimits limits;
      limits.max_work = budget;
      ResourceGovernor governor(limits);
      ErmOptions options;
      options.governor = &governor;
      options.threads = threads;
      ErmResult result = BruteForceErm(w.graph, w.examples, 1, options);
      const std::string label = "budget=" + std::to_string(budget) +
                                " threads=" + std::to_string(threads);
      EXPECT_EQ(result.status, governor.status()) << label;
      if (base_work < 0) {
        base_work = governor.work_used();
        base_status = governor.status();
        continue;
      }
      EXPECT_EQ(governor.work_used(), base_work) << label;
      EXPECT_EQ(governor.status(), base_status) << label;
    }
  }
}

TEST(ParallelDeterminism, EnumerationErmAcrossThreads) {
  NoisyWorkload w;
  EnumerationOptions enumeration;
  enumeration.colors = {"Red"};
  enumeration.max_quantifier_rank = 1;
  enumeration.max_boolean_depth = 1;
  enumeration.max_count = 600;
  EnumerationErmResult base =
      EnumerationErm(w.graph, w.examples, 0, enumeration, nullptr, 1);
  ASSERT_NE(base.hypothesis.formula, nullptr);
  for (int threads : kThreadCounts) {
    EnumerationErmResult result =
        EnumerationErm(w.graph, w.examples, 0, enumeration, nullptr, threads);
    const std::string label = "threads=" + std::to_string(threads);
    EXPECT_EQ(result.training_error, base.training_error) << label;
    EXPECT_EQ(result.formulas_tried, base.formulas_tried) << label;
    ASSERT_NE(result.hypothesis.formula, nullptr) << label;
    EXPECT_EQ(HypothesisToText(result.hypothesis),
              HypothesisToText(base.hypothesis))
        << label;
  }
}

TEST(ParallelDeterminism, EnumerationErmUnderInjectedTrips) {
  NoisyWorkload w;
  EnumerationOptions enumeration;
  enumeration.colors = {"Red"};
  enumeration.max_quantifier_rank = 1;
  enumeration.max_boolean_depth = 1;
  enumeration.max_count = 600;
  for (int64_t trip : {1, 7, 123}) {
    EnumerationErmResult base;
    bool first = true;
    for (int threads : kThreadCounts) {
      FaultInjector injector(trip);
      ResourceGovernor governor(GovernorLimits{}, nullptr, &injector);
      EnumerationErmResult result = EnumerationErm(
          w.graph, w.examples, 0, enumeration, &governor, threads);
      const std::string label = "trip=" + std::to_string(trip) +
                                " threads=" + std::to_string(threads);
      EXPECT_TRUE(IsInterrupted(result.status)) << label;
      if (first) {
        base = result;
        first = false;
        continue;
      }
      EXPECT_EQ(result.training_error, base.training_error) << label;
      EXPECT_EQ(result.formulas_tried, base.formulas_tried) << label;
      EXPECT_EQ(result.status, base.status) << label;
      if (base.hypothesis.formula != nullptr) {
        ASSERT_NE(result.hypothesis.formula, nullptr) << label;
        EXPECT_EQ(HypothesisToText(result.hypothesis),
                  HypothesisToText(base.hypothesis))
            << label;
      } else {
        EXPECT_EQ(result.hypothesis.formula, nullptr) << label;
      }
    }
  }
}

TEST(ParallelDeterminism, NdLearnerAcrossThreads) {
  NoisyWorkload w;
  NdLearnerOptions base_options;
  base_options.ell_star = 1;
  base_options.erm.rank = 1;
  base_options.erm.radius = 1;
  base_options.erm.threads = 1;
  NdLearnerResult base = LearnNowhereDense(w.graph, w.examples, base_options);
  for (int threads : kThreadCounts) {
    NdLearnerOptions options = base_options;
    options.erm.threads = threads;
    NdLearnerResult result = LearnNowhereDense(w.graph, w.examples, options);
    const std::string label = "threads=" + std::to_string(threads);
    EXPECT_EQ(result.erm.training_error, base.erm.training_error) << label;
    EXPECT_EQ(result.candidates_evaluated, base.candidates_evaluated)
        << label;
    EXPECT_EQ(result.parameters, base.parameters) << label;
    EXPECT_EQ(ModelText(result.erm), ModelText(base.erm)) << label;
  }
}

TEST(ParallelDeterminism, NdLearnerUnderInjectedTrips) {
  NoisyWorkload w;
  for (int64_t trip : {1, 30, 300, 900}) {
    NdLearnerResult base;
    bool first = true;
    for (int threads : kThreadCounts) {
      FaultInjector injector(trip);
      ResourceGovernor governor(GovernorLimits{}, nullptr, &injector);
      NdLearnerOptions options;
      options.ell_star = 1;
      options.erm.rank = 1;
      options.erm.radius = 1;
      options.erm.governor = &governor;
      options.erm.threads = threads;
      NdLearnerResult result = LearnNowhereDense(w.graph, w.examples, options);
      const std::string label = "trip=" + std::to_string(trip) +
                                " threads=" + std::to_string(threads);
      if (first) {
        base = result;
        first = false;
        continue;
      }
      EXPECT_EQ(result.erm.training_error, base.erm.training_error) << label;
      EXPECT_EQ(result.candidates_evaluated, base.candidates_evaluated)
          << label;
      EXPECT_EQ(result.parameters, base.parameters) << label;
      EXPECT_EQ(result.status, base.status) << label;
      EXPECT_EQ(ModelText(result.erm), ModelText(base.erm)) << label;
    }
  }
}

TEST(ParallelDeterminism, SublinearAcrossThreads) {
  const auto check = [](const Graph& graph, const TrainingSet& examples,
                        const std::string& name) {
    for (int ell : {1, 2}) {
      ErmOptions options;
      SublinearErmResult base = SublinearErm(graph, examples, ell, options);
      for (int threads : kThreadCounts) {
        options.threads = threads;
        SublinearErmResult result =
            SublinearErm(graph, examples, ell, options);
        const std::string label = name + " ell=" + std::to_string(ell) +
                                  " threads=" + std::to_string(threads);
        EXPECT_EQ(result.candidate_pool_size, base.candidate_pool_size)
            << label;
        ExpectSameErm(base.erm, result.erm, label);
      }
    }
  };
  NoisyWorkload noisy;
  check(noisy.graph, noisy.examples, "noisy");
  RealisableWorkload realisable;
  check(realisable.graph, realisable.examples, "realisable");
}

TEST(ParallelDeterminism, SublinearUnderInjectedTrips) {
  NoisyWorkload w;
  // Trip points spanning "before anything", mid-candidate, between
  // candidates, and beyond the scan.
  for (int64_t trip : {1, 2, 17, 55, 56, 57, 400, 100000}) {
    ErmResult base;
    int64_t base_work = -1;
    int64_t base_checkpoints = -1;
    for (int threads : kThreadCounts) {
      FaultInjector injector(trip);
      ResourceGovernor governor(GovernorLimits{}, nullptr, &injector);
      ErmOptions options;
      options.governor = &governor;
      options.threads = threads;
      ErmResult result = SublinearErm(w.graph, w.examples, 1, options).erm;
      const std::string label = "trip=" + std::to_string(trip) +
                                " threads=" + std::to_string(threads);
      ASSERT_NE(result.hypothesis.registry, nullptr) << label;
      if (base_work < 0) {
        base = result;
        base_work = governor.work_used();
        base_checkpoints = governor.checkpoints_passed();
        continue;
      }
      ExpectSameErm(base, result, label);
      EXPECT_EQ(governor.work_used(), base_work) << label;
      EXPECT_EQ(governor.checkpoints_passed(), base_checkpoints) << label;
    }
  }
}

// The ball cache is purely an accelerator: single-threaded ERM with and
// without one must agree bit for bit.
TEST(ParallelDeterminism, BallCacheDoesNotChangeResults) {
  NoisyWorkload w;
  ErmOptions plain;
  ErmResult base = BruteForceErm(w.graph, w.examples, 1, plain);
  BallCache cache(w.graph);
  ErmOptions cached = plain;
  cached.ball_cache = &cache;
  ErmResult result = BruteForceErm(w.graph, w.examples, 1, cached);
  ExpectSameErm(base, result, "ball-cache");
  EXPECT_GT(cache.hits() + cache.misses(), 0);
}

}  // namespace
}  // namespace folearn
