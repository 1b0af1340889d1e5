// Determinism pinning: the whole pipeline is seeded, so these exact values
// must reproduce run after run and machine after machine. A change here
// means an algorithm changed behaviour (intended: update the constants;
// unintended: a nondeterminism or logic regression slipped in).
//
// Values were captured from a reference run; they are *behavioural*
// fingerprints, not correctness oracles — correctness is covered by the
// rest of the suite.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <optional>
#include <numeric>
#include <string_view>

#include "fo/parser.h"
#include "fo/printer.h"
#include "graph/generators.h"
#include "graph/invariants.h"
#include "graph/algorithms.h"
#include "learn/erm.h"
#include "learn/model_io.h"
#include "learn/nd_learner.h"
#include "learn/sublinear.h"
#include "learn/vc.h"
#include "nd/wcol.h"
#include "util/rng.h"

namespace folearn {
namespace {

class RegressionFixture : public ::testing::Test {
 protected:
  RegressionFixture() : rng_(424242) {
    graph_ = MakeRandomTree(45, rng_);
    AddRandomColors(graph_, {"Red"}, 0.35, rng_);
  }

  Rng rng_;
  Graph graph_{0};
};

TEST_F(RegressionFixture, GeneratorFingerprint) {
  EXPECT_EQ(graph_.order(), 45);
  EXPECT_EQ(graph_.EdgeCount(), 44);
  EXPECT_EQ(graph_.MaxDegree(), 5);
}

TEST_F(RegressionFixture, InvariantFingerprint) {
  EXPECT_EQ(ComputeDegeneracy(graph_).degeneracy, 1);
  EXPECT_EQ(ComputeDiameter(graph_), 18);
  EXPECT_EQ(WeakColoringNumberDegeneracyOrder(graph_, 2), 3);
}

TEST_F(RegressionFixture, LearningFingerprint) {
  TrainingSet examples = LabelByQuery(
      graph_, MustParseFormula("exists z. (E(x1, z) & Red(z))"),
      QueryVars(1), AllTuples(graph_.order(), 1));
  FlipLabels(examples, 0.1, rng_);

  ErmResult erm = TypeMajorityErm(graph_, examples, {}, {1, 2});
  EXPECT_NEAR(erm.training_error, 0.022222, 1e-6);
  EXPECT_EQ(erm.distinct_types_seen, 14);
  EXPECT_EQ(erm.hypothesis.accepted.size(), 8u);

  ErmResult brute = BruteForceErm(graph_, examples, 1, {1, 1});
  EXPECT_EQ(brute.training_error, 0.0);
  ASSERT_EQ(brute.hypothesis.parameters.size(), 1u);
  EXPECT_EQ(brute.hypothesis.parameters[0], 6);
  EXPECT_EQ(brute.parameter_tuples_tried, 7);
}

TEST_F(RegressionFixture, VcFingerprint) {
  VcOptions options;
  options.rank = 1;
  options.radius = 1;
  EXPECT_EQ(ComputeVcDimension(graph_, 1, options).vc_dimension, 6);
}

// Two independent constructions from the same seed must agree bit-for-bit
// on a learned hypothesis's serialised form.
TEST(Regression, LearnedFormulaIsStableAcrossRuns) {
  auto run = [] {
    Rng rng(777);
    Graph g = MakeCaterpillar(8, 2);
    AddRandomColors(g, {"Red"}, 0.4, rng);
    TrainingSet ex = LabelByQuery(g, MustParseFormula("Red(x1)"),
                                  QueryVars(1), AllTuples(g.order(), 1));
    ErmResult r = TypeMajorityErm(g, ex, {}, {1, 1});
    return ToString(r.hypothesis.ToExplicit().formula);
  };
  EXPECT_EQ(run(), run());
}


// Model-byte golden table for BruteForceErm: the parameters, error, size
// and FNV-1a hash of the model text that a scan computing every
// (example, candidate) local type from its ball produces. The sweep, which
// composes the types of far pairs, must reproduce them byte for byte at
// any thread count.
uint64_t Fnv1a(std::string_view text) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

// perfbench's pattern tree: a seeded random tree with 30% of the vertices
// in each colour class.
Graph PatternTree(int n, int colours) {
  Rng pattern(0x7e3e0000u + static_cast<uint64_t>(n));
  Graph graph = MakeRandomTree(n, pattern);
  const char* names[] = {"Red", "Blue"};
  for (int c = 0; c < colours; ++c) {
    ColorId colour = graph.AddColor(names[c]);
    std::vector<Vertex> order(n);
    std::iota(order.begin(), order.end(), 0);
    pattern.Shuffle(order);
    for (int i = 0; i < n * 3 / 10; ++i) graph.SetColor(order[i], colour);
  }
  graph.Finalize();
  return graph;
}

// `count` coin-flip-labelled k-tuples plus the first tuple again with the
// opposite label, so no candidate reaches zero error and the sweep visits
// every candidate.
TrainingSet CoinFlipExamples(int n, int k, int count, uint64_t seed) {
  Rng rng(seed);
  TrainingSet examples;
  for (const std::vector<Vertex>& tuple : SampleTuples(n, k, count, rng)) {
    examples.push_back({tuple, rng.Bernoulli(0.5)});
  }
  examples.push_back({examples[0].tuple, !examples[0].label});
  return examples;
}

struct GoldenModel {
  const char* name;
  std::vector<Vertex> parameters;
  double training_error;
  size_t bytes;
  uint64_t hash;
};

struct GoldenInput {
  Graph graph{0};
  TrainingSet examples;
  int ell = 1;
  ErmOptions options;
};

GoldenInput MakeGoldenInput(std::string_view name) {
  GoldenInput in;
  in.options.rank = 1;
  in.options.radius = 1;
  if (name == "learn_shared") {
    in.graph = PatternTree(200, 1);
    in.examples = CoinFlipExamples(200, 1, 32, 101);
  } else if (name == "evaluate_text") {
    in.graph = PatternTree(120, 2);
    in.examples = CoinFlipExamples(120, 1, 24, 102);
  } else if (name == "rank2") {
    in.graph = PatternTree(40, 1);
    in.examples = CoinFlipExamples(40, 1, 20, 103);
    in.options.rank = 2;
  } else if (name == "ell2") {
    in.graph = PatternTree(24, 1);
    in.examples = CoinFlipExamples(24, 1, 16, 104);
    in.ell = 2;
  } else if (name == "k2") {
    in.graph = PatternTree(30, 2);
    in.examples = CoinFlipExamples(30, 2, 20, 105);
  } else if (name == "disconnected") {
    in.graph = DisjointCopies(PatternTree(12, 1), 3);
    in.examples = CoinFlipExamples(36, 1, 20, 106);
    in.options.radius = 2;
  } else if (name == "realizable") {
    // Positive iff adjacent to vertex 7: a zero-error parameter exists,
    // so the sweep stops early at the first one.
    in.graph = PatternTree(60, 1);
    for (Vertex v = 0; v < in.graph.order(); ++v) {
      in.examples.push_back({{v}, in.graph.HasEdge(v, 7)});
    }
  }
  return in;
}

// "{name, {params}, error, bytes, hash}": a golden row in the table's own
// literal syntax, so a mismatch prints the row to paste.
std::string GoldenRow(const GoldenModel& golden) {
  std::string params;
  for (Vertex w : golden.parameters) {
    params += (params.empty() ? "" : ", ") + std::to_string(w);
  }
  char row[256];
  std::snprintf(row, sizeof(row), "{\"%s\", {%s}, %.17g, %zu, 0x%016llxull}",
                golden.name, params.c_str(), golden.training_error,
                golden.bytes, static_cast<unsigned long long>(golden.hash));
  return row;
}

// The golden row of a learned model.
std::string GoldenRow(const char* name, const ErmResult& result) {
  const std::string text = HypothesisToText(result.hypothesis.ToExplicit());
  return GoldenRow(GoldenModel{name, result.hypothesis.parameters,
                               result.training_error, text.size(),
                               Fnv1a(text)});
}

TEST(ModelGolden, BruteForceModelBytesMatchAllDirectSweep) {
  const GoldenModel golden[] = {
      {"learn_shared", {16}, 0.27272727272727271, 4855,
       0x37899b0378050848ull},
      {"evaluate_text", {3}, 0.040000000000000001, 18376,
       0x8861700d270313dcull},
      {"rank2", {38}, 0.14285714285714285, 203135, 0xe8052921a353faccull},
      {"ell2", {2, 6}, 0.11764705882352941, 12525, 0x2948ad8fe3c2608dull},
      {"k2", {0}, 0.047619047619047616, 37224, 0xf6af20ec039f6b22ull},
      {"disconnected", {1}, 0.19047619047619047, 6597,
       0x20684c79dc9011f0ull},
      {"realizable", {7}, 0, 2766, 0x54a55d81203626b8ull},
  };
  for (const GoldenModel& expected : golden) {
    GoldenInput in = MakeGoldenInput(expected.name);
    for (int threads : {1, 2, 8}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      ErmOptions options = in.options;
      options.threads = threads;
      ErmResult result = BruteForceErm(in.graph, in.examples, in.ell, options);
      EXPECT_EQ(result.status, RunStatus::kComplete);
      EXPECT_EQ(GoldenRow(expected.name, result), GoldenRow(expected));
    }
  }
}

// The same inputs through the two other candidate sources of the sweep:
// SublinearErm's pool^ℓ scan and the nowhere-dense learner's final phase
// over its collected candidate list. Rows recorded from the scans that
// called TypeMajorityErm per candidate (no far-pair composition).
TEST(ModelGolden, SublinearModelBytes) {
  const GoldenModel golden[] = {
      {"learn_shared", {16}, 0.27272727272727271, 4855,
       0x37899b0378050848ull},
      {"evaluate_text", {3}, 0.040000000000000001, 18376,
       0x8861700d270313dcull},
      {"rank2", {38}, 0.14285714285714285, 203135, 0xe8052921a353faccull},
      {"ell2", {2, 6}, 0.11764705882352941, 12525, 0x2948ad8fe3c2608dull},
      {"k2", {0}, 0.047619047619047616, 37224, 0xf6af20ec039f6b22ull},
      {"disconnected", {1}, 0.19047619047619047, 6597,
       0x20684c79dc9011f0ull},
      {"realizable", {7}, 0, 2766, 0x54a55d81203626b8ull},
  };
  for (const GoldenModel& expected : golden) {
    GoldenInput in = MakeGoldenInput(expected.name);
    for (int threads : {1, 2, 8}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      ErmOptions options = in.options;
      options.threads = threads;
      SublinearErmResult result =
          SublinearErm(in.graph, in.examples, in.ell, options);
      EXPECT_EQ(result.erm.status, RunStatus::kComplete);
      EXPECT_EQ(GoldenRow(expected.name, result.erm), GoldenRow(expected));
    }
  }
}

// No rank2 row: its final phase (rank-2 types at final_radius 3 on a
// 40-vertex tree) dominates the suite's sanitizer time; the oracle grid in
// erm_test covers rank-2 list sources.
TEST(ModelGolden, NowhereDenseModelBytes) {
  const GoldenModel golden[] = {
      {"learn_shared", {157, 4, 12}, 0.27272727272727271, 68836,
       0x14471fb4d12c5f07ull},
      {"evaluate_text", {}, 0.040000000000000001, 14670,
       0x88c36300e0139d2full},
      {"ell2", {0, 1, 2, 3, 4}, 0.11764705882352941, 145718,
       0xebf8432ac9a48b16ull},
      {"k2", {}, 0.047619047619047616, 39923, 0xc7cc131e7773fe36ull},
      {"disconnected", {0}, 0.23809523809523808, 13264,
       0xf5271bf863ba5531ull},
      {"realizable", {}, 0.033333333333333333, 35, 0x188208e1d8f1f01dull},
  };
  for (const GoldenModel& expected : golden) {
    GoldenInput in = MakeGoldenInput(expected.name);
    for (int threads : {1, 2, 8}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      NdLearnerOptions options;
      options.erm.rank = in.options.rank;
      options.erm.radius = in.options.radius;
      options.ell_star = in.ell;
      options.erm.threads = threads;
      NdLearnerResult result =
          LearnNowhereDense(in.graph, in.examples, options);
      EXPECT_EQ(result.status, RunStatus::kComplete);
      EXPECT_EQ(GoldenRow(expected.name, result.erm), GoldenRow(expected));
    }
  }
}

// Governed-trip table: every type-majority learner and the enumeration
// grid under FaultInjector trip points and max-work budgets, at threads
// 1/2/8. A row pins the run's status, the bits of its training error, its
// tried count (candidates_evaluated for nd, formulas_tried for
// enumeration), the governor ledger and the FNV-1a hash of the model text,
// so a change to any cut point, partial vote or charge shows up here.
struct TripRow {
  const char* learner;  // brute | sublinear | nd | enumeration
  const char* limit;    // "trip" (FaultInjector) or "work" (max_work)
  int64_t value;
  const char* status;
  uint64_t error_bits;
  int64_t tried;
  int64_t work;
  int64_t checkpoints;
  uint64_t hash;
};

std::string FormatTripRow(const TripRow& row) {
  char text[256];
  std::snprintf(text, sizeof(text),
                "{\"%s\", \"%s\", %lld, \"%s\", 0x%016llxull, %lld, %lld, "
                "%lld, 0x%016llxull}",
                row.learner, row.limit, static_cast<long long>(row.value),
                row.status, static_cast<unsigned long long>(row.error_bits),
                static_cast<long long>(row.tried),
                static_cast<long long>(row.work),
                static_cast<long long>(row.checkpoints),
                static_cast<unsigned long long>(row.hash));
  return text;
}

uint64_t ErrorBits(double error) {
  uint64_t bits;
  std::memcpy(&bits, &error, sizeof(bits));
  return bits;
}

TripRow RunTripRow(const TripRow& key, int threads) {
  Graph graph = PatternTree(16, 1);
  const TrainingSet examples = CoinFlipExamples(16, 1, 12, 107);
  GovernorLimits limits;
  std::optional<FaultInjector> injector;
  if (std::string_view(key.limit) == "trip") {
    injector.emplace(key.value);
  } else {
    limits.max_work = key.value;
  }
  ResourceGovernor governor(limits, nullptr,
                            injector.has_value() ? &*injector : nullptr);
  TripRow row = key;
  double error = 0;
  std::string text;
  const auto model_text = [](const ErmResult& erm) {
    return HypothesisToText(erm.hypothesis.ToExplicit());
  };
  const std::string_view learner = key.learner;
  if (learner == "enumeration") {
    EnumerationOptions enumeration;
    enumeration.colors = {"Red"};
    enumeration.max_quantifier_rank = 1;
    enumeration.max_count = 40;
    EnumerationErmResult result =
        EnumerationErm(graph, examples, 0, enumeration, &governor, threads);
    error = result.training_error;
    row.tried = result.formulas_tried;
    if (result.hypothesis.formula != nullptr) {
      text = HypothesisToText(result.hypothesis);
    }
  } else if (learner == "nd") {
    NdLearnerOptions options;
    options.erm.rank = 1;
    options.erm.radius = 1;
    options.erm.governor = &governor;
    options.erm.threads = threads;
    NdLearnerResult result = LearnNowhereDense(graph, examples, options);
    error = result.erm.training_error;
    row.tried = result.candidates_evaluated;
    text = model_text(result.erm);
  } else {
    ErmOptions options{1, 1, &governor};
    options.threads = threads;
    ErmResult result = learner == "brute"
                           ? BruteForceErm(graph, examples, 1, options)
                           : SublinearErm(graph, examples, 1, options).erm;
    error = result.training_error;
    row.tried = result.parameter_tuples_tried;
    text = model_text(result);
  }
  row.status = RunStatusName(governor.status());
  row.error_bits = ErrorBits(error);
  row.work = governor.work_used();
  row.checkpoints = governor.checkpoints_passed();
  row.hash = Fnv1a(text);
  return row;
}

TEST(GovernedTrips, LedgerAndModelMatchRecordedTable) {
  const TripRow table[] = {
      {"brute", "trip", 1, "budget-exhausted",
       0x3ff0000000000000ull, 0, 1, 1, 0x5fbd17388ea48632ull},
      {"brute", "trip", 2, "budget-exhausted",
       0x3ff0000000000000ull, 1, 2, 2, 0x5fbd17388ea48632ull},
      {"brute", "trip", 3, "budget-exhausted",
       0x0000000000000000ull, 1, 3, 3, 0x0bdf59664890c90full},
      {"brute", "trip", 14, "budget-exhausted",
       0x3fd0000000000000ull, 1, 14, 14, 0x1d89aeb6010551a6ull},
      {"brute", "trip", 15, "budget-exhausted",
       0x3fd3b13b13b13b14ull, 1, 15, 15, 0x1d89aeb6010551a6ull},
      {"brute", "trip", 16, "budget-exhausted",
       0x3fd3b13b13b13b14ull, 2, 16, 16, 0x1d89aeb6010551a6ull},
      {"brute", "trip", 29, "budget-exhausted",
       0x3fcd89d89d89d89eull, 2, 29, 29, 0x0a1a9ac6c74bd5dbull},
      {"brute", "trip", 60, "budget-exhausted",
       0x3fcd89d89d89d89eull, 5, 60, 60, 0x0a1a9ac6c74bd5dbull},
      {"brute", "trip", 150, "budget-exhausted",
       0x3fcd89d89d89d89eull, 11, 150, 150, 0x0a1a9ac6c74bd5dbull},
      {"brute", "trip", 400, "complete",
       0x3fcd89d89d89d89eull, 16, 224, 224, 0x0a1a9ac6c74bd5dbull},
      {"brute", "trip", 100000, "complete",
       0x3fcd89d89d89d89eull, 16, 224, 224, 0x0a1a9ac6c74bd5dbull},
      {"brute", "work", 1, "budget-exhausted",
       0x3ff0000000000000ull, 1, 2, 2, 0x5fbd17388ea48632ull},
      {"brute", "work", 2, "budget-exhausted",
       0x0000000000000000ull, 1, 3, 3, 0x0bdf59664890c90full},
      {"brute", "work", 13, "budget-exhausted",
       0x3fd0000000000000ull, 1, 14, 14, 0x1d89aeb6010551a6ull},
      {"brute", "work", 14, "budget-exhausted",
       0x3fd3b13b13b13b14ull, 1, 15, 15, 0x1d89aeb6010551a6ull},
      {"brute", "work", 15, "budget-exhausted",
       0x3fd3b13b13b13b14ull, 2, 16, 16, 0x1d89aeb6010551a6ull},
      {"brute", "work", 60, "budget-exhausted",
       0x3fcd89d89d89d89eull, 5, 61, 61, 0x0a1a9ac6c74bd5dbull},
      {"brute", "work", 150, "budget-exhausted",
       0x3fcd89d89d89d89eull, 11, 151, 151, 0x0a1a9ac6c74bd5dbull},
      {"brute", "work", 400, "complete",
       0x3fcd89d89d89d89eull, 16, 224, 224, 0x0a1a9ac6c74bd5dbull},
      {"brute", "work", 100000, "complete",
       0x3fcd89d89d89d89eull, 16, 224, 224, 0x0a1a9ac6c74bd5dbull},
      // The one row that differs from the per-learner scans this sweep
      // replaced: there, a trip at the first checkpoint left SublinearErm
      // with a default-constructed hypothesis (no registry), and printing
      // the model aborted. The shared sweep evaluates candidate 0 instead.
      {"sublinear", "trip", 1, "budget-exhausted",
       0x3ff0000000000000ull, 0, 1, 1, 0x5fbd17388ea48632ull},
      {"sublinear", "trip", 2, "budget-exhausted",
       0x3ff0000000000000ull, 1, 2, 2, 0x5fbd17388ea48632ull},
      {"sublinear", "trip", 3, "budget-exhausted",
       0x0000000000000000ull, 1, 3, 3, 0x0bdf59664890c90full},
      {"sublinear", "trip", 14, "budget-exhausted",
       0x3fd0000000000000ull, 1, 14, 14, 0x1d89aeb6010551a6ull},
      {"sublinear", "trip", 15, "budget-exhausted",
       0x3fd3b13b13b13b14ull, 1, 15, 15, 0x1d89aeb6010551a6ull},
      {"sublinear", "trip", 16, "budget-exhausted",
       0x3fd3b13b13b13b14ull, 2, 16, 16, 0x1d89aeb6010551a6ull},
      {"sublinear", "trip", 29, "budget-exhausted",
       0x3fcd89d89d89d89eull, 2, 29, 29, 0x0a1a9ac6c74bd5dbull},
      {"sublinear", "trip", 60, "budget-exhausted",
       0x3fcd89d89d89d89eull, 5, 60, 60, 0x0a1a9ac6c74bd5dbull},
      {"sublinear", "trip", 150, "budget-exhausted",
       0x3fcd89d89d89d89eull, 11, 150, 150, 0x0a1a9ac6c74bd5dbull},
      {"sublinear", "trip", 400, "complete",
       0x3fcd89d89d89d89eull, 16, 224, 224, 0x0a1a9ac6c74bd5dbull},
      {"sublinear", "trip", 100000, "complete",
       0x3fcd89d89d89d89eull, 16, 224, 224, 0x0a1a9ac6c74bd5dbull},
      {"sublinear", "work", 1, "budget-exhausted",
       0x3ff0000000000000ull, 1, 2, 2, 0x5fbd17388ea48632ull},
      {"sublinear", "work", 2, "budget-exhausted",
       0x0000000000000000ull, 1, 3, 3, 0x0bdf59664890c90full},
      {"sublinear", "work", 13, "budget-exhausted",
       0x3fd0000000000000ull, 1, 14, 14, 0x1d89aeb6010551a6ull},
      {"sublinear", "work", 14, "budget-exhausted",
       0x3fd3b13b13b13b14ull, 1, 15, 15, 0x1d89aeb6010551a6ull},
      {"sublinear", "work", 15, "budget-exhausted",
       0x3fd3b13b13b13b14ull, 2, 16, 16, 0x1d89aeb6010551a6ull},
      {"sublinear", "work", 60, "budget-exhausted",
       0x3fcd89d89d89d89eull, 5, 61, 61, 0x0a1a9ac6c74bd5dbull},
      {"sublinear", "work", 150, "budget-exhausted",
       0x3fcd89d89d89d89eull, 11, 151, 151, 0x0a1a9ac6c74bd5dbull},
      {"sublinear", "work", 400, "complete",
       0x3fcd89d89d89d89eull, 16, 224, 224, 0x0a1a9ac6c74bd5dbull},
      {"sublinear", "work", 100000, "complete",
       0x3fcd89d89d89d89eull, 16, 224, 224, 0x0a1a9ac6c74bd5dbull},
      {"nd", "trip", 1, "budget-exhausted",
       0x3ff0000000000000ull, 1, 1, 1, 0x188208e1d8f1f01dull},
      {"nd", "trip", 2, "budget-exhausted",
       0x3ff0000000000000ull, 1, 2, 2, 0x188208e1d8f1f01dull},
      {"nd", "trip", 150, "budget-exhausted",
       0x3ff0000000000000ull, 1, 150, 150, 0x188208e1d8f1f01dull},
      {"nd", "trip", 268, "budget-exhausted",
       0x3ff0000000000000ull, 1, 268, 268, 0x188208e1d8f1f01dull},
      {"nd", "trip", 270, "budget-exhausted",
       0x0000000000000000ull, 1, 270, 270, 0x926969b772e3f63dull},
      {"nd", "trip", 280, "budget-exhausted",
       0x3fd5555555555555ull, 1, 280, 280, 0xf64c3924552599a4ull},
      {"nd", "trip", 281, "budget-exhausted",
       0x3fd89d89d89d89d9ull, 1, 281, 281, 0xf64c3924552599a4ull},
      {"nd", "trip", 282, "budget-exhausted",
       0x3fd89d89d89d89d9ull, 2, 282, 282, 0xf64c3924552599a4ull},
      {"nd", "trip", 295, "budget-exhausted",
       0x3fcd89d89d89d89eull, 2, 295, 295, 0xbd42cdcfba42108dull},
      {"nd", "trip", 400, "budget-exhausted",
       0x3fc3b13b13b13b14ull, 10, 400, 400, 0x3435281f1bb572a1ull},
      {"nd", "trip", 532, "budget-exhausted",
       0x3fc3b13b13b13b14ull, 19, 532, 532, 0x3435281f1bb572a1ull},
      {"nd", "trip", 533, "complete",
       0x3fc3b13b13b13b14ull, 19, 532, 532, 0x3435281f1bb572a1ull},
      {"nd", "work", 1, "budget-exhausted",
       0x3ff0000000000000ull, 1, 2, 2, 0x188208e1d8f1f01dull},
      {"nd", "work", 150, "budget-exhausted",
       0x3ff0000000000000ull, 1, 151, 151, 0x188208e1d8f1f01dull},
      {"nd", "work", 267, "budget-exhausted",
       0x3ff0000000000000ull, 1, 268, 268, 0x188208e1d8f1f01dull},
      {"nd", "work", 269, "budget-exhausted",
       0x0000000000000000ull, 1, 270, 270, 0x926969b772e3f63dull},
      {"nd", "work", 279, "budget-exhausted",
       0x3fd5555555555555ull, 1, 280, 280, 0xf64c3924552599a4ull},
      {"nd", "work", 280, "budget-exhausted",
       0x3fd89d89d89d89d9ull, 1, 281, 281, 0xf64c3924552599a4ull},
      {"nd", "work", 281, "budget-exhausted",
       0x3fd89d89d89d89d9ull, 2, 282, 282, 0xf64c3924552599a4ull},
      {"nd", "work", 294, "budget-exhausted",
       0x3fcd89d89d89d89eull, 2, 295, 295, 0xbd42cdcfba42108dull},
      {"nd", "work", 400, "budget-exhausted",
       0x3fc3b13b13b13b14ull, 10, 401, 401, 0x3435281f1bb572a1ull},
      {"nd", "work", 531, "budget-exhausted",
       0x3fc3b13b13b13b14ull, 19, 532, 532, 0x3435281f1bb572a1ull},
      {"nd", "work", 532, "complete",
       0x3fc3b13b13b13b14ull, 19, 532, 532, 0x3435281f1bb572a1ull},
      {"enumeration", "trip", 1, "budget-exhausted",
       0x3ff0000000000000ull, 0, 1, 1, 0xcbf29ce484222325ull},
      {"enumeration", "trip", 2, "budget-exhausted",
       0x3fe13b13b13b13b1ull, 1, 2, 2, 0x17e5823f96ca5668ull},
      {"enumeration", "trip", 3, "budget-exhausted",
       0x3fdd89d89d89d89eull, 2, 3, 3, 0x188208e1d8f1f01dull},
      {"enumeration", "trip", 14, "budget-exhausted",
       0x3fdd89d89d89d89eull, 13, 14, 14, 0x188208e1d8f1f01dull},
      {"enumeration", "trip", 15, "budget-exhausted",
       0x3fdd89d89d89d89eull, 14, 15, 15, 0x188208e1d8f1f01dull},
      {"enumeration", "trip", 16, "budget-exhausted",
       0x3fdd89d89d89d89eull, 15, 16, 16, 0x188208e1d8f1f01dull},
      {"enumeration", "trip", 29, "budget-exhausted",
       0x3fdd89d89d89d89eull, 28, 29, 29, 0x188208e1d8f1f01dull},
      {"enumeration", "trip", 60, "complete",
       0x3fdd89d89d89d89eull, 40, 40, 40, 0x188208e1d8f1f01dull},
      {"enumeration", "trip", 150, "complete",
       0x3fdd89d89d89d89eull, 40, 40, 40, 0x188208e1d8f1f01dull},
      {"enumeration", "trip", 400, "complete",
       0x3fdd89d89d89d89eull, 40, 40, 40, 0x188208e1d8f1f01dull},
      {"enumeration", "trip", 100000, "complete",
       0x3fdd89d89d89d89eull, 40, 40, 40, 0x188208e1d8f1f01dull},
      {"enumeration", "work", 1, "budget-exhausted",
       0x3fe13b13b13b13b1ull, 1, 2, 2, 0x17e5823f96ca5668ull},
      {"enumeration", "work", 2, "budget-exhausted",
       0x3fdd89d89d89d89eull, 2, 3, 3, 0x188208e1d8f1f01dull},
      {"enumeration", "work", 13, "budget-exhausted",
       0x3fdd89d89d89d89eull, 13, 14, 14, 0x188208e1d8f1f01dull},
      {"enumeration", "work", 14, "budget-exhausted",
       0x3fdd89d89d89d89eull, 14, 15, 15, 0x188208e1d8f1f01dull},
      {"enumeration", "work", 15, "budget-exhausted",
       0x3fdd89d89d89d89eull, 15, 16, 16, 0x188208e1d8f1f01dull},
      {"enumeration", "work", 60, "complete",
       0x3fdd89d89d89d89eull, 40, 40, 40, 0x188208e1d8f1f01dull},
      {"enumeration", "work", 150, "complete",
       0x3fdd89d89d89d89eull, 40, 40, 40, 0x188208e1d8f1f01dull},
      {"enumeration", "work", 400, "complete",
       0x3fdd89d89d89d89eull, 40, 40, 40, 0x188208e1d8f1f01dull},
      {"enumeration", "work", 100000, "complete",
       0x3fdd89d89d89d89eull, 40, 40, 40, 0x188208e1d8f1f01dull},
  };
  for (const TripRow& expected : table) {
    for (int threads : {1, 2, 8}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      EXPECT_EQ(FormatTripRow(RunTripRow(expected, threads)),
                FormatTripRow(expected));
    }
  }
}

}  // namespace
}  // namespace folearn
