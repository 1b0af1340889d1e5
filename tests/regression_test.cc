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
#include <numeric>
#include <string_view>

#include "fo/parser.h"
#include "fo/printer.h"
#include "graph/generators.h"
#include "graph/invariants.h"
#include "graph/algorithms.h"
#include "learn/erm.h"
#include "learn/model_io.h"
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
      ErmOptions options = in.options;
      options.threads = threads;
      ErmResult result = BruteForceErm(in.graph, in.examples, in.ell, options);
      const std::string text =
          HypothesisToText(result.hypothesis.ToExplicit());
      std::string params;
      for (Vertex w : result.hypothesis.parameters) {
        params += (params.empty() ? "" : ", ") + std::to_string(w);
      }
      char actual[256];
      std::snprintf(actual, sizeof(actual),
                    "{\"%s\", {%s}, %.17g, %zu, 0x%016llxull}", expected.name,
                    params.c_str(), result.training_error, text.size(),
                    static_cast<unsigned long long>(Fnv1a(text)));
      SCOPED_TRACE(std::string(expected.name) + " threads=" +
                   std::to_string(threads) + " actual " + actual);
      EXPECT_EQ(result.status, RunStatus::kComplete);
      EXPECT_EQ(result.hypothesis.parameters, expected.parameters);
      EXPECT_EQ(result.training_error, expected.training_error);
      EXPECT_EQ(text.size(), expected.bytes);
      EXPECT_EQ(Fnv1a(text), expected.hash);
    }
  }
}

}  // namespace
}  // namespace folearn
