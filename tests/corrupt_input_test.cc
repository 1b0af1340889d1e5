#include <gtest/gtest.h>

#include <string>

#include "graph/generators.h"
#include "graph/io.h"
#include "learn/model_io.h"
#include "learn/search_state.h"
#include "util/checkpoint.h"
#include "util/rng.h"
#include "util/status.h"

namespace folearn {
namespace {

// Fuzz-style robustness: every loader that consumes external bytes must
// hand back a Status (or a parse success) on arbitrarily mangled input —
// never crash, never read out of bounds. Run under ASan/UBSan these tests
// are the memory-safety net for exit code 65's "diagnostic, not UB"
// contract. Exhaustive single-bit flips and prefix truncations keep the
// corpus deterministic (no flaky random fuzzing in CI).

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

// A representative valid graph file.
std::string ValidGraphText() {
  Rng rng(3);
  Graph g = MakeRandomTree(12, rng);
  AddRandomColors(g, {"Red", "Blue"}, 0.4, rng);
  return ToText(g);
}

std::string ValidModelText() {
  return
      "hypothesis k 1 ell 2\n"
      "params 3 7\n"
      "formula exists z. (E(x1, z) & Red(z))\n";
}

std::string ValidDataText() {
  return
      "examples 2\n"
      "+ 0 1\n"
      "- 2 3\n"
      "+ 4 5\n";
}

std::string ValidCheckpointBytes() {
  const std::string path = TempPath("seed.ckpt");
  SearchFrontier frontier;
  frontier.learner = "brute";
  frontier.fingerprint = 0xabcdef;
  frontier.cursor = 100;
  frontier.best_index = 42;
  frontier.best_error = 0.125;
  frontier.tried = 100;
  EXPECT_TRUE(SaveFrontier(path, frontier).ok());
  StatusOr<std::string> bytes = ReadFileToString(path);
  EXPECT_TRUE(bytes.ok());
  return *bytes;
}

// Feeds every prefix truncation and every single-bit flip of `text` to
// `probe`, which must return normally (no aborts, no UB) on each variant.
template <typename Probe>
void ExhaustivelyMangle(const std::string& text, const Probe& probe) {
  for (size_t len = 0; len <= text.size(); ++len) {
    probe(text.substr(0, len));
  }
  for (size_t i = 0; i < text.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = text;
      mutated[i] = static_cast<char>(mutated[i] ^ (1 << bit));
      probe(mutated);
    }
  }
}

TEST(CorruptInput, GraphLoaderNeverAborts) {
  ExhaustivelyMangle(ValidGraphText(), [](const std::string& bytes) {
    StatusOr<Graph> graph = ParseGraph(bytes);
    if (!graph.ok()) {
      EXPECT_FALSE(graph.status().message().empty());
    }
  });
}

// The 32-bit vertex-id boundary: orders past kMaxGraphOrder must come
// back as a parse error (exit-65 semantics), not wrap or abort — whether
// they fit in an int or overflow the integer parser itself.
TEST(CorruptInput, GraphLoaderRejectsOversizedOrders) {
  for (const char* text :
       {"graph 2147483647\n", "graph 4294967296\n", "graph 99999999999\n"}) {
    StatusOr<Graph> graph = ParseGraph(text);
    ASSERT_FALSE(graph.ok()) << text;
    EXPECT_FALSE(graph.status().message().empty());
  }
}

TEST(CorruptInput, ModelLoaderNeverAborts) {
  ExhaustivelyMangle(ValidModelText(), [](const std::string& bytes) {
    StatusOr<Hypothesis> hypothesis = ParseHypothesis(bytes);
    if (!hypothesis.ok()) {
      EXPECT_FALSE(hypothesis.status().message().empty());
    }
  });
}

// Numbers past the 32-bit range in a model or training set are parse
// errors: a counting threshold must not throw out of the parser, and a
// vertex id must not wrap into a different, valid-looking vertex.
TEST(CorruptInput, OutOfRangeNumbersAreParseErrors) {
  for (const char* text :
       {"hypothesis k 1 ell 0\nformula exists>=99999999999 x. Red(x)\n",
        "hypothesis k 1 ell 1\nparams 99999999999\nformula Red(x1)\n",
        "hypothesis k 4294967297 ell 0\nformula Red(x1)\n",
        // In range for int, but k + ell is bounded before the frame exists.
        "hypothesis k 2000000000 ell 0\nformula true\n"}) {
    StatusOr<Hypothesis> hypothesis = ParseHypothesis(text);
    ASSERT_FALSE(hypothesis.ok()) << text;
    EXPECT_EQ(hypothesis.status().code(), StatusCode::kInvalidArgument);
  }
  for (const char* text : {"examples 1\n+ 4294967297\n",
                           "examples 1\n- 2147483648\n",
                           "examples 99999999999\n"}) {
    StatusOr<TrainingSet> data = ParseTrainingSet(text);
    ASSERT_FALSE(data.ok()) << text;
    EXPECT_EQ(data.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(CorruptInput, TrainingSetLoaderNeverAborts) {
  ExhaustivelyMangle(ValidDataText(), [](const std::string& bytes) {
    StatusOr<TrainingSet> data = ParseTrainingSet(bytes);
    if (!data.ok()) {
      EXPECT_FALSE(data.status().message().empty());
    }
  });
}

TEST(CorruptInput, CheckpointLoaderRejectsEveryMangling) {
  const std::string original = ValidCheckpointBytes();
  const std::string path = TempPath("mangled.ckpt");
  ExhaustivelyMangle(original, [&](const std::string& bytes) {
    ASSERT_TRUE(WriteFileAtomic(path, bytes).ok());
    StatusOr<SearchFrontier> frontier = LoadFrontier(path);
    // Unlike free-text formats, the envelope is checksummed: anything but
    // the pristine bytes must be refused, with exit code 65 semantics.
    if (bytes == original) {
      EXPECT_TRUE(frontier.ok()) << frontier.status().message();
    } else {
      ASSERT_FALSE(frontier.ok());
      EXPECT_EQ(StatusExitCode(frontier.status()), 65);
      EXPECT_FALSE(frontier.status().message().empty());
    }
  });
}

// Foreign bytes that are not even close to the format.
TEST(CorruptInput, ForeignBytesAreRejectedEverywhere) {
  const std::string foreign[] = {
      "", "\n", std::string(4, '\0'), "PK\x03\x04 zip header",
      std::string(4096, 'A'), "graph", "folearn-checkpoint",
      "folearn-checkpoint v1\nlength 999999999999999999999\ncrc zz\n"};
  const std::string path = TempPath("foreign.ckpt");
  for (const std::string& bytes : foreign) {
    EXPECT_FALSE(ParseFrontier(bytes).ok());
    ASSERT_TRUE(WriteFileAtomic(path, bytes).ok());
    EXPECT_FALSE(LoadFrontier(path).ok());
    // Graph/model/data parsers may accept some degenerate strings; the
    // contract is only "no crash".
    ParseGraph(bytes);
    ParseHypothesis(bytes);
    ParseTrainingSet(bytes);
  }
}

}  // namespace
}  // namespace folearn
