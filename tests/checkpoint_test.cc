#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/algorithms.h"
#include "graph/generators.h"
#include "learn/dataset.h"
#include "learn/erm.h"
#include "learn/search_state.h"
#include "util/checkpoint.h"
#include "util/governor.h"
#include "util/rng.h"
#include "util/status.h"

namespace folearn {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

// ---------------------------------------------------------------------------
// Status model.

TEST(Status, OkAndErrorBasics) {
  Status ok = OkStatus();
  EXPECT_TRUE(ok.ok());
  Status bad = DataLossError("boom");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.code(), StatusCode::kDataLoss);
  EXPECT_EQ(bad.message(), "boom");
}

TEST(Status, ExitCodesFollowSysexits) {
  EXPECT_EQ(StatusExitCode(OkStatus()), 0);
  EXPECT_EQ(StatusExitCode(NotFoundError("x")), 66);
  EXPECT_EQ(StatusExitCode(DataLossError("x")), 65);
  EXPECT_EQ(StatusExitCode(InvalidArgumentError("x")), 65);
}

TEST(StatusOr, HoldsValueOrStatus) {
  StatusOr<int> value(7);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, 7);
  StatusOr<int> error(NotFoundError("missing"));
  EXPECT_FALSE(error.ok());
  EXPECT_EQ(error.status().code(), StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// FNV-1a and the checkpoint envelope.

TEST(Fnv1a64, KnownAnswers) {
  // Standard FNV-1a 64 test vectors.
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(Fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(Fnv1a64("foobar"), 0x85944171f73967e8ull);
  // Chaining == concatenation.
  EXPECT_EQ(Fnv1a64("bar", Fnv1a64("foo")), Fnv1a64("foobar"));
}

TEST(CheckpointEnvelope, RoundTripsPayload) {
  const std::string path = TempPath("envelope.ckpt");
  const std::string payload = "line one\nline two\n\nbinary-ish \x01\x02";
  ASSERT_TRUE(WriteCheckpointFile(path, payload).ok());
  StatusOr<std::string> read = ReadCheckpointFile(path);
  ASSERT_TRUE(read.ok()) << read.status().message();
  EXPECT_EQ(*read, payload);
}

TEST(CheckpointEnvelope, EmptyPayloadRoundTrips) {
  const std::string path = TempPath("empty.ckpt");
  ASSERT_TRUE(WriteCheckpointFile(path, "").ok());
  StatusOr<std::string> read = ReadCheckpointFile(path);
  ASSERT_TRUE(read.ok()) << read.status().message();
  EXPECT_EQ(*read, "");
}

TEST(CheckpointEnvelope, MissingFileIsNotFound) {
  StatusOr<std::string> read = ReadCheckpointFile(TempPath("nonexistent"));
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(StatusExitCode(read.status()), 66);
}

TEST(CheckpointEnvelope, EveryTruncationIsRejected) {
  const std::string path = TempPath("trunc.ckpt");
  ASSERT_TRUE(WriteCheckpointFile(path, "some payload bytes").ok());
  StatusOr<std::string> full = ReadFileToString(path);
  ASSERT_TRUE(full.ok());
  for (size_t len = 0; len < full->size(); ++len) {
    ASSERT_TRUE(WriteFileAtomic(path, full->substr(0, len)).ok());
    StatusOr<std::string> read = ReadCheckpointFile(path);
    EXPECT_FALSE(read.ok()) << "truncation to " << len << " bytes accepted";
    if (!read.ok()) {
      EXPECT_EQ(StatusExitCode(read.status()), 65);
    }
  }
}

TEST(CheckpointEnvelope, EveryBitFlipIsRejected) {
  const std::string path = TempPath("flip.ckpt");
  ASSERT_TRUE(WriteCheckpointFile(path, "some payload bytes").ok());
  StatusOr<std::string> full = ReadFileToString(path);
  ASSERT_TRUE(full.ok());
  for (size_t i = 0; i < full->size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = *full;
      mutated[i] = static_cast<char>(mutated[i] ^ (1 << bit));
      ASSERT_TRUE(WriteFileAtomic(path, mutated).ok());
      StatusOr<std::string> read = ReadCheckpointFile(path);
      EXPECT_FALSE(read.ok())
          << "bit " << bit << " of byte " << i << " flip accepted";
    }
  }
}

TEST(CheckpointEnvelope, VersionSkewNamesBothVersions) {
  const std::string path = TempPath("skew.ckpt");
  ASSERT_TRUE(WriteCheckpointFile(path, "payload").ok());
  StatusOr<std::string> full = ReadFileToString(path);
  ASSERT_TRUE(full.ok());
  std::string skewed = *full;
  size_t pos = skewed.find("v1");
  ASSERT_NE(pos, std::string::npos);
  skewed.replace(pos, 2, "v7");
  ASSERT_TRUE(WriteFileAtomic(path, skewed).ok());
  StatusOr<std::string> read = ReadCheckpointFile(path);
  ASSERT_FALSE(read.ok());
  EXPECT_NE(read.status().message().find("v7"), std::string::npos);
  EXPECT_NE(read.status().message().find("v1"), std::string::npos);
}

// The length field carries up to 19 digits, but 19-digit values above
// INT64_MAX must be refused as malformed instead of overflowing the parse.
TEST(CheckpointEnvelope, LengthAboveInt64MaxIsMalformed) {
  const std::string path = TempPath("length.ckpt");
  ASSERT_TRUE(WriteCheckpointFile(path, "payload").ok());
  StatusOr<std::string> full = ReadFileToString(path);
  ASSERT_TRUE(full.ok());
  const size_t start = full->find("\nlength ");
  ASSERT_NE(start, std::string::npos);
  const size_t digits = start + 8;
  const size_t end = full->find('\n', digits);
  ASSERT_NE(end, std::string::npos);
  const auto with_length = [&](const std::string& length) {
    std::string forged = *full;
    forged.replace(digits, end - digits, length);
    EXPECT_TRUE(WriteFileAtomic(path, forged).ok());
    return ReadCheckpointFile(path);
  };

  // INT64_MAX itself parses; the payload then fails the length check.
  StatusOr<std::string> at_max = with_length("9223372036854775807");
  ASSERT_FALSE(at_max.ok());
  EXPECT_NE(at_max.status().message().find("header promises"),
            std::string::npos)
      << at_max.status().message();

  for (const char* length : {"9223372036854775808", "9999999999999999999"}) {
    StatusOr<std::string> read = with_length(length);
    ASSERT_FALSE(read.ok()) << length;
    EXPECT_EQ(StatusExitCode(read.status()), 65) << length;
    EXPECT_NE(read.status().message().find("malformed length"),
              std::string::npos)
        << read.status().message();
  }
}

TEST(WriteFileAtomic, FailureLeavesOriginalUntouched) {
  const std::string path = TempPath("no-such-dir") + "/file.txt";
  Status status = WriteFileAtomic(path, "content");
  EXPECT_FALSE(status.ok());
}

TEST(WriteFileAtomic, ReplacesExistingFileAtomically) {
  const std::string path = TempPath("replace.txt");
  ASSERT_TRUE(WriteFileAtomic(path, "old").ok());
  ASSERT_TRUE(WriteFileAtomic(path, "new").ok());
  StatusOr<std::string> read = ReadFileToString(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "new");
}

// ---------------------------------------------------------------------------
// Frontier serialisation.

SearchFrontier MakeFrontier() {
  SearchFrontier f;
  f.learner = "brute";
  f.fingerprint = 0x0123456789abcdefull;
  f.cursor = 192;
  f.best_index = 4;
  f.best_error = 0.2333333333333333;
  f.tried = 192;
  f.governor_work = 7808;
  f.governor_checkpoints = 383;
  return f;
}

TEST(SearchFrontier, RoundTripsExactly) {
  SearchFrontier f = MakeFrontier();
  StatusOr<SearchFrontier> parsed = ParseFrontier(SerializeFrontier(f));
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(parsed->learner, f.learner);
  EXPECT_EQ(parsed->fingerprint, f.fingerprint);
  EXPECT_EQ(parsed->cursor, f.cursor);
  EXPECT_EQ(parsed->best_index, f.best_index);
  // Bit-exact, not approximately equal: the resumed comparison must
  // reproduce the uninterrupted one.
  EXPECT_EQ(parsed->best_error, f.best_error);
  EXPECT_EQ(parsed->tried, f.tried);
  EXPECT_EQ(parsed->governor_work, f.governor_work);
  EXPECT_EQ(parsed->governor_checkpoints, f.governor_checkpoints);
}

TEST(SearchFrontier, InfinityAndNoWinnerRoundTrip) {
  SearchFrontier f;
  f.learner = "nd";
  StatusOr<SearchFrontier> parsed = ParseFrontier(SerializeFrontier(f));
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(parsed->best_index, -1);
  EXPECT_TRUE(std::isinf(parsed->best_error));
  EXPECT_EQ(parsed->cursor, 0);
}

TEST(SearchFrontier, FileRoundTripThroughEnvelope) {
  const std::string path = TempPath("frontier.ckpt");
  SearchFrontier f = MakeFrontier();
  ASSERT_TRUE(SaveFrontier(path, f).ok());
  StatusOr<SearchFrontier> loaded = LoadFrontier(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ(loaded->cursor, f.cursor);
  EXPECT_EQ(loaded->best_error, f.best_error);
}

TEST(SearchFrontier, ParserRejectsMalformedPayloads) {
  const std::string valid = SerializeFrontier(MakeFrontier());
  EXPECT_TRUE(ParseFrontier(valid).ok());
  // Dropping any single line breaks the fixed field order.
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < valid.size()) {
    size_t end = valid.find('\n', start);
    lines.push_back(valid.substr(start, end - start));
    start = end + 1;
  }
  ASSERT_EQ(lines.size(), 8u);
  for (size_t drop = 0; drop < lines.size(); ++drop) {
    std::string mutated;
    for (size_t i = 0; i < lines.size(); ++i) {
      if (i != drop) mutated += lines[i] + "\n";
    }
    EXPECT_FALSE(ParseFrontier(mutated).ok()) << "dropped line " << drop;
  }
  EXPECT_FALSE(ParseFrontier("").ok());
  EXPECT_FALSE(ParseFrontier(valid + "extra junk\n").ok());
  EXPECT_FALSE(ParseFrontier("cursor -5\n").ok());
}

TEST(SearchFrontier, ParserRejectsInconsistentWinner) {
  SearchFrontier f = MakeFrontier();
  f.best_index = f.cursor;  // winner must lie strictly below the cursor
  EXPECT_FALSE(ParseFrontier(SerializeFrontier(f)).ok());
}

TEST(SearchFrontier, CompatibilityChecksLearnerAndFingerprint) {
  SearchFrontier f = MakeFrontier();
  EXPECT_TRUE(CheckFrontierCompatible(f, "brute", f.fingerprint).ok());
  Status wrong_learner = CheckFrontierCompatible(f, "nd", f.fingerprint);
  EXPECT_FALSE(wrong_learner.ok());
  EXPECT_EQ(StatusExitCode(wrong_learner), 65);
  Status wrong_instance = CheckFrontierCompatible(f, "brute", 999);
  EXPECT_FALSE(wrong_instance.ok());
  EXPECT_EQ(StatusExitCode(wrong_instance), 65);
}

// ---------------------------------------------------------------------------
// Governor ledger restore.

TEST(ResourceGovernor, RestoreLedgerPrimesAllowance) {
  ResourceGovernor governor(GovernorLimits{kNoLimit, 100});
  governor.RestoreLedger(40, 10);
  EXPECT_EQ(governor.work_used(), 40);
  EXPECT_EQ(governor.DeterministicAllowance(), 60);
  EXPECT_EQ(governor.status(), RunStatus::kComplete);
}

TEST(ResourceGovernor, RestoredLedgerTripsAtTheOriginalCutPoint) {
  // A fresh governor charged 40 + 61 trips exactly like a restored one.
  ResourceGovernor fresh(GovernorLimits{kNoLimit, 100});
  fresh.CheckpointBatch(40);
  ResourceGovernor restored(GovernorLimits{kNoLimit, 100});
  restored.RestoreLedger(40, 40);
  EXPECT_EQ(fresh.DeterministicAllowance(),
            restored.DeterministicAllowance());
  fresh.CheckpointBatch(61);
  restored.CheckpointBatch(61);
  EXPECT_EQ(fresh.status(), restored.status());
  EXPECT_EQ(fresh.work_used(), restored.work_used());
  EXPECT_TRUE(IsInterrupted(restored.status()));
}

// ---------------------------------------------------------------------------
// RunResumableScan: interrupted + resumed == uninterrupted, bit for bit.

// Deterministic synthetic errors; index 13 is the argmin (0.01).
std::pair<double, bool> SyntheticEval(int64_t index, int /*worker*/) {
  double error = 0.5 + 0.001 * ((index * 7919) % 97);
  if (index == 13) error = 0.01;
  return {error, false};
}

TEST(RunResumableScan, ResumeReproducesUninterruptedScan) {
  ScanSpec ref_spec;
  ref_spec.n_items = 100;
  ref_spec.early_stop = false;
  ScanOutcome reference = RunResumableScan(ref_spec, SyntheticEval);
  EXPECT_EQ(reference.winner, 13);
  EXPECT_EQ(reference.tried, 100);

  for (int threads : {1, 2, 8}) {
    // Interrupted leg: an injected trip cuts the scan mid-range; the
    // checkpointer has saved the frontier of the last complete segment.
    const std::string path =
        TempPath("scan" + std::to_string(threads) + ".ckpt");
    FaultInjector injector(41);
    ResourceGovernor cut_governor(GovernorLimits{}, nullptr, &injector);
    SearchCheckpointer checkpointer(path);
    ScanSpec cut_spec = ref_spec;
    cut_spec.threads = threads;
    cut_spec.stride = 16;
    cut_spec.governor = &cut_governor;
    cut_spec.checkpointer = &checkpointer;
    cut_spec.learner = "test";
    cut_spec.fingerprint = 0xfeed;
    ScanOutcome cut = RunResumableScan(cut_spec, SyntheticEval);
    EXPECT_TRUE(IsInterrupted(cut_governor.status()));
    EXPECT_LT(cut.tried, 100);
    ASSERT_GT(checkpointer.saves(), 0);

    StatusOr<SearchFrontier> frontier = LoadFrontier(path);
    ASSERT_TRUE(frontier.ok()) << frontier.status().message();
    ASSERT_TRUE(
        CheckFrontierCompatible(*frontier, "test", 0xfeed).ok());
    EXPECT_LT(frontier->cursor, 100);

    // Resumed leg (ungoverned, like the original reference run).
    ScanSpec resume_spec = ref_spec;
    resume_spec.threads = threads;
    resume_spec.stride = 16;
    resume_spec.resume = &*frontier;
    resume_spec.learner = "test";
    resume_spec.fingerprint = 0xfeed;
    ScanOutcome resumed = RunResumableScan(resume_spec, SyntheticEval);
    EXPECT_EQ(resumed.winner, reference.winner) << "threads " << threads;
    EXPECT_EQ(resumed.best_error, reference.best_error);
    EXPECT_EQ(resumed.tried, reference.tried);
  }
}

TEST(RunResumableScan, GovernedResumeLandsOnTheSameCutPoint) {
  // Budget trips must land identically whether or not the scan was
  // interrupted and resumed in between.
  ScanSpec ref_spec;
  ref_spec.n_items = 100;
  ref_spec.unit = 3;
  ref_spec.early_stop = false;
  ResourceGovernor ref_governor(GovernorLimits{kNoLimit, 120});
  ref_spec.governor = &ref_governor;
  ScanOutcome reference = RunResumableScan(ref_spec, SyntheticEval);
  EXPECT_TRUE(IsInterrupted(ref_governor.status()));

  // Interrupted leg: same budget, but an injector kills it earlier; the
  // frontier records the partial ledger.
  const std::string path = TempPath("governed.ckpt");
  FaultInjector injector(50);
  ResourceGovernor cut_governor(GovernorLimits{kNoLimit, 120}, nullptr, &injector);
  SearchCheckpointer checkpointer(path);
  ScanSpec cut_spec = ref_spec;
  cut_spec.governor = &cut_governor;
  cut_spec.checkpointer = &checkpointer;
  cut_spec.stride = 8;
  cut_spec.learner = "test";
  cut_spec.fingerprint = 1;
  RunResumableScan(cut_spec, SyntheticEval);
  ASSERT_GT(checkpointer.saves(), 0);

  StatusOr<SearchFrontier> frontier = LoadFrontier(path);
  ASSERT_TRUE(frontier.ok()) << frontier.status().message();
  EXPECT_GT(frontier->governor_work, 0);

  ResourceGovernor resumed_governor(GovernorLimits{kNoLimit, 120});
  ScanSpec resume_spec = ref_spec;
  resume_spec.governor = &resumed_governor;
  resume_spec.stride = 8;
  resume_spec.resume = &*frontier;
  resume_spec.learner = "test";
  resume_spec.fingerprint = 1;
  ScanOutcome resumed = RunResumableScan(resume_spec, SyntheticEval);
  EXPECT_EQ(resumed.winner, reference.winner);
  EXPECT_EQ(resumed.tried, reference.tried);
  EXPECT_EQ(resumed_governor.work_used(), ref_governor.work_used());
  EXPECT_EQ(resumed_governor.status(), ref_governor.status());
}

TEST(SearchCheckpointer, FailedSaveDisablesFurtherSaves) {
  SearchCheckpointer checkpointer(TempPath("no-such-dir") + "/x.ckpt");
  EXPECT_TRUE(checkpointer.Due());
  checkpointer.Save(MakeFrontier());  // warns once, disables
  EXPECT_FALSE(checkpointer.Due());
  EXPECT_EQ(checkpointer.saves(), 0);
}

// ---------------------------------------------------------------------------
// End-to-end through a learner (library level, single process).

TEST(BruteForceErm, CheckpointedRunMatchesPlainRun) {
  Rng rng(23);
  Graph g = MakeRandomTree(14, rng);
  AddRandomColors(g, {"Red"}, 0.4, rng);
  // Labels no rank-1 hypothesis fits exactly: periodic by vertex id.
  TrainingSet examples;
  for (Vertex v = 0; v < g.order(); ++v) {
    examples.push_back({{v}, (v % 5) < 2});
  }
  ErmOptions plain;
  plain.rank = 1;
  plain.radius = 1;
  ErmResult reference = BruteForceErm(g, examples, 2, plain);

  // Interrupted leg: injector cuts the scan; checkpoint lands on disk.
  const std::string path = TempPath("erm.ckpt");
  {
    FaultInjector injector(400);
    ResourceGovernor governor(GovernorLimits{}, nullptr, &injector);
    SearchCheckpointer checkpointer(path);
    ErmOptions cut = plain;
    cut.governor = &governor;
    cut.scan.checkpointer = &checkpointer;
    cut.scan.fingerprint = 42;
    BruteForceErm(g, examples, 2, cut);
    ASSERT_GT(checkpointer.saves(), 0);
  }

  StatusOr<SearchFrontier> frontier = LoadFrontier(path);
  ASSERT_TRUE(frontier.ok()) << frontier.status().message();
  for (int threads : {1, 2, 8}) {
    ErmOptions resumed = plain;
    resumed.threads = threads;
    resumed.scan.resume = &*frontier;
    resumed.scan.fingerprint = 42;
    ErmResult result = BruteForceErm(g, examples, 2, resumed);
    EXPECT_EQ(result.training_error, reference.training_error);
    EXPECT_EQ(result.parameter_tuples_tried,
              reference.parameter_tuples_tried);
    EXPECT_EQ(result.hypothesis.ToExplicit().parameters,
              reference.hypothesis.ToExplicit().parameters);
  }
}

// ---------------------------------------------------------------------------
// Bounded BallCache.

TEST(BallCache, BudgetEvictsButNeverChangesResults) {
  Rng rng(7);
  Graph g = MakeRandomTree(60, rng);
  BallCache unbounded(g);
  BallCache bounded(g, /*max_bytes=*/2048);
  for (int round = 0; round < 3; ++round) {
    for (Vertex v = 0; v < g.order(); ++v) {
      // Spans are only valid until the next call on the same cache; copy
      // the first before querying the second.
      const std::span<const Vertex> want_span = unbounded.VertexBall(v, 2);
      const std::vector<Vertex> want(want_span.begin(), want_span.end());
      const std::span<const Vertex> got_span = bounded.VertexBall(v, 2);
      const std::vector<Vertex> got(got_span.begin(), got_span.end());
      ASSERT_EQ(got, want) << "vertex " << v;
      // The byte budget is a hard invariant after every call, not a
      // payload-only approximation.
      ASSERT_LE(bounded.bytes(), bounded.max_bytes());
    }
  }
  EXPECT_GT(bounded.evictions(), 0);
  EXPECT_EQ(unbounded.evictions(), 0);
}

// Many small balls: the regime where payload-only accounting used to
// overshoot the budget by the uncounted per-entry (key/map-node/queue)
// overhead. The full footprint must stay within budget at every step.
TEST(BallCache, ManySmallBallsRespectBudget) {
  Graph g(400, Vocabulary{});  // edgeless: every radius-1 ball is {v}
  const int64_t budget = 4096;
  BallCache cache(g, budget);
  for (Vertex v = 0; v < g.order(); ++v) {
    const std::span<const Vertex> ball_span = cache.VertexBall(v, 1);
    const std::vector<Vertex> ball(ball_span.begin(), ball_span.end());
    ASSERT_EQ(ball, std::vector<Vertex>{v});
    ASSERT_LE(cache.bytes(), budget);
  }
  // 400 singleton balls cannot all fit in 4 KiB once overhead is charged.
  EXPECT_GT(cache.evictions(), 0);
  EXPECT_LT(cache.cached_balls(), g.order());
  // The cache is not degenerate either: a sensible fraction is retained.
  EXPECT_GT(cache.cached_balls(), 8);
}

TEST(BallCache, SingleEntryLargerThanBudgetServedUncached) {
  Graph g = MakeStar(40);  // hub ball holds every vertex
  BallCache unbounded(g);
  BallCache cache(g, /*max_bytes=*/1);
  const std::span<const Vertex> ball_span = cache.VertexBall(0, 1);
  const std::vector<Vertex> ball(ball_span.begin(), ball_span.end());
  const std::span<const Vertex> want = unbounded.VertexBall(0, 1);
  EXPECT_EQ(ball, std::vector<Vertex>(want.begin(), want.end()));
  // An entry that alone exceeds the budget is served from scratch space:
  // the invariant holds and nothing is retained.
  EXPECT_EQ(cache.bytes(), 0);
  EXPECT_EQ(cache.cached_balls(), 0);
  EXPECT_EQ(cache.oversize_misses(), 1);
  // TupleBall merges scratch-served balls safely (consumed immediately).
  std::vector<Vertex> tuple = {0, 1};
  EXPECT_EQ(cache.TupleBall(tuple, 1), unbounded.TupleBall(tuple, 1));
}

}  // namespace
}  // namespace folearn
