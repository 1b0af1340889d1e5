// Unit tests for the parallel execution subsystem (util/parallel.h) and
// its governor hooks: the thread pool, the worker indices and the
// deterministic argmin/first-hit reduction of ParallelSweep, the batch
// checkpoint arithmetic, random tuple access, and the ball cache.

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "graph/algorithms.h"
#include "graph/generators.h"
#include "util/combinatorics.h"
#include "util/governor.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace folearn {
namespace {

TEST(EffectiveThreadsTest, ResolvesAndClamps) {
  EXPECT_GE(EffectiveThreads(0), 1);  // hardware concurrency, at least 1
  EXPECT_EQ(EffectiveThreads(1), 1);
  EXPECT_EQ(EffectiveThreads(7), 7);
  EXPECT_EQ(EffectiveThreads(100000), 256);
}

TEST(ThreadPoolTest, WorkerIndicesAreWithinRange) {
  SweepOptions options;
  options.threads = 4;
  options.chunk_size = 1;
  options.stop_on_hit = false;
  std::atomic<bool> bad{false};
  SweepOutcome out = ParallelSweep(
      100, options, [&](int64_t, int worker) -> std::pair<double, bool> {
        if (worker < 0 || worker >= options.threads) bad.store(true);
        return {1.0, false};
      });
  EXPECT_EQ(out.evaluated, 100);
  EXPECT_FALSE(bad.load());
}

TEST(ThreadPoolTest, NestedRunDegradesToSequentialWithoutDeadlock) {
  std::atomic<int> inner_runs{0};
  ThreadPool::Global().RunParallel(4, [&](int) {
    ThreadPool::Global().RunParallel(4, [&](int) { ++inner_runs; });
  });
  EXPECT_EQ(inner_runs.load(), 16);
}

TEST(ParallelSweepTest, ArgminIsExactAndTiesKeepLowestIndex) {
  // keys 0..n−1 mapped through a permutation-ish function with many ties.
  const int64_t n = 500;
  for (int threads : {1, 3, 8}) {
    SweepOptions options;
    options.threads = threads;
    options.chunk_size = 4;
    options.stop_on_hit = false;
    SweepOutcome out = ParallelSweep(
        n, options, [&](int64_t index, int) -> std::pair<double, bool> {
          return {static_cast<double>((index * 37 + 11) % 10), false};
        });
    EXPECT_EQ(out.evaluated, n);
    // Smallest key is 0; the first index with (37·i + 11) ≡ 0 (mod 10).
    int64_t expected = -1;
    for (int64_t i = 0; i < n; ++i) {
      if ((i * 37 + 11) % 10 == 0) {
        expected = i;
        break;
      }
    }
    EXPECT_EQ(out.best_index, expected) << "threads " << threads;
    EXPECT_EQ(out.best_key, 0.0);
  }
}

TEST(ParallelSweepTest, FirstHitIsExactForAnyThreadCount) {
  // Hits scattered from index 123 on; the minimum must always be found
  // even though later chunks may be claimed before earlier ones finish.
  const int64_t n = 400;
  for (int threads : {1, 2, 8}) {
    SweepOptions options;
    options.threads = threads;
    options.chunk_size = 2;
    options.stop_on_hit = true;
    SweepOutcome out = ParallelSweep(
        n, options, [&](int64_t index, int) -> std::pair<double, bool> {
          const bool hit = index >= 123 && index % 3 == 0;
          return {1.0, hit};
        });
    EXPECT_EQ(out.first_hit, 123) << "threads " << threads;
    EXPECT_GE(out.evaluated, 124);
  }
}

TEST(ParallelSweepTest, PassiveGovernorStopAborts) {
  GovernorLimits limits;
  limits.deadline_ms = 0;  // already elapsed
  ResourceGovernor governor(limits);
  SweepOptions options;
  options.threads = 4;
  options.governor = &governor;
  std::atomic<int64_t> calls{0};
  SweepOutcome out = ParallelSweep(
      1000, options, [&](int64_t, int) -> std::pair<double, bool> {
        ++calls;
        return {1.0, false};
      });
  EXPECT_TRUE(out.passive_stop);
  // Workers stop at their first poll; nothing is evaluated.
  EXPECT_EQ(out.evaluated, 0);
  EXPECT_EQ(calls.load(), 0);
  // The sweep itself never mutates the governor.
  EXPECT_EQ(governor.status(), RunStatus::kComplete);
}

// --- CheckpointBatch / DeterministicAllowance ---------------------------

// Runs `count` unit checkpoints one by one; returns how many passed.
int64_t LoopCheckpoints(ResourceGovernor& governor, int64_t count) {
  int64_t passes = 0;
  for (int64_t i = 0; i < count; ++i) {
    if (governor.Checkpoint()) ++passes;
  }
  return passes;
}

TEST(CheckpointBatchTest, MatchesSequentialLoopForDeterministicLimits) {
  for (int64_t budget : {1, 5, 10, 99}) {
    for (int64_t count : {1, 4, 5, 10, 11, 200}) {
      GovernorLimits limits;
      limits.max_work = budget;
      ResourceGovernor batch(limits);
      ResourceGovernor loop(limits);
      int64_t batch_passes = batch.CheckpointBatch(count);
      int64_t loop_passes = LoopCheckpoints(loop, count);
      EXPECT_EQ(batch_passes, loop_passes)
          << "budget " << budget << " count " << count;
      EXPECT_EQ(batch.status(), loop.status());
      EXPECT_EQ(batch.work_used(), loop.work_used());
      EXPECT_EQ(batch.checkpoints_passed(), loop.checkpoints_passed());
    }
  }
}

TEST(CheckpointBatchTest, MatchesSequentialLoopWithInjector) {
  for (int64_t trip : {1, 3, 7}) {
    for (int64_t count : {1, 2, 7, 8, 50}) {
      FaultInjector injector(trip, RunStatus::kDeadlineExceeded);
      ResourceGovernor batch(GovernorLimits{}, nullptr, &injector);
      ResourceGovernor loop(GovernorLimits{}, nullptr, &injector);
      EXPECT_EQ(batch.CheckpointBatch(count), LoopCheckpoints(loop, count))
          << "trip " << trip << " count " << count;
      EXPECT_EQ(batch.status(), loop.status());
      EXPECT_EQ(batch.work_used(), loop.work_used());
    }
  }
}

TEST(CheckpointBatchTest, InjectorWinsOverBudgetAtSameCheckpoint) {
  // Sequentially, the injector is consulted before the work budget; the
  // batch must latch the same status when both trip inside it.
  FaultInjector injector(5, RunStatus::kCancelled);
  GovernorLimits limits;
  limits.max_work = 4;
  ResourceGovernor batch(limits, nullptr, &injector);
  ResourceGovernor loop(limits, nullptr, &injector);
  batch.CheckpointBatch(20);
  LoopCheckpoints(loop, 20);
  EXPECT_EQ(batch.status(), loop.status());
  EXPECT_EQ(batch.status(), RunStatus::kCancelled);
}

TEST(CheckpointBatchTest, SplitBatchesEqualOneBatch) {
  GovernorLimits limits;
  limits.max_work = 37;
  ResourceGovernor split(limits);
  ResourceGovernor whole(limits);
  int64_t split_passes = split.CheckpointBatch(10);
  split_passes += split.CheckpointBatch(20);
  split_passes += split.CheckpointBatch(30);
  EXPECT_EQ(split_passes, whole.CheckpointBatch(60));
  EXPECT_EQ(split.status(), whole.status());
  EXPECT_EQ(split.work_used(), whole.work_used());
}

TEST(DeterministicAllowanceTest, CountsExactRemainingPasses) {
  GovernorLimits limits;
  limits.max_work = 10;
  FaultInjector injector(8);
  ResourceGovernor governor(limits, nullptr, &injector);
  EXPECT_EQ(governor.DeterministicAllowance(), 7);  // injector is tighter
  EXPECT_TRUE(governor.Checkpoint(1));
  EXPECT_EQ(governor.DeterministicAllowance(), 6);
  // Exactly the allowance passes, then the next call trips.
  EXPECT_EQ(governor.CheckpointBatch(6), 6);
  EXPECT_EQ(governor.status(), RunStatus::kComplete);
  EXPECT_FALSE(governor.Checkpoint());
  EXPECT_EQ(governor.DeterministicAllowance(), 0);
}

TEST(DeterministicAllowanceTest, NoDeterministicLimitIsUnbounded) {
  ResourceGovernor unlimited;
  EXPECT_EQ(unlimited.DeterministicAllowance(), kNoLimit);
  GovernorLimits limits;
  limits.deadline_ms = 1000000;  // deadline alone is not deterministic
  ResourceGovernor deadline_only(limits);
  EXPECT_EQ(deadline_only.DeterministicAllowance(), kNoLimit);
}

TEST(PassiveLimitHitTest, ReflectsDeadlineCancelAndLatch) {
  ResourceGovernor unlimited;
  EXPECT_FALSE(unlimited.PassiveLimitHit());

  GovernorLimits elapsed;
  elapsed.deadline_ms = 0;
  ResourceGovernor tripped(elapsed);
  EXPECT_TRUE(tripped.PassiveLimitHit());
  EXPECT_EQ(tripped.status(), RunStatus::kComplete);  // read-only poll

  std::atomic<bool> cancel{false};
  ResourceGovernor cancellable(GovernorLimits{}, &cancel);
  EXPECT_FALSE(cancellable.PassiveLimitHit());
  cancel.store(true);
  EXPECT_TRUE(cancellable.PassiveLimitHit());
}

// --- NthTuple -----------------------------------------------------------

TEST(NthTupleTest, MatchesForEachTupleOrder) {
  for (int64_t base : {1, 2, 5}) {
    for (int length : {0, 1, 3}) {
      int64_t index = 0;
      ForEachTuple(base, length, [&](const std::vector<int64_t>& tuple) {
        EXPECT_EQ(NthTuple(base, length, index), tuple)
            << "base " << base << " length " << length << " index " << index;
        ++index;
        return true;
      });
      EXPECT_EQ(index, SaturatingPow(base, length));
    }
  }
}

// --- BallCache ----------------------------------------------------------

TEST(BallCacheTest, TupleBallMatchesMultiSourceBall) {
  Rng rng(42);
  Graph graph = MakeRandomTree(40, rng);
  AddRandomColors(graph, {"Red"}, 0.3, rng);
  BallCache cache(graph);
  for (int radius : {0, 1, 2, 4}) {
    for (Vertex v = 0; v < graph.order(); v += 3) {
      std::vector<Vertex> tuple = {v, (v + 7) % graph.order(),
                                   (v + 13) % graph.order()};
      EXPECT_EQ(cache.TupleBall(tuple, radius), Ball(graph, tuple, radius))
          << "v " << v << " radius " << radius;
    }
  }
  EXPECT_GT(cache.hits(), 0);
  EXPECT_GT(cache.misses(), 0);
}

TEST(BallCacheTest, RepeatLookupsHitTheCache) {
  Rng rng(7);
  Graph graph = MakeRandomTree(20, rng);
  BallCache cache(graph);
  std::vector<Vertex> tuple = {0, 5};
  cache.TupleBall(tuple, 2);
  EXPECT_EQ(cache.misses(), 2);
  cache.TupleBall(tuple, 2);
  EXPECT_EQ(cache.misses(), 2);  // no new BFS
  EXPECT_EQ(cache.hits(), 2);
  EXPECT_EQ(cache.cached_balls(), 2);
}

}  // namespace
}  // namespace folearn
