#ifndef FOLEARN_UTIL_PARALLEL_H_
#define FOLEARN_UTIL_PARALLEL_H_

#include <cstdint>
#include <functional>
#include <limits>

#include "util/governor.h"

namespace folearn {

// Deterministic parallel execution for the library's search sweeps.
//
// Every hot loop in this code base — the n^ℓ parameter scan of
// BruteForceErm (Proposition 11), the tuple×formula grid of
// EnumerationErm, the nd-learner's final candidate evaluation
// (Theorem 13) — is an argmin over an index range where evaluating one
// index is independent of all others. `ParallelSweep` runs such a range
// on a shared lazily-started thread pool and reduces with an
// index-ordered argmin, so the selected winner is byte-identical for any
// thread count:
//
//  * Chunks of indices are claimed in strictly increasing order from an
//    atomic counter, so the set of claimed chunks is always a prefix of
//    the range.
//  * On a "hit" (e.g. a zero-error candidate) workers stop claiming new
//    chunks but run their in-flight chunks to completion; hence every
//    index below the minimum reported hit has been evaluated, and the
//    minimum hit index is exact regardless of timing.
//  * Ties in the reduction key keep the lowest index, matching the
//    first-minimiser rule of the sequential scans.
//
// Governor integration is split in two (see ResourceGovernor):
// deterministic limits (work budget, fault injector) are converted by the
// caller into a fixed evaluation range *before* the sweep via
// `DeterministicAllowance()`, and charged afterwards via
// `CheckpointBatch()`; timing-dependent limits (deadline, cancellation)
// are polled read-only per item via `PassiveLimitHit()` and abort
// mid-chunk with best-so-far semantics, exactly like PR 2's sequential
// anytime loops.

// Resolves a requested thread count: 0 means "hardware concurrency",
// values are clamped to [1, 256]. Negative counts CHECK-fail.
int EffectiveThreads(int requested);

// A lazily started, globally shared pool of worker threads. Grows on
// demand up to the clamp in EffectiveThreads; threads idle on a condition
// variable between jobs and are joined at process exit.
class ThreadPool {
 public:
  static ThreadPool& Global();

  // Runs body(0), …, body(workers−1) concurrently and returns when all
  // have finished. The calling thread executes body(0) itself, so
  // workers == 1 never touches the pool and a call from inside a pool
  // worker (nested parallelism) degrades to a sequential loop instead of
  // deadlocking. Exceptions must not escape `body` (the library is
  // exception-free by convention; CHECK failures abort).
  void RunParallel(int workers, const std::function<void(int)>& body);

  int started_threads() const;

  ~ThreadPool();

 private:
  ThreadPool() = default;
  struct Impl;
  Impl* impl();  // lazily constructed guts
  Impl* impl_ = nullptr;
};

struct SweepOptions {
  int threads = 1;         // resolved worker count (EffectiveThreads)
  int64_t chunk_size = 16;  // indices claimed per chunk
  // Polled read-only per item for deadline/cancellation; nullptr = never
  // stops. Deterministic limits must be pre-resolved by the caller via
  // DeterministicAllowance() — the sweep itself never mutates the
  // governor.
  const ResourceGovernor* governor = nullptr;
  // Stop claiming new chunks once an item reports a hit (in-flight chunks
  // still complete, keeping the minimum hit index exact).
  bool stop_on_hit = true;
};

struct SweepOutcome {
  // Items fully evaluated, summed over workers. Equals n unless a hit or
  // a passive limit stopped the sweep.
  int64_t evaluated = 0;
  // Lexicographic argmin of (key, index) over evaluated items; −1 if none.
  int64_t best_index = -1;
  double best_key = std::numeric_limits<double>::infinity();
  // Minimum index reporting a hit, −1 if none. Exact (thread-count and
  // timing independent) whenever passive_stop is false.
  int64_t first_hit = -1;
  // A deadline/cancellation poll fired; the evaluated set may then be a
  // non-contiguous subset of [0, n) and the outcome is timing-dependent,
  // matching the sequential deadline semantics.
  bool passive_stop = false;
};

// Evaluates eval(index, worker) → (key, hit) for index ∈ [0, n) and
// reduces as described above. `eval` runs concurrently from multiple
// workers: it must only touch shared state read-only, keeping mutable
// scratch per worker index.
SweepOutcome ParallelSweep(
    int64_t n, const SweepOptions& options,
    const std::function<std::pair<double, bool>(int64_t, int)>& eval);

}  // namespace folearn

#endif  // FOLEARN_UTIL_PARALLEL_H_
