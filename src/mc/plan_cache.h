#ifndef FOLEARN_MC_PLAN_CACHE_H_
#define FOLEARN_MC_PLAN_CACHE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>

#include "fo/formula.h"
#include "mc/bytecode.h"
#include "mc/compiler.h"
#include "mc/evaluator.h"
#include "util/mem_budget.h"
#include "util/status.h"

namespace folearn {

// One cached compilation artefact: the plan, its lowered bytecode, and how
// long the lowering took (amortised across every reuse; surfaced by the
// server's get-model stats). All members are immutable and shareable
// across threads and graphs; per-graph state lives in the evaluators.
// Every plan lowers, MSO included; only an oversized plan's bytecode is
// unsupported, and its VmEvaluator runs the plan's source formula on the
// interpreter.
struct CachedPlan {
  std::shared_ptr<const CompiledFormula> plan;
  std::shared_ptr<const LoweredPlan> bytecode;
  double lower_ms = 0.0;
};

// A thread-safe, byte-budgeted cache of compiled evaluation plans.
//
// CompileFormula is cheap relative to a single quantifier sweep but far
// from free, and a long-lived process (the folearnd server, a batched
// experiment driver) sees the same handful of formula shapes over and
// over — every `evaluate` of a saved model, every repeat of a `query`.
// Plans are immutable and explicitly shareable across threads and graphs
// (mc/compiler.h), which makes them the one compilation artefact a server
// can safely keep warm globally; the per-graph state (memo tables, colour
// classes) lives in each VmEvaluator instead.
//
// Keying: (formula source text, free-variable frame, eval-options
// fingerprint). Keying by source lets a caller that holds the
// text (the server's `evaluate` with a shipped model, `query` with a
// sentence) find a warm plan without parsing the formula at all; the parse
// runs only on a miss, and a failed parse inserts nothing. GetOrCompile
// keys a parsed formula by its printed form, so a canonical text and its
// parse share one entry. The frame is part of the key because slot
// assignment depends on it (and because a source is validated against its
// frame before its entry exists); the options fingerprint keeps plans
// whose missing-colour semantics differ apart.
//
// Budgeting mirrors BallCache: `bytes() <= max_bytes` is a hard invariant
// maintained by FIFO eviction, the accounting covers the plan's node and
// string payloads (plus an oversized plan's source formula), the
// bytecode, and per-entry key/metadata overhead, and a single entry larger than the whole budget
// is returned uncached (the shared_ptrs keep it alive for the caller; the
// cache remembers only that it happened).
class PlanCache {
 public:
  static constexpr int64_t kNoBudget = -1;

  explicit PlanCache(int64_t max_bytes = kNoBudget) : max_bytes_(max_bytes) {}

  ~PlanCache();

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  // Mirrors accounted bytes into a MemBudget account (must outlive the
  // cache). Inserts go through TryCharge; a refused charge returns the
  // compiled entry uncached — identical results, colder cache.
  void set_mem_account(MemBudget* account);

  // Read-through mode (yellow/red pressure): while *flag is true, misses
  // compile but are not inserted; hits still serve.
  void set_read_through(const std::atomic<bool>* flag);

  // Evicts FIFO-oldest entries until bytes() <= target_bytes (the red
  // tier drops the cache to a floor without destroying it).
  void Trim(int64_t target_bytes);

  // Returns the cached artefacts for (ToString(formula), free_var_order,
  // options fingerprint), compiling and lowering on a miss (budget
  // permitting). Safe to call from
  // any number of threads; compilation happens outside the lock, so two
  // threads racing on the same key may both compile — the first insert
  // wins and both get usable artefacts.
  CachedPlan GetOrCompile(const FormulaRef& formula,
                          std::span<const std::string> free_var_order,
                          const EvalOptions& options);

  // Produces the formula behind a source text; called only on a miss. It
  // must also validate the formula against the frame (free variables): a
  // hit skips it, so an entry may exist only for sources that passed.
  using SourceParser = std::function<StatusOr<FormulaRef>()>;

  // GetOrCompile keyed by the formula's source text instead of its printed
  // form: a hit costs one key build and lookup, no parse. On a miss runs
  // `parse`; its error is returned as is and nothing is inserted.
  StatusOr<CachedPlan> GetOrCompileSource(
      std::string_view source, std::span<const std::string> free_var_order,
      const EvalOptions& options, const SourceParser& parse);

  // Diagnostics (snapshot under the lock).
  int64_t hits() const;
  int64_t misses() const;
  int64_t evictions() const;
  int64_t oversize_misses() const;
  // Inserts refused by read-through mode or the memory account.
  int64_t shed_inserts() const;
  int64_t bytes() const;
  int64_t entries() const;
  int64_t max_bytes() const { return max_bytes_; }

  // The cache key of a source text in a frame under `options`.
  static std::string MakeKey(std::string_view source,
                             std::span<const std::string> free_var_order,
                             const EvalOptions& options);

  // Full footprint of one cache entry: plan payload + bytecode payload +
  // key string + map and FIFO bookkeeping. Exposed for tests
  // asserting the budget invariant.
  static int64_t EntryBytes(const std::string& key, const CachedPlan& entry);

 private:
  // Evicts the FIFO-oldest entry; mu_ must be held.
  void EvictOneLocked();

  const int64_t max_bytes_;

  mutable std::mutex mu_;
  std::unordered_map<std::string, CachedPlan> cache_;
  std::deque<std::string> insertion_order_;  // FIFO eviction
  int64_t bytes_ = 0;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
  int64_t evictions_ = 0;
  int64_t oversize_misses_ = 0;
  int64_t shed_inserts_ = 0;
  MemBudget* account_ = nullptr;
  const std::atomic<bool>* read_through_ = nullptr;
};

}  // namespace folearn

#endif  // FOLEARN_MC_PLAN_CACHE_H_
