#include "mc/plan_cache.h"

#include <chrono>
#include <utility>

#include "fo/printer.h"
#include "util/check.h"

namespace folearn {

namespace {

int64_t StringBytes(const std::string& s) {
  return static_cast<int64_t>(sizeof(std::string)) +
         static_cast<int64_t>(s.capacity());
}

int64_t PlanPayloadBytes(const CompiledFormula& plan) {
  int64_t bytes = static_cast<int64_t>(sizeof(CompiledFormula));
  bytes += static_cast<int64_t>(plan.nodes().capacity()) *
           static_cast<int64_t>(sizeof(CompiledNode));
  // The child-id array is not directly exposed; every child id appears in
  // exactly one node's window, so summing the windows counts it exactly.
  for (const CompiledNode& node : plan.nodes()) {
    bytes += static_cast<int64_t>(node.num_children) *
             static_cast<int64_t>(sizeof(int32_t));
  }
  for (const std::string& s : plan.free_vars()) bytes += StringBytes(s);
  for (const std::string& s : plan.color_names()) bytes += StringBytes(s);
  for (const std::string& s : plan.set_slot_names()) bytes += StringBytes(s);
  for (const std::string& s : plan.free_set_names()) bytes += StringBytes(s);
  bytes += static_cast<int64_t>(plan.used_free_slots().capacity()) *
           static_cast<int64_t>(sizeof(int32_t));
  return bytes;
}

}  // namespace

// Key = formula source text + frame + engine + options fingerprint. The
// source is length-prefixed because it may come straight off the wire:
// without the prefix a text containing the unit separator could spell out
// another text's frame and hit a plan compiled for a different frame. The
// frame and suffix are separated by the unit separator (which cannot occur
// in variable names); the engine/fingerprint suffix keeps a tree-only entry
// and a tree+bytecode entry for the same formula distinct, so neither
// collides with nor double-counts the other's byte budget.
std::string PlanCache::MakeKey(std::string_view source,
                               std::span<const std::string> free_var_order,
                               const EvalOptions& options) {
  std::string key = std::to_string(source.size());
  key.push_back(':');
  key.append(source);
  for (const std::string& var : free_var_order) {
    key.push_back('\x1f');
    key.append(var);
  }
  key.push_back('\x1f');
  key.append(EvalEngineName(ResolveEngine(options)));
  key.push_back('\x1f');
  key.append(options.missing_color_is_false ? "mcf1" : "mcf0");
  return key;
}

int64_t PlanCache::EntryBytes(const std::string& key,
                              const CachedPlan& entry) {
  // Key is stored twice (map key + FIFO queue), plus hash-map node and
  // control-block overhead, estimated the same way BallCache does.
  constexpr int64_t kPerEntryOverhead =
      4 * sizeof(void*) + sizeof(CachedPlan) + 2 * sizeof(int64_t);
  FOLEARN_CHECK(entry.plan != nullptr);
  int64_t bytes =
      PlanPayloadBytes(*entry.plan) + 2 * StringBytes(key) + kPerEntryOverhead;
  if (entry.bytecode != nullptr) bytes += entry.bytecode->bytes();
  return bytes;
}

PlanCache::~PlanCache() {
  if (account_ != nullptr) account_->Release(bytes_);
}

void PlanCache::set_mem_account(MemBudget* account) {
  std::lock_guard<std::mutex> lock(mu_);
  if (account_ != nullptr) account_->Release(bytes_);
  account_ = account;
  if (account_ != nullptr && bytes_ > 0) account_->Charge(bytes_);
}

void PlanCache::set_read_through(const std::atomic<bool>* flag) {
  std::lock_guard<std::mutex> lock(mu_);
  read_through_ = flag;
}

void PlanCache::EvictOneLocked() {
  FOLEARN_CHECK(!insertion_order_.empty());
  auto old_it = cache_.find(insertion_order_.front());
  insertion_order_.pop_front();
  FOLEARN_CHECK(old_it != cache_.end());
  const int64_t freed = EntryBytes(old_it->first, old_it->second);
  bytes_ -= freed;
  if (account_ != nullptr) account_->Release(freed);
  cache_.erase(old_it);
  ++evictions_;
}

void PlanCache::Trim(int64_t target_bytes) {
  if (target_bytes < 0) target_bytes = 0;
  std::lock_guard<std::mutex> lock(mu_);
  while (bytes_ > target_bytes && !insertion_order_.empty()) {
    EvictOneLocked();
  }
}

CachedPlan PlanCache::GetOrCompile(const FormulaRef& formula,
                                   std::span<const std::string> free_var_order,
                                   const EvalOptions& options) {
  return *GetOrCompileSource(ToString(formula), free_var_order, options,
                             [&]() -> StatusOr<FormulaRef> { return formula; });
}

StatusOr<CachedPlan> PlanCache::GetOrCompileSource(
    std::string_view source, std::span<const std::string> free_var_order,
    const EvalOptions& options, const SourceParser& parse) {
  std::string key = MakeKey(source, free_var_order, options);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cache_.find(key);
    if (it != cache_.end()) {
      ++hits_;
      return it->second;
    }
    ++misses_;
  }
  // Parse only on a miss; a failed parse inserts nothing, so every entry
  // stands for a source that parsed and validated against its frame.
  StatusOr<FormulaRef> formula = parse();
  if (!formula.ok()) return formula.status();
  // Compile (and for the VM engine, lower) outside the lock: plans can
  // take a while and the cache must not serialise unrelated requests
  // behind one compilation.
  CachedPlan entry;
  entry.plan = std::make_shared<const CompiledFormula>(
      CompileFormula(*formula, free_var_order));
  if (ResolveEngine(options) == EvalEngine::kVm) {
    const auto start = std::chrono::steady_clock::now();
    entry.bytecode = std::make_shared<const LoweredPlan>(LowerPlan(*entry.plan));
    entry.lower_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - start)
                         .count();
  }
  const int64_t cost = EntryBytes(key, entry);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = cache_.find(key);
  if (it != cache_.end()) return it->second;  // a racing compile won
  if (read_through_ != nullptr &&
      read_through_->load(std::memory_order_relaxed)) {
    ++shed_inserts_;
    return entry;  // pressure tier says: serve, but do not grow
  }
  if (max_bytes_ >= 0 && cost > max_bytes_) {
    ++oversize_misses_;
    return entry;  // caller keeps it alive; too big to ever cache
  }
  if (max_bytes_ >= 0) {
    while (bytes_ + cost > max_bytes_) {
      EvictOneLocked();
    }
  }
  if (account_ != nullptr && !account_->TryCharge(cost)) {
    ++shed_inserts_;
    return entry;  // byte budget refused the growth; serve uncached
  }
  insertion_order_.push_back(key);
  bytes_ += cost;
  cache_.emplace(std::move(key), entry);
  return entry;
}

int64_t PlanCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

int64_t PlanCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

int64_t PlanCache::evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evictions_;
}

int64_t PlanCache::oversize_misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return oversize_misses_;
}

int64_t PlanCache::shed_inserts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shed_inserts_;
}

int64_t PlanCache::bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

int64_t PlanCache::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(cache_.size());
}

}  // namespace folearn
