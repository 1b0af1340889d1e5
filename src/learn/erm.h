#ifndef FOLEARN_LEARN_ERM_H_
#define FOLEARN_LEARN_ERM_H_

#include <functional>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "fo/enumerate.h"
#include "graph/graph.h"
#include "learn/dataset.h"
#include "learn/hypothesis.h"
#include "learn/search_state.h"
#include "mc/bytecode.h"
#include "mc/compiler.h"
#include "types/type.h"
#include "util/governor.h"

namespace folearn {

// Empirical risk minimisation (paper §3, FO-ERM).
//
// The hypothesis class H_{k,ℓ,q}(G) is "all rank-q formulas φ(x̄; ȳ) with
// all parameter tuples w̄ ∈ V^ℓ". With w̄ fixed, Corollary 6 reduces the
// formula dimension to an exactly solvable problem: every rank-q
// hypothesis is a union of local (q, r(q))-types of v̄w̄, and the
// per-type majority vote is the exact empirical risk minimiser over that
// (strictly larger) class. The learners below differ only in how they
// search the *parameter* dimension.
//
// The class is fixed by the type registry's cap: a cap-T registry makes
// TypeMajorityErm, TypeMajoritySweep and BruteForceErm ERM over FO+C with
// counting thresholds ≤ T (the extension the paper's conclusion names,
// following van Bergerem LICS 2019), since a counting query with fixed
// parameters is a union of local counting types (types/type.h). That class
// is strictly larger at equal rank: "deg(x) ≥ t" is a rank-1 cap-t concept
// but needs rank t in plain FO. nullptr registries are plain (cap 1).
// EnumerationErm takes no registry, and the sublinear and nowhere-dense
// learners build their own cap-1 registries, so those stay plain FO.

struct ErmOptions {
  int rank = 1;     // q: quantifier-rank budget of the hypothesis class
  int radius = -1;  // r: locality radius; −1 ⇒ GaifmanRadius(rank)
  // Optional resource governor (nullptr = ungoverned). Work unit: one
  // local-type computation. Shared across nested calls — every candidate
  // of a TypeMajoritySweep draws from the same budget.
  ResourceGovernor* governor = nullptr;
  // Worker threads for TypeMajoritySweep (resolved via EffectiveThreads:
  // 0 = hardware concurrency). The result — hypothesis, error, serialised
  // model bytes, diagnostics — is byte-identical for every thread count;
  // see TypeMajoritySweep below. TypeMajorityErm itself is always
  // single-threaded (it is the per-candidate work unit).
  int threads = 1;
  // Optional per-vertex ball cache bound to the same graph (nullptr =
  // fresh BFS per type computation). Not thread-safe: consulted by
  // TypeMajorityErm, by the sweep's winner re-evaluation, and by the sweep
  // itself when it resolves to one worker (which runs on the caller's
  // thread); a multi-worker sweep creates one cache per worker internally.
  // Results are identical either way.
  BallCache* ball_cache = nullptr;
  // Byte budget for each internally created per-worker ball cache
  // (BallCache::kNoBudget = unbounded). Purely a memory/perf knob —
  // results are identical with any budget.
  int64_t cache_bytes = BallCache::kNoBudget;
  // Optional memory account (nullptr = unaccounted; must outlive the
  // call). The per-worker registry shards, type composers and ball caches
  // the sweep creates, and its per-example near sets, charge it; pair it with GovernorLimits::mem_budget on
  // the same budget so an overflowing sweep is cut with
  // kResourceExhausted and returns best-so-far. Accounting never changes
  // results — only whether and when the governor cuts.
  MemBudget* mem_budget = nullptr;
  // Checkpoint/resume hooks for TypeMajoritySweep's parameter scan
  // (default: off). With a checkpointer the scan persists its frontier between
  // candidate segments; with `scan.resume` it continues a saved scan and
  // produces the byte-identical result (model, error, governor ledger) of
  // the uninterrupted run. See learn/search_state.h.
  ScanHooks scan;

  int EffectiveRadius() const {
    return radius >= 0 ? radius : GaifmanRadius(rank);
  }
};

struct ErmResult {
  TypeSetHypothesis hypothesis;
  double training_error = 1.0;
  // kComplete: exact class optimum. Otherwise the governor tripped and the
  // hypothesis is the best found so far; `training_error` is then measured
  // over the examples processed before the interruption (1.0 if none).
  RunStatus status = RunStatus::kComplete;
  // Diagnostics.
  int64_t parameter_tuples_tried = 0;
  int64_t distinct_types_seen = 0;
};

// Exact ERM for a FIXED parameter tuple w̄: groups the examples by
// ltp_{q,r}(G, v̄w̄) and accepts exactly the types whose examples are
// majority-positive. Error = Σ_θ min(pos_θ, neg_θ) / m — a lower bound for
// every rank-q formula with these parameters, achieved by the returned
// type-set hypothesis. Deterministic: ties (pos == neg) reject the type.
//
// `registry` may be shared across calls (same graph vocabulary) so that
// TypeIds and output formulas are canonical across parameter candidates —
// the hardness reduction depends on this canonicity.
ErmResult TypeMajorityErm(const Graph& graph, const TrainingSet& examples,
                          std::span<const Vertex> parameters,
                          const ErmOptions& options,
                          std::shared_ptr<TypeRegistry> registry = nullptr);

// The one parameter sweep behind every type-majority learner: the argmin,
// over candidates 0…num_candidates−1, of TypeMajorityErm on
// parameters_at(index). BruteForceErm, SublinearErm and the nowhere-dense
// learner's final phase differ only in where their candidates come from
// (V^ℓ, the example pool^ℓ, a collected list; tuples may differ in
// length). The first minimiser wins; with `early_stop` the scan ends at
// the first zero-error candidate.
//
// The sweep splits (example, candidate) pairs into far and near. A pair
// is far when no entry of w̄ lies in N_{2r+1}(v̄): the r-balls of v̄ and w̄
// are then disjoint and not adjacent, and ltp(v̄w̄) is composed from
// ltp(v̄) (computed once per worker) and ltp(w̄) (once per candidate) by a
// TypeComposer — exact, by the locality fact behind Fact 5 and Lemma 15.
// Near pairs are computed directly with ComputeLocalType. Either way the
// pair costs one governor work unit, and the candidate's error is the one
// TypeMajorityErm reports.
//
// Candidate errors are evaluated on per-worker type-registry shards at
// `registry`'s cap (in parallel with options.threads > 1; deterministic
// index-ordered argmin), and the winning candidate is then re-evaluated
// directly, on `registry` (nullptr = a fresh plain one), so TypeIds,
// serialised model bytes, governor work accounting, and every diagnostic
// are identical to a single-threaded scan of direct TypeMajorityErm calls.
// Each candidate costs m + 1 governor units (an outer checkpoint plus one
// per example), except that `first_item_discount` = 1 waives candidate 0's
// outer checkpoint. Deterministic governor limits (work budget, fault
// injector) fix the evaluated range up front and are charged as the
// sequential-equivalent batch; the wall-clock deadline is polled
// cooperatively per candidate. options.scan checkpoints and resumes the
// scan under the tag `learner` (see learn/search_state.h).
//
// Anytime: if the governor trips mid-scan, the best candidate fully
// evaluated so far is returned (deterministically for a work-budget or
// injected trip). If no candidate completes, candidate 0 is evaluated
// governed on `registry` — a partial vote over the examples seen before
// the trip — so the result always carries a serialisable hypothesis. An
// empty range yields the parameter-free hypothesis.
// `parameter_tuples_tried` is the sequential-equivalent count of
// candidates started.
ErmResult TypeMajoritySweep(
    const Graph& graph, const TrainingSet& examples, int64_t num_candidates,
    const std::function<std::vector<Vertex>(int64_t)>& parameters_at,
    const ErmOptions& options, std::shared_ptr<TypeRegistry> registry,
    std::string_view learner, bool early_stop, int64_t first_item_discount);

// Algorithm 1 / Proposition 11: brute force over all w̄ ∈ V(G)^ℓ
// (n^ℓ · m type computations; FPT for constant ℓ), scanned in
// lexicographic order through TypeMajoritySweep (learner tag "brute"). With
// `early_stop` the scan ends at the first zero-error candidate (disable it
// to measure the full n^ℓ cost).
ErmResult BruteForceErm(const Graph& graph, const TrainingSet& examples,
                        int ell, const ErmOptions& options,
                        std::shared_ptr<TypeRegistry> registry = nullptr,
                        bool early_stop = true);

// Literal "step through all formulas" ERM over an explicitly enumerated
// syntactic slice (plus all parameter tuples): the cross-checking baseline
// of experiment E9. Exponentially slower than TypeMajorityErm; only for
// tiny instances.
struct EnumerationErmResult {
  Hypothesis hypothesis;
  double training_error = 1.0;
  RunStatus status = RunStatus::kComplete;  // best-so-far when interrupted
  int64_t formulas_tried = 0;
  // Compiled plans dropped from the per-worker caches to honour
  // EvalOptions::cache_bytes. Thread- and timing-dependent telemetry (a
  // worker's compilation order depends on chunk claiming), deliberately
  // excluded from the byte-identity contract; everything else in this
  // struct is deterministic.
  int64_t plan_cache_evictions = 0;
};
// `threads` parallelises the tuple×formula grid exactly like
// BruteForceErm's sweep (same determinism guarantees; 0 = hardware
// concurrency).
//
// Candidate formulas are compiled and lowered once per worker and the VM
// evaluators (plus their per-graph subformula memos) are reused across
// every parameter tuple and training example — the headline win on the E9
// grid. `eval` controls the per-candidate evaluation only
// (EvalEngine::kInterpreted routes through the reference evaluator;
// eval.governor is ignored — the grid-level `governor` parameter is the
// budget, charged one unit per candidate in both modes).
// `hooks` enables checkpoint/resume of the grid scan (learner tag
// "enumeration"), with the same byte-identity guarantee as BruteForceErm.
EnumerationErmResult EnumerationErm(const Graph& graph,
                                    const TrainingSet& examples, int ell,
                                    const EnumerationOptions& enumeration,
                                    ResourceGovernor* governor = nullptr,
                                    int threads = 1,
                                    const EvalOptions& eval = {},
                                    const ScanHooks& hooks = {});

// Same grid search over an explicitly pre-enumerated candidate slice. The
// formulas must use the canonical frame QueryVars(k) · ParamVars(ell)
// (what the EnumerationOptions overload enumerates with) — anything else
// CHECK-fails at compile/evaluation time as an unbound variable. Lets
// callers amortise the (substantial) syntactic enumeration across
// repeated runs, and lets bench_erm_core time the search itself.
EnumerationErmResult EnumerationErm(const Graph& graph,
                                    const TrainingSet& examples, int ell,
                                    std::span<const FormulaRef> formulas,
                                    ResourceGovernor* governor = nullptr,
                                    int threads = 1,
                                    const EvalOptions& eval = {},
                                    const ScanHooks& hooks = {});

// A candidate with its graph-independent compilation artifacts hoisted out
// of the grid scan: the plan and its lowered bytecode. Produced by
// PrepareFormulas; consumed by the overload below. Prepared plans are
// caller-owned — the per-worker plan caches neither count them against
// EvalOptions::cache_bytes nor evict them (per-graph evaluators are still
// built, and evicted, per worker).
struct PreparedFormula {
  FormulaRef formula;
  std::shared_ptr<const CompiledFormula> plan;
  std::shared_ptr<const LoweredPlan> lowered;
};

// Compiles and lowers every candidate against the canonical frame
// QueryVars(k) · ParamVars(ell). Lets callers amortise plan construction
// across repeated runs and keep it out of benches' timed regions; graph
// binding still happens inside EnumerationErm.
std::vector<PreparedFormula> PrepareFormulas(
    std::span<const FormulaRef> formulas, int k, int ell);

// Grid search over pre-compiled candidates: identical results to the
// FormulaRef overload on the same formulas, minus the per-worker
// compile/lower work (and minus its cache_bytes eviction telemetry).
EnumerationErmResult EnumerationErm(const Graph& graph,
                                    const TrainingSet& examples, int ell,
                                    std::span<const PreparedFormula> formulas,
                                    ResourceGovernor* governor = nullptr,
                                    int threads = 1,
                                    const EvalOptions& eval = {},
                                    const ScanHooks& hooks = {});

}  // namespace folearn

#endif  // FOLEARN_LEARN_ERM_H_
