#include "learn/erm.h"

#include <algorithm>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "learn/search_state.h"
#include "mc/bytecode.h"
#include "mc/compiler.h"
#include "mc/vm.h"
#include "util/combinatorics.h"
#include "util/parallel.h"

namespace folearn {

namespace {

// The per-type majority vote for one parameter tuple w̄. `type_of(i,
// v̄_i·w̄)` supplies the local type of example i joined with w̄, interned
// in `registry`; everything else — governor checkpoints, label counting,
// the vote and the error — is the same for every caller.
template <typename TypeOf>
ErmResult MajorityVote(const TrainingSet& examples,
                       std::span<const Vertex> parameters,
                       const ErmOptions& options,
                       std::shared_ptr<TypeRegistry> registry,
                       TypeOf&& type_of) {
  ErmResult result;
  result.parameter_tuples_tried = 1;
  TypeSetHypothesis& h = result.hypothesis;
  h.rank = options.rank;
  h.radius = options.EffectiveRadius();
  h.parameters.assign(parameters.begin(), parameters.end());
  h.registry = std::move(registry);
  h.k = examples.empty() ? 0 : static_cast<int>(examples[0].tuple.size());

  // Count labels per local type of v̄w̄. Checkpoint per type computation;
  // an interrupted run majority-votes over the examples seen so far.
  std::map<TypeId, std::pair<int64_t, int64_t>> counts;  // type → (pos, neg)
  int64_t seen = 0;
  std::vector<Vertex> combined;
  combined.reserve(static_cast<size_t>(h.k) + parameters.size());
  for (size_t i = 0; i < examples.size(); ++i) {
    const LabeledExample& example = examples[i];
    if (!GovernorCheckpoint(options.governor)) break;
    FOLEARN_CHECK_EQ(static_cast<int>(example.tuple.size()), h.k);
    combined.assign(example.tuple.begin(), example.tuple.end());
    combined.insert(combined.end(), parameters.begin(), parameters.end());
    const TypeId type = type_of(i, std::span<const Vertex>(combined));
    ++seen;
    auto& entry = counts[type];
    if (example.label) {
      ++entry.first;
    } else {
      ++entry.second;
    }
  }
  result.status = GovernorStatus(options.governor);
  result.distinct_types_seen = static_cast<int64_t>(counts.size());

  int64_t wrong = 0;
  for (const auto& [type, count] : counts) {
    if (count.first > count.second) {
      h.accepted.push_back(type);  // majority-positive: accept
      wrong += count.second;
    } else {
      wrong += count.first;
    }
  }
  // counts is an ordered map, so `accepted` is already sorted.
  if (seen > 0) {
    result.training_error =
        static_cast<double>(wrong) / static_cast<double>(seen);
  } else {
    // Vacuously perfect on an empty training set; pessimistic when the
    // governor tripped before the first example.
    result.training_error = examples.empty() ? 0.0 : 1.0;
  }
  return result;
}

}  // namespace

ErmResult TypeMajorityErm(const Graph& graph, const TrainingSet& examples,
                          std::span<const Vertex> parameters,
                          const ErmOptions& options,
                          std::shared_ptr<TypeRegistry> registry) {
  if (registry == nullptr) {
    registry = std::make_shared<TypeRegistry>(graph.vocabulary());
  }
  TypeRegistry* types = registry.get();
  return MajorityVote(
      examples, parameters, options, std::move(registry),
      [&](size_t, std::span<const Vertex> combined) {
        return ComputeLocalType(graph, combined, options.rank,
                                options.EffectiveRadius(), types,
                                options.ball_cache);
      });
}

namespace {

// Evaluates candidate errors over the budgeted range (RunResumableScan).
// Workers share nothing mutable: each lazily builds its own registry
// shard, composer and ball cache; the governor is only polled read-only
// for deadline/cancellation. The hypotheses built here are discarded —
// only (error, index) feeds the reduction — so shard-local TypeIds never
// leak into the result. This is also what makes checkpoints tiny: no
// shard, cache, or registry state needs to survive a crash, only the scan
// frontier.
//
// Far/near split: when no entry of w̄ lies in N_{2r+1}(v̄), the r-balls
// of v̄ and w̄ are disjoint and not adjacent, so ltp(v̄w̄) is composed
// from ltp(v̄) and ltp(w̄) (TypeComposer) — each computed once per worker
// and candidate respectively — instead of from the ball of v̄w̄. Near
// pairs are computed directly. Composition is exact, so each candidate's
// error is the one TypeMajorityErm reports for it.
ScanOutcome RunComposedScan(
    const Graph& graph, const TrainingSet& examples, int64_t num_candidates,
    const std::function<std::vector<Vertex>(int64_t)>& parameters_at,
    const ErmOptions& options, int cap, std::string_view learner,
    bool early_stop, int64_t first_item_discount) {
  const int64_t m = static_cast<int64_t>(examples.size());
  const int workers = EffectiveThreads(options.threads);
  const int radius = options.EffectiveRadius();
  const int k = m == 0 ? 0 : static_cast<int>(examples[0].tuple.size());
  // N_{2r+1}(v̄_i) per example, sorted: read-only, shared by every worker.
  // No distance exceeds the order, so the radius is clamped to it.
  const int near_radius = static_cast<int>(
      std::min<int64_t>(2 * int64_t{radius} + 1, graph.order()));
  std::vector<std::vector<Vertex>> near(m);
  int64_t near_bytes = 0;
  BallCollector collector(graph);
  for (int64_t i = 0; i < m; ++i) {
    const std::span<const Vertex> ball =
        collector.Collect(examples[i].tuple, near_radius);
    near[i].assign(ball.begin(), ball.end());
    near_bytes += static_cast<int64_t>(near[i].capacity() * sizeof(Vertex));
  }
  if (options.mem_budget != nullptr) options.mem_budget->Charge(near_bytes);

  struct Worker {
    std::shared_ptr<TypeRegistry> shard;
    std::unique_ptr<TypeComposer> composer;
    std::unique_ptr<BallCache> owned_cache;
    BallCache* cache = nullptr;
    std::vector<TypeId> example_types;  // ltp(v̄_i) in the shard, lazily
  };
  std::vector<Worker> state(workers);
  // The scan charges the governor per candidate; the vote runs ungoverned.
  ErmOptions shard_options = options;
  shard_options.governor = nullptr;

  ScanSpec spec;
  spec.n_items = num_candidates;
  spec.unit = m + 1;
  spec.first_item_discount = first_item_discount;
  spec.early_stop = early_stop;
  spec.threads = workers;
  spec.chunk_size = 8;
  spec.governor = options.governor;
  spec.checkpointer = options.scan.checkpointer;
  spec.resume = options.scan.resume;
  spec.learner = std::string(learner);
  spec.fingerprint = options.scan.fingerprint;
  ScanOutcome outcome = RunResumableScan(
      spec, [&](int64_t index, int worker) -> std::pair<double, bool> {
        Worker& w = state[worker];
        if (w.shard == nullptr) {
          w.shard = std::make_shared<TypeRegistry>(graph.vocabulary(), cap);
          w.composer = std::make_unique<TypeComposer>(w.shard.get());
          if (workers == 1 && options.ball_cache != nullptr) {
            // A one-worker sweep runs on the caller's thread, so it may
            // use the caller's (warm) cache; caching is transparent.
            w.cache = options.ball_cache;
          } else {
            w.owned_cache =
                std::make_unique<BallCache>(graph, options.cache_bytes);
            w.cache = w.owned_cache.get();
          }
          if (options.mem_budget != nullptr) {
            // Shard accounting: worker-local registries, composers and
            // caches charge the caller's budget while they live (they are
            // torn down before the sweep returns, releasing their bytes).
            w.shard->set_mem_account(options.mem_budget);
            w.composer->set_mem_account(options.mem_budget);
            if (w.owned_cache != nullptr) {
              w.owned_cache->set_mem_account(options.mem_budget);
            }
          }
          w.example_types.assign(static_cast<size_t>(m), kNoType);
        }
        const std::vector<Vertex> parameters = parameters_at(index);
        const int ell = static_cast<int>(parameters.size());
        const bool composable =
            int64_t{k} + ell + options.rank <= TypeComposer::kMaxArity;
        // Layout of v̄·w̄ for the composer: positions k…k+ℓ−1 come from w̄.
        uint64_t w_layout = 0;
        for (int j = 0; composable && j < ell; ++j) {
          w_layout |= uint64_t{1} << (k + j);
        }
        TypeRegistry* shard = w.shard.get();
        TypeId parameter_type = kNoType;  // ltp(w̄), on first far pair
        ErmResult candidate = MajorityVote(
            examples, parameters, shard_options, w.shard,
            [&](size_t i, std::span<const Vertex> combined) {
              const bool is_near =
                  !composable ||
                  std::any_of(parameters.begin(), parameters.end(),
                              [&](Vertex p) {
                                return std::binary_search(near[i].begin(),
                                                          near[i].end(), p);
                              });
              if (is_near) {
                return ComputeLocalType(graph, combined, options.rank,
                                        radius, shard, w.cache);
              }
              if (parameter_type == kNoType) {
                parameter_type = ComputeLocalType(
                    graph, parameters, options.rank, radius, shard, w.cache);
              }
              TypeId& example_type = w.example_types[i];
              if (example_type == kNoType) {
                example_type =
                    ComputeLocalType(graph, examples[i].tuple, options.rank,
                                     radius, shard, w.cache);
              }
              return w.composer->Compose(example_type, parameter_type,
                                         w_layout);
            });
        return {candidate.training_error,
                early_stop && candidate.training_error == 0.0};
      });
  state.clear();
  if (options.mem_budget != nullptr) options.mem_budget->Release(near_bytes);
  return outcome;
}

}  // namespace

ErmResult TypeMajoritySweep(
    const Graph& graph, const TrainingSet& examples, int64_t num_candidates,
    const std::function<std::vector<Vertex>(int64_t)>& parameters_at,
    const ErmOptions& options, std::shared_ptr<TypeRegistry> registry,
    std::string_view learner, bool early_stop, int64_t first_item_discount) {
  FOLEARN_CHECK_GE(num_candidates, 0);
  if (registry == nullptr) {
    registry = std::make_shared<TypeRegistry>(graph.vocabulary());
  }
  const int64_t m = static_cast<int64_t>(examples.size());
  // Sequential checkpoint cost per candidate: one outer checkpoint in the
  // scan plus one per example inside the vote.
  const int64_t unit = m + 1;
  ResourceGovernor* governor = options.governor;

  // Deterministic limits fix the number of candidates that can complete
  // before anything runs. If not even one fits, the scan is skipped and
  // candidate 0 is evaluated below, exactly as the sequential loop would
  // start it. A resumed scan always runs: its frontier and ledger live in
  // RunResumableScan.
  const int64_t allowance =
      governor == nullptr ? kNoLimit : governor->DeterministicAllowance();
  const bool fits =
      num_candidates > 0 &&
      (allowance == kNoLimit || allowance + first_item_discount >= unit);
  ScanOutcome outcome;
  if (options.scan.resume != nullptr || fits) {
    outcome = RunComposedScan(graph, examples, num_candidates, parameters_at,
                              options, registry->cap(), learner, early_stop,
                              first_item_discount);
  }

  ErmResult best;
  int64_t tried = outcome.tried;
  if (outcome.winner >= 0) {
    // Re-evaluate only the winner on the caller's registry, ungoverned
    // (its work is already charged): TypeIds and serialised bytes come out
    // exactly as in a single-threaded run that interned only the winning
    // candidate, independent of thread count.
    ErmOptions winner_options = options;
    winner_options.governor = nullptr;
    best = TypeMajorityErm(graph, examples, parameters_at(outcome.winner),
                           winner_options, registry);
  } else if (num_candidates == 0) {
    // An empty range: the vacuous (parameter-free) hypothesis.
    best = TypeMajorityErm(graph, examples, {}, options, registry);
  } else {
    // No candidate completed — none fit the allowance, or a deadline or
    // cancellation stopped the scan first. Evaluate candidate 0 governed,
    // as the sequential loop would: its outer checkpoint (waived by the
    // first-item discount) and then the vote, which keeps the examples it
    // saw before the trip.
    const bool started =
        first_item_discount == 1 || GovernorCheckpoint(governor);
    best = TypeMajorityErm(graph, examples, parameters_at(0), options,
                           registry);
    tried = std::max<int64_t>(tried, started ? 1 : 0);
  }
  best.parameter_tuples_tried = tried;
  best.status = GovernorStatus(governor);
  return best;
}

ErmResult BruteForceErm(const Graph& graph, const TrainingSet& examples,
                        int ell, const ErmOptions& options,
                        std::shared_ptr<TypeRegistry> registry,
                        bool early_stop) {
  FOLEARN_CHECK_GE(ell, 0);
  return TypeMajoritySweep(
      graph, examples, SaturatingPow(graph.order(), ell),
      [&](int64_t index) {
        std::vector<int64_t> raw = NthTuple(graph.order(), ell, index);
        return std::vector<Vertex>(raw.begin(), raw.end());
      },
      options, std::move(registry), "brute", early_stop,
      /*first_item_discount=*/0);
}

namespace {

// Per-worker compiled-plan cache for the enumeration grid: each worker
// compiles and lowers a candidate formula at most once and keeps the
// VmEvaluator (with its per-graph memo) alive across all parameter tuples
// and examples. With a byte budget (EvalOptions::cache_bytes ≥ 0) the
// oldest self-compiled plans are dropped FIFO when the estimated footprint
// exceeds it — they recompile on next use, so only speed, never results,
// depends on the budget. Prepared (caller-owned) plans are never charged
// or evicted; only their per-graph evaluators live here.
struct EnumerationPlanCache {
  std::vector<std::unique_ptr<CompiledFormula>> plans;
  std::vector<std::shared_ptr<const LoweredPlan>> lowered;
  std::vector<std::unique_ptr<VmEvaluator>> vms;
  std::vector<Vertex> env;
  std::deque<int64_t> compiled_order;  // oldest formula index at the front
  int64_t bytes = 0;
  int64_t evictions = 0;

  static int64_t PlanBytes(const CompiledFormula& plan) {
    // Nodes dominate; a flat allowance covers the evaluator's buffers.
    return static_cast<int64_t>(plan.nodes().size()) * 64 + 512;
  }

  // Budget footprint of a self-compiled entry: the plan plus its bytecode.
  int64_t EntryBytes(int64_t index) const {
    return PlanBytes(*plans[index]) + lowered[index]->bytes();
  }

  void EnforceBudget(int64_t max_bytes) {
    if (max_bytes < 0) return;
    // The entry just compiled (at the back) always survives its own call.
    while (bytes > max_bytes && compiled_order.size() > 1) {
      const int64_t oldest = compiled_order.front();
      compiled_order.pop_front();
      bytes -= EntryBytes(oldest);
      // The evaluator references the plan and bytecode: drop it first.
      vms[oldest].reset();
      lowered[oldest].reset();
      plans[oldest].reset();
      ++evictions;
    }
  }
};

// Shared implementation of the enumeration grid overloads. Exactly one of
// `formulas` / `prepared` is populated; with `prepared` the compile/lower
// step is skipped (plans are caller-owned).
EnumerationErmResult EnumerationErmGrid(
    const Graph& graph, const TrainingSet& examples, int ell,
    std::span<const FormulaRef> formulas,
    std::span<const PreparedFormula> prepared, ResourceGovernor* governor,
    int threads, const EvalOptions& eval, const ScanHooks& hooks) {
  const bool use_prepared = !prepared.empty();
  const int k = examples.empty() ? 0
                                 : static_cast<int>(examples[0].tuple.size());
  std::vector<std::string> query_vars = QueryVars(k);
  std::vector<std::string> param_vars = ParamVars(ell);
  // The grid governor is the budget; per-candidate evaluation is always
  // ungoverned (matching the TrainingError default of the PR 2 code).
  EvalOptions candidate_eval = eval;
  candidate_eval.governor = nullptr;
  const bool interpreted = candidate_eval.engine == EvalEngine::kInterpreted;
  const auto formula_at = [&](int64_t index) -> const FormulaRef& {
    return use_prepared ? prepared[index].formula : formulas[index];
  };

  // Flattened grid in scan order: index = tuple_index · |formulas| +
  // formula_index. One sequential checkpoint per grid item.
  const int64_t num_formulas =
      use_prepared ? static_cast<int64_t>(prepared.size())
                   : static_cast<int64_t>(formulas.size());
  const int64_t num_tuples = SaturatingPow(graph.order(), ell);
  const int64_t n_items =
      num_formulas == 0 ? 0 : SaturatingMul(num_tuples, num_formulas);
  std::vector<std::string> all_vars = query_vars;
  all_vars.insert(all_vars.end(), param_vars.begin(), param_vars.end());
  const int64_t m = static_cast<int64_t>(examples.size());

  ScanSpec spec;
  spec.n_items = n_items;
  spec.unit = 1;
  spec.early_stop = true;  // the sequential loop always stops at zero
  spec.threads = EffectiveThreads(threads);
  spec.chunk_size = 64;
  spec.governor = governor;
  spec.checkpointer = hooks.checkpointer;
  spec.resume = hooks.resume;
  spec.learner = "enumeration";
  spec.fingerprint = hooks.fingerprint;
  std::vector<EnumerationPlanCache> plan_caches(spec.threads);
  // One dense adjacency index for the whole grid: every worker's
  // VmEvaluators share it read-only (per-evaluator auto-builds would
  // multiply its footprint by the candidate count).
  const std::shared_ptr<const VmGraphIndex> vm_index =
      interpreted ? nullptr : VmGraphIndex::Build(graph);
  ScanOutcome outcome = RunResumableScan(
      spec, [&](int64_t index, int worker) -> std::pair<double, bool> {
        const int64_t formula_index = index % num_formulas;
        std::vector<int64_t> raw =
            NthTuple(graph.order(), ell, index / num_formulas);
        if (interpreted) {
          std::vector<Vertex> parameters(raw.begin(), raw.end());
          Hypothesis candidate{formula_at(formula_index), query_vars,
                               param_vars, parameters};
          double error =
              TrainingError(graph, candidate, examples, candidate_eval);
          return {error, error == 0.0};
        }
        EnumerationPlanCache& cache = plan_caches[worker];
        if (cache.plans.empty()) {
          cache.plans.resize(num_formulas);
          cache.lowered.resize(num_formulas);
          cache.vms.resize(num_formulas);
          cache.env.resize(all_vars.size());
        }
        if (cache.vms[formula_index] == nullptr) {
          const CompiledFormula* plan;
          if (use_prepared) {
            plan = prepared[formula_index].plan.get();
            cache.lowered[formula_index] = prepared[formula_index].lowered;
          } else {
            cache.plans[formula_index] = std::make_unique<CompiledFormula>(
                CompileFormula(formula_at(formula_index), all_vars));
            plan = cache.plans[formula_index].get();
            cache.lowered[formula_index] =
                std::make_shared<const LoweredPlan>(LowerPlan(*plan));
            cache.compiled_order.push_back(formula_index);
            cache.bytes += cache.EntryBytes(formula_index);
            cache.EnforceBudget(candidate_eval.cache_bytes);
          }
          cache.vms[formula_index] = std::make_unique<VmEvaluator>(
              *plan, *cache.lowered[formula_index], graph, candidate_eval,
              vm_index);
        }
        for (int j = 0; j < ell; ++j) {
          cache.env[k + j] = static_cast<Vertex>(raw[j]);
        }
        VmEvaluator& evaluator = *cache.vms[formula_index];
        int64_t wrong = 0;
        for (const LabeledExample& example : examples) {
          FOLEARN_CHECK_EQ(static_cast<int>(example.tuple.size()), k);
          std::copy(example.tuple.begin(), example.tuple.end(),
                    cache.env.begin());
          if (evaluator.Eval(cache.env) != example.label) ++wrong;
        }
        double error =
            m == 0 ? 0.0
                   : static_cast<double>(wrong) / static_cast<double>(m);
        return {error, error == 0.0};
      });

  EnumerationErmResult best;
  best.formulas_tried = outcome.tried;
  for (const EnumerationPlanCache& cache : plan_caches) {
    best.plan_cache_evictions += cache.evictions;
  }
  if (outcome.winner >= 0) {
    std::vector<int64_t> raw =
        NthTuple(graph.order(), ell, outcome.winner / num_formulas);
    std::vector<Vertex> parameters(raw.begin(), raw.end());
    best.hypothesis = Hypothesis{formula_at(outcome.winner % num_formulas),
                                 query_vars, param_vars, parameters};
    best.training_error = outcome.best_error;
  }
  best.status = GovernorStatus(governor);
  return best;
}

}  // namespace

EnumerationErmResult EnumerationErm(const Graph& graph,
                                    const TrainingSet& examples, int ell,
                                    const EnumerationOptions& enumeration,
                                    ResourceGovernor* governor, int threads,
                                    const EvalOptions& eval,
                                    const ScanHooks& hooks) {
  const int k = examples.empty() ? 0
                                 : static_cast<int>(examples[0].tuple.size());
  EnumerationOptions full_options = enumeration;
  full_options.free_variables = QueryVars(k);
  std::vector<std::string> param_vars = ParamVars(ell);
  full_options.free_variables.insert(full_options.free_variables.end(),
                                     param_vars.begin(), param_vars.end());
  std::vector<FormulaRef> formulas = EnumerateFormulas(full_options);
  return EnumerationErm(graph, examples, ell, formulas, governor, threads,
                        eval, hooks);
}

EnumerationErmResult EnumerationErm(const Graph& graph,
                                    const TrainingSet& examples, int ell,
                                    std::span<const FormulaRef> formulas,
                                    ResourceGovernor* governor, int threads,
                                    const EvalOptions& eval,
                                    const ScanHooks& hooks) {
  return EnumerationErmGrid(graph, examples, ell, formulas, {}, governor,
                            threads, eval, hooks);
}

EnumerationErmResult EnumerationErm(const Graph& graph,
                                    const TrainingSet& examples, int ell,
                                    std::span<const PreparedFormula> formulas,
                                    ResourceGovernor* governor, int threads,
                                    const EvalOptions& eval,
                                    const ScanHooks& hooks) {
  if (formulas.empty()) {
    return EnumerationErmGrid(graph, examples, ell, {}, {}, governor,
                              threads, eval, hooks);
  }
  return EnumerationErmGrid(graph, examples, ell, {}, formulas, governor,
                            threads, eval, hooks);
}

std::vector<PreparedFormula> PrepareFormulas(
    std::span<const FormulaRef> formulas, int k, int ell) {
  std::vector<std::string> all_vars = QueryVars(k);
  std::vector<std::string> param_vars = ParamVars(ell);
  all_vars.insert(all_vars.end(), param_vars.begin(), param_vars.end());
  std::vector<PreparedFormula> prepared;
  prepared.reserve(formulas.size());
  for (const FormulaRef& formula : formulas) {
    PreparedFormula p;
    p.formula = formula;
    p.plan = std::make_shared<const CompiledFormula>(
        CompileFormula(formula, all_vars));
    p.lowered = std::make_shared<const LoweredPlan>(LowerPlan(*p.plan));
    prepared.push_back(std::move(p));
  }
  return prepared;
}

}  // namespace folearn
