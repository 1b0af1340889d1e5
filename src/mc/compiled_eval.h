#ifndef FOLEARN_MC_COMPILED_EVAL_H_
#define FOLEARN_MC_COMPILED_EVAL_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "mc/compiler.h"
#include "mc/evaluator.h"

namespace folearn {

// Executes a CompiledFormula plan against one graph by walking its node
// tree. This is not a selectable engine: VmEvaluator (mc/vm.h) owns one as
// the fallback for plans LowerPlan rejects (MSO set quantifiers, oversized
// programs) and for graphs missing a fast-lane guard colour.
//
// Construction binds the
// plan to the graph: colour names resolve to ColorIds once, the slot
// environment and the MSO subset buffers are allocated once, and the memo
// table for sentence-valued subformulas starts empty. One evaluator then
// serves any number of Eval calls — the intended pattern for training-error
// loops and batched query answering (compile once, evaluate per tuple).
//
// Two lanes:
//  * Ungoverned and unstatted calls take the fast lane — edge-guarded
//    quantifiers iterate Neighbors(x), colour-guarded ones the colour
//    class, closed subformulas hit the memo — and only the verdict is
//    observable.
//  * With a governor or an EvalStats sink attached the evaluator mirrors
//    the interpreter checkpoint for checkpoint and counter for counter
//    (full vertex scans, no memo reads or writes), so work accounting and
//    fault-injection cut points are byte-identical to mc/evaluator.cc.
//
// Not thread-safe: one evaluator per thread (plans may be shared freely).
class CompiledEvaluator {
 public:
  // `plan` and `graph` must outlive the evaluator. `options.governor`, if
  // set, is checkpointed by every Eval call.
  CompiledEvaluator(const CompiledFormula& plan, const Graph& graph,
                    const EvalOptions& options = {});

  // Decides G ⊨ φ(tuple) with free slot i ↦ tuple[i]; tuple must have
  // exactly plan.free_vars().size() entries. With `stats`, counters
  // accumulate exactly like the interpreter's and `stats->status` is set
  // from the governor on return.
  bool Eval(std::span<const Vertex> tuple, EvalStats* stats = nullptr);

  // Drops all memoized subformula values (needed only if the bound graph
  // is mutated between calls).
  void ResetMemo();

  const CompiledFormula& plan() const { return plan_; }

 private:
  bool EvalNode(int32_t id);
  bool EvalRaw(const CompiledNode& node);
  bool EvalConjuncts(const CompiledNode& node);
  bool EvalDisjuncts(const CompiledNode& node);
  bool EvalBlock(const CompiledNode& node, int32_t level);
  bool EvalGuarded(const CompiledNode& node);
  bool EvalCountExists(const CompiledNode& node);
  bool EvalSetQuantifier(const CompiledNode& node);
  // Vertices of the plan's colour `index`, computed on first use and kept
  // until ResetMemo (colour-guarded quantifiers scan this instead of V(G)).
  // Under EvalOptions::cache_bytes, lists past the budget survive only the
  // current Eval call (see DropTransientColorMembers).
  const std::vector<Vertex>& ColorMembers(int32_t index);
  // Frees colour-member lists marked transient by the byte budget. Called
  // between Eval calls only: during a call, enclosing quantifier frames may
  // hold live spans into the lists.
  void DropTransientColorMembers();

  void CountAtom() {
    if (stats_ != nullptr) ++stats_->atom_evaluations;
  }
  void CountBranch() {
    if (stats_ != nullptr) ++stats_->quantifier_branches;
  }

  const CompiledFormula& plan_;
  const Graph& graph_;
  EvalOptions options_;
  std::vector<ColorId> colors_;  // per plan colour name; -1 = unresolved
  std::vector<Vertex> env_;
  std::vector<std::vector<bool>> set_buffers_;
  std::vector<const std::vector<bool>*> set_env_;
  std::vector<int8_t> memo_;  // -1 unknown, else the cached verdict
  std::vector<std::vector<Vertex>> color_members_;  // per plan colour
  std::vector<bool> color_members_ready_;
  // Byte budget bookkeeping (EvalOptions::cache_bytes): payload bytes held,
  // slots to free at the next call boundary, and eviction counters
  // (cumulative / last value surfaced into an EvalStats sink).
  int64_t color_member_bytes_ = 0;
  std::vector<int32_t> color_members_transient_;
  int64_t cache_evictions_ = 0;
  int64_t reported_evictions_ = 0;
  EvalStats* stats_ = nullptr;
  bool counting_ = false;
};

}  // namespace folearn

#endif  // FOLEARN_MC_COMPILED_EVAL_H_
