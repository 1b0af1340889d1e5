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
//    quantifiers iterate Neighbors(x), colour-guarded ones the set bits of
//    the graph's colour bitset (Graph::ColorWords), closed subformulas hit
//    the memo — and only the verdict is observable.
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
  EvalStats* stats_ = nullptr;
  bool counting_ = false;
};

}  // namespace folearn

#endif  // FOLEARN_MC_COMPILED_EVAL_H_
