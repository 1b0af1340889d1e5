#ifndef FOLEARN_MC_COMPILED_EVAL_H_
#define FOLEARN_MC_COMPILED_EVAL_H_

#include "mc/bytecode.h"
#include "mc/vm.h"

namespace folearn {

// Deprecated shim, kept while perfbench/replay.cc still names it: lowers
// `plan` and runs it on the VM. Use LowerPlan + VmEvaluator directly.
class CompiledEvaluator {
 public:
  CompiledEvaluator(const CompiledFormula& plan, const Graph& graph,
                    const EvalOptions& options = {})
      : lowered_(LowerPlan(plan)), vm_(plan, lowered_, graph, options) {}
  CompiledEvaluator(const CompiledEvaluator&) = delete;
  CompiledEvaluator& operator=(const CompiledEvaluator&) = delete;

  bool Eval(std::span<const Vertex> tuple, EvalStats* stats = nullptr) {
    return vm_.Eval(tuple, stats);
  }

 private:
  LoweredPlan lowered_;
  VmEvaluator vm_;
};

}  // namespace folearn

#endif  // FOLEARN_MC_COMPILED_EVAL_H_
