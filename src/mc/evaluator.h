#ifndef FOLEARN_MC_EVALUATOR_H_
#define FOLEARN_MC_EVALUATOR_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "fo/formula.h"
#include "graph/graph.h"
#include "util/governor.h"

namespace folearn {

// A variable assignment for formula evaluation. Bindings form a stack so
// quantifier scoping (shadowing) works naturally.
//
// Internally each distinct name owns its own value stack (evaluation
// touches a handful of names, so the name list is a small vector), and the
// index of the most recently touched name is cached: the common pattern —
// a quantifier loop binding/reading/unbinding the same variable — runs
// without any string comparison after the first access.
class Assignment {
 public:
  Assignment() = default;

  // Builds an assignment binding vars[i] ↦ values[i].
  Assignment(std::span<const std::string> vars,
             std::span<const Vertex> values);

  void Bind(const std::string& var, Vertex value) {
    FindOrCreate(var).values.push_back(value);
  }

  // Overwrites the innermost binding of `var` (which must exist) — the
  // re-binding idiom of batched evaluation loops.
  void Rebind(const std::string& var, Vertex value);

  // Pops the most recent binding of `var`.
  void Unbind(const std::string& var);

  // Innermost binding of `var`, if any.
  std::optional<Vertex> Lookup(const std::string& var) const;

  // --- MSO set bindings (set variables live in their own namespace) ------
  using SetValue = std::shared_ptr<const std::vector<bool>>;

  void BindSet(const std::string& set_var, SetValue members) {
    FindOrCreateSet(set_var).values.push_back(std::move(members));
  }
  void UnbindSet(const std::string& set_var);
  // Innermost binding of `set_var`, or nullptr.
  SetValue LookupSet(const std::string& set_var) const;

 private:
  // Per-name binding stack. Emptied stacks stay in place so repeated
  // bind/unbind cycles reuse their capacity and keep the cache index valid.
  struct VarStack {
    std::string name;
    std::vector<Vertex> values;
  };
  struct SetStack {
    std::string name;
    std::vector<SetValue> values;
  };

  VarStack& FindOrCreate(const std::string& var);
  const VarStack* Find(const std::string& var) const;
  SetStack& FindOrCreateSet(const std::string& set_var);
  const SetStack* FindSet(const std::string& set_var) const;

  std::vector<VarStack> stacks_;
  std::vector<SetStack> set_stacks_;
  // Index into stacks_ of the most recently accessed name.
  mutable size_t last_hit_ = 0;
};

// Which engine executes EvaluateSentence/EvaluateQuery/EvaluateOnTuples and
// everything layered on them. Both produce byte-identical verdicts,
// EvalStats counters, and governor cut points (enforced by the
// VM-vs-interpreter differential grid in compiled_vs_interpreted_test);
// they differ only in speed:
//  * kVm — plans (mc/compiler.h) are lowered to register bytecode
//    (mc/bytecode.h) run by a threaded-dispatch VM (mc/vm.h). The default
//    and the fast path.
//  * kInterpreted — the recursive reference interpreter, the oracle the
//    VM is checked against.
enum class EvalEngine : uint8_t {
  kVm,
  kInterpreted,
};

// CLI-facing engine names: "vm", "interpreted".
const char* EvalEngineName(EvalEngine engine);
// Inverse of EvalEngineName; nullopt for unknown names.
std::optional<EvalEngine> ParseEvalEngine(const std::string& name);

// Optional instrumentation for the evaluation experiments (E6).
struct EvalStats {
  int64_t atom_evaluations = 0;
  int64_t quantifier_branches = 0;
  // Wall-clock split of the VM path: plan construction vs plan
  // execution, accumulated across calls like the counters above. Both stay
  // zero on the interpreted path (and when no stats sink is attached the
  // clock is never read at all).
  double compile_ms = 0.0;
  double eval_ms = 0.0;
  // Finer-grained split: bytecode lowering (part of plan construction,
  // amortized across calls when plans are cached) vs bytecode execution
  // (also included in eval_ms). Zero on the interpreter.
  double lower_ms = 0.0;
  double exec_ms = 0.0;
  // Per-opcode dispatch tallies from the VM's counting lane, indexed by
  // VmOp (mc/bytecode.h; names via VmOpName). Empty until a VM evaluation
  // ran with this sink; sized kNumVmOps afterwards.
  std::vector<int64_t> vm_op_dispatches;
  // kComplete: the returned truth value is exact. Otherwise the governor
  // tripped mid-evaluation and the returned value is unspecified (the
  // recursion unwound early, possibly under a negation).
  RunStatus status = RunStatus::kComplete;
};

struct EvalOptions {
  // If true, colour atoms naming colours absent from the graph's vocabulary
  // evaluate to false (used after vocabulary-erasing transformations); if
  // false, such atoms CHECK-fail — the safer default for catching bugs.
  bool missing_color_is_false = false;
  // Engine for EvaluateSentence/EvaluateQuery/EvaluateOnTuples and
  // everything layered on them (training error, dataset labelling,
  // enumeration ERM). Verdicts, work counts, and governor cut points are
  // identical across engines; they differ only in speed.
  EvalEngine engine = EvalEngine::kVm;
  // Optional resource governor (nullptr = ungoverned). Work unit: one
  // quantifier branch (one vertex binding or one MSO subset). On a trip the
  // evaluation unwinds immediately; the returned bool is then unspecified —
  // check `stats->status` or the governor itself.
  ResourceGovernor* governor = nullptr;
};

// Largest structure MSO set quantification runs on: the 2^n subsets of
// a structure this size fit one uint64_t each (the VM's set registers),
// and enumerating them is the whole cost. Both engines CHECK it; the
// request core (service/request.h) refuses larger graphs up front.
inline constexpr int kMaxMsoOrder = 22;

// The FO-MC substrate (paper §4): decides G ⊨ φ under `assignment` by the
// standard recursive semantics. All free variables of φ must be bound.
// Cost O(n^q · |φ|) — XP in the quantifier rank; this is the library's
// stand-in for an FPT model checker (see DESIGN.md §4 for the
// substitution rationale). Graphs must be non-empty when a quantifier is
// evaluated (finite-model-theory convention: no empty structures).
//
// MSO: set quantifiers are evaluated by enumerating all 2^n subsets —
// structures up to kMaxMsoOrder vertices only (CHECK-enforced).
//
// This entry point always runs the recursive interpreter: it is the
// reference oracle the VM (mc/compiler.h, mc/vm.h) is differentially
// tested against. The sentence/query/tuple-batch helpers below run
// `options.engine`.
bool Evaluate(const Graph& graph, const FormulaRef& formula,
              const Assignment& assignment, const EvalOptions& options = {},
              EvalStats* stats = nullptr);

// G ⊨ φ for a sentence φ (no free variables), on `options.engine`.
bool EvaluateSentence(const Graph& graph, const FormulaRef& sentence,
                      const EvalOptions& options = {},
                      EvalStats* stats = nullptr);

// G ⊨ φ(v̄) binding vars[i] ↦ tuple[i], on `options.engine`.
bool EvaluateQuery(const Graph& graph, const FormulaRef& formula,
                   std::span<const std::string> vars,
                   std::span<const Vertex> tuple,
                   const EvalOptions& options = {},
                   EvalStats* stats = nullptr);

// Evaluates φ(x1, …, xk) on every k-tuple in `tuples` (query answering).
// On the VM one plan is compiled, lowered, and reused across all tuples;
// the interpreter likewise builds its assignment once and rebinds per
// tuple.
std::vector<bool> EvaluateOnTuples(
    const Graph& graph, const FormulaRef& formula,
    std::span<const std::string> vars,
    const std::vector<std::vector<Vertex>>& tuples,
    const EvalOptions& options = {}, EvalStats* stats = nullptr);

}  // namespace folearn

#endif  // FOLEARN_MC_EVALUATOR_H_
