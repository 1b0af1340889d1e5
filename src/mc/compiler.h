#ifndef FOLEARN_MC_COMPILER_H_
#define FOLEARN_MC_COMPILER_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "fo/formula.h"

namespace folearn {

// Compilation of formulas into flat, slot-indexed evaluation plans.
//
// The recursive evaluator in mc/evaluator.h resolves every variable
// occurrence by a reverse linear scan over a name→vertex binding stack and
// chases shared_ptr children on every step. Since the learners evaluate a
// handful of distinct formula shapes millions of times (one per candidate ×
// training example × quantifier branch), the classic query-plan split pays
// off: `CompileFormula` resolves all variable occurrences to integer slots
// once (de Bruijn-style frame indices), flattens the DAG into a contiguous
// node array, and marks the specialisable hot shapes; `LowerPlan`
// (mc/bytecode.h) then turns the plan into bytecode that the VM
// (mc/vm.h) runs over a plain `Vertex env[]` with no string handling at
// all.
//
// Specialisations emitted by the compiler:
//  * guarded quantifiers — a guard atom anywhere in the body's top-level
//    connective list shrinks the quantifier's domain: an equality guard
//    ∃y (… ∧ y=x ∧ …) / ∀y (… ∨ y≠x ∨ …) checks the single vertex x, an
//    edge guard ∃y (… ∧ E(x,y) ∧ …) / ∀y (… ∨ ¬E(x,y) ∨ …) iterates
//    Neighbors(x), and a colour guard ∃y (… ∧ Red(y) ∧ …) /
//    ∀y (… ∨ ¬Red(y) ∨ …) iterates the colour class — preferred in that
//    order (when ungoverned; the governed path keeps the full scan and
//    replays the interpreter's left-to-right short-circuit so work
//    accounting stays byte-identical);
//  * quantifier blocks — maximal runs of same-kind quantifiers fuse into a
//    single loop nest over consecutive slots (guard specialisation takes
//    precedence at each level).
//
// Subformulas are deduplicated by (node identity, slot environment), so a
// shared DAG node reached under two different quantifier scopes compiles
// twice, while sentence-valued (closed) subformulas always collapse to one
// plan node and get a memo slot: the evaluator computes them once per
// graph.
//
// MSO set variables get their own slot space: set slot i is one word-sized
// VM register holding a subset of the (at most kMaxMsoOrder) vertices.
//
// The lowering inlines every occurrence of a shared node, so the bytecode
// grows with the plan's tree expansion, not its DAG. The compiler bounds
// the instructions that expansion lowers to; a plan whose bound exceeds
// kMaxLoweredInstructions keeps its source formula and runs on the
// interpreter instead of the VM.

// Cap on a plan's bound on lowered instructions: each bytecode program
// stays within it (plus its two halts). The bound takes the larger of the
// two programs' costs per node, so it is close to the real size: a
// learned rank-2 model of 3.3 MB text (315,723 plan nodes) bounds to
// 290,844 and lowers to 156,269 (fast) and 207,726 (counting)
// instructions.
inline constexpr int64_t kMaxLoweredInstructions = int64_t{1} << 20;

// Opcodes of the compiled plan.
enum class COp : uint8_t {
  kTrue,
  kFalse,
  kEdge,           // E(env[a], env[b])
  kEquals,         // env[a] == env[b]
  kColor,          // colour_names[b](env[a])
  kNot,            // ¬ child
  kAnd,            // ∧ children
  kOr,             // ∨ children
  kExists,         // fused block: slots [a, a+b), body = child
  kForall,         // fused block: slots [a, a+b), body = child
  kGuardedExists,  // ∃ env[a] ∈ N(env[b]): ∧ children (full conjunct list;
                   // children[threshold] is the edge guard)
  kGuardedForall,  // ∀ env[a] ∈ N(env[b]): ∨ children (full disjunct list;
                   // children[threshold] is the ¬edge guard)
  kColorGuardedExists,  // ∃ env[a] with colour_names[b](env[a]): ∧ children
                        // (children[threshold] is the colour guard)
  kColorGuardedForall,  // ∀ env[a]: ∨ children; children[threshold] is the
                        // ¬colour_names[b] guard
  kEqGuardedExists,     // ∃ env[a] = env[b]: ∧ children — evaluates the
                        // body at the single vertex env[b]
  kEqGuardedForall,     // ∀ env[a]: ∨ children with ¬(env[a] = env[b])
                        // guard — likewise a single-vertex body check
  kCountExists,    // ∃^{≥threshold} env[a], body = child
  kSetMember,      // env[a] ∈ set slot b (b < 0: free set variable)
  kExistsSet,      // set slot a, body = child
  kForallSet,      // set slot a, body = child
};

// One flattened plan node. Field meaning depends on `op` (see COp): `a`/`b`
// are slot indices (or the colour-table index for kColor, the fused block
// length for kExists/kForall), single-child ops use `child`, n-ary ops use
// the [first_child, first_child + num_children) window into the plan's
// child-id array.
struct CompiledNode {
  COp op = COp::kTrue;
  int32_t a = -1;
  int32_t b = -1;
  int32_t child = -1;
  int32_t first_child = 0;
  int32_t num_children = 0;
  int32_t threshold = 0;
  // Memo-table slot for sentence-valued (closed) subformulas, -1 otherwise.
  int32_t memo_id = -1;
  // Bitmask of the free-variable slots (< 64) read anywhere beneath this
  // node; bound slots are excluded. A zero mask together with no free set
  // variables is what makes a node memoizable.
  uint64_t free_mask = 0;
};

// An executable evaluation plan: the flattened node array plus the tables
// the evaluator needs (free-variable order, colour names for lazy per-graph
// resolution, set-slot names for diagnostics). Immutable after compilation;
// one plan may be shared by any number of evaluators (and graphs).
class CompiledFormula {
 public:
  const std::vector<CompiledNode>& nodes() const { return nodes_; }
  int32_t root() const { return root_; }

  // Child-node ids of an n-ary node.
  std::span<const int32_t> children(const CompiledNode& node) const {
    return {child_ids_.data() + node.first_child,
            static_cast<size_t>(node.num_children)};
  }

  // The free-variable order fixed at compilation: slot i ↦ free_vars()[i].
  const std::vector<std::string>& free_vars() const { return free_vars_; }
  // Free slots actually read by some atom (unused vars are never
  // validated, matching the interpreter's lazy semantics).
  const std::vector<int32_t>& used_free_slots() const {
    return used_free_slots_;
  }

  // Colour names referenced by kColor nodes (resolved per graph by the
  // evaluator, so vocabulary expansions keep working).
  const std::vector<std::string>& color_names() const { return color_names_; }

  // Names of bound set slots and of free (never-bound) set variables.
  const std::vector<std::string>& set_slot_names() const {
    return set_slot_names_;
  }
  const std::vector<std::string>& free_set_names() const {
    return free_set_names_;
  }

  int32_t env_size() const { return env_size_; }
  int32_t num_set_slots() const {
    return static_cast<int32_t>(set_slot_names_.size());
  }
  int32_t num_memo_slots() const { return num_memo_slots_; }

  // Specialisation diagnostics (asserted on by the differential tests).
  int32_t guarded_nodes() const { return guarded_nodes_; }
  int32_t fused_levels() const { return fused_levels_; }

  // The compiled formula, kept only when the plan's instruction bound
  // exceeds kMaxLoweredInstructions (nullptr otherwise): LowerPlan leaves
  // such a plan unsupported and the VM evaluates this formula on the
  // interpreter.
  const FormulaRef& source() const { return source_; }

 private:
  friend class FormulaCompiler;

  std::vector<CompiledNode> nodes_;
  std::vector<int32_t> child_ids_;
  int32_t root_ = -1;
  std::vector<std::string> free_vars_;
  std::vector<int32_t> used_free_slots_;
  std::vector<std::string> color_names_;
  std::vector<std::string> set_slot_names_;
  std::vector<std::string> free_set_names_;
  int32_t env_size_ = 0;
  int32_t num_memo_slots_ = 0;
  int32_t guarded_nodes_ = 0;
  int32_t fused_levels_ = 0;
  FormulaRef source_;
};

// Compiles `formula` against the frame layout free_var_order[i] ↦ slot i
// (later duplicates shadow earlier ones, like sequential Assignment::Bind).
// Every free element variable of the formula must appear in the order;
// unknown variables CHECK-fail here with the interpreter's "unbound
// variable" wording (the interpreter defers that failure until the atom is
// reached — the compiler front-loads it). Free set variables compile to a
// plan that CHECK-fails only if the membership atom actually executes,
// matching the interpreter exactly.
CompiledFormula CompileFormula(const FormulaRef& formula,
                               std::span<const std::string> free_var_order);

}  // namespace folearn

#endif  // FOLEARN_MC_COMPILER_H_
