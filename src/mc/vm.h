#ifndef FOLEARN_MC_VM_H_
#define FOLEARN_MC_VM_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "mc/bytecode.h"
#include "mc/compiler.h"
#include "mc/evaluator.h"

// Dispatch strategy for the VM's inner loop: computed goto (one indirect
// branch per handler, the branch predictor sees per-opcode history) under
// GCC/Clang, a plain switch loop everywhere else or when the portable
// fallback is forced with -DFOLEARN_VM_SWITCH_DISPATCH=ON. Both paths are
// byte-identical in behaviour (CI builds and tests the switch leg).
#if !defined(FOLEARN_VM_SWITCH_DISPATCH) && \
    (defined(__GNUC__) || defined(__clang__))
#define FOLEARN_VM_COMPUTED_GOTO 1
#else
#define FOLEARN_VM_COMPUTED_GOTO 0
#endif

namespace folearn {

// Dense bit-matrix adjacency index: one row of ⌈order/64⌉ words per
// vertex, so an edge atom is a single unchecked bit test instead of
// Graph::HasEdge's bounds-checked binary search — the VM validates every
// vertex once at bind/scan time, so the per-atom checks are pure
// overhead. Rows share Graph::ColorWords' word layout, so quantifier
// bodies combine adjacency rows with the graph's own colour bitsets.
// Immutable after Build; share one instance across every evaluator bound
// to the same graph (the enumeration-ERM grid keeps thousands alive at
// once — per-evaluator copies would multiply the O(order²/8) footprint by
// the candidate count).
struct VmGraphIndex {
  int32_t order = 0;
  int32_t stride = 0;           // uint64 words per row
  std::vector<uint64_t> bits;   // order × stride, row-major

  // Orders above this would cost > 32 MiB; Build then returns nullptr and
  // the VM keeps using Graph::HasEdge (still correct, just slower).
  static constexpr int32_t kMaxOrder = 1 << 14;
  // VmEvaluator builds a private index this large on its own when the
  // caller does not pass a shared one (≤ 2 MiB; cheap for a single
  // evaluator, wasteful if the caller meant to share).
  static constexpr int32_t kAutoBuildOrder = 1 << 12;

  static std::shared_ptr<const VmGraphIndex> Build(const Graph& graph);

  bool Test(Vertex u, Vertex v) const {
    return (bits[static_cast<size_t>(u) * stride + (v >> 6)] >>
            (v & 63)) & 1;
  }

  const uint64_t* AdjacencyRow(Vertex v) const {
    return bits.data() + static_cast<size_t>(v) * stride;
  }
  // All-ones mask for the last word of a row (rows keep the bits past
  // `order` zero; complements must re-apply this).
  uint64_t TailMask() const {
    const int rem = order & 63;
    return rem == 0 ? ~uint64_t{0} : (uint64_t{1} << rem) - 1;
  }
};

// Executes a lowered bytecode plan (mc/bytecode.h) against one graph: the
// library's fast evaluation engine (EvalEngine::kVm). Construction binds
// plan + bytecode to the graph (colour names resolve once, buffers
// allocate once), then Eval serves any number of tuples. Two lanes:
// ungoverned, unstatted calls run the `fast` program (superinstructions,
// guard domains, memos); calls with a governor or an EvalStats sink run
// the `counting` program, whose counters and governor cut points are
// byte-identical to the interpreter. Colour atoms and colour-guard scans
// read the graph's own colour bitsets (Graph::ColorWords); the evaluator
// keeps no per-colour state of its own. MSO set variables live in
// word-sized set registers (one subset of ≤ kMaxMsoOrder vertices each).
//
// A colour the graph lacks is an empty class under missing_color_is_false
// (an all-zero row, fast program included). Two cases leave the fast
// program: without that option a fast-lane guard colour the graph lacks
// runs the counting program for every call (it never reads guard domains,
// so it CHECK-fails exactly where the interpreter does), and an oversized
// plan (LowerPlan left it unsupported) runs its source formula on the
// interpreter. Verdicts never depend on which path ran.
//
// Not thread-safe: one evaluator per thread (plans and LoweredPlans may be
// shared freely).
class VmEvaluator {
 public:
  // `plan`, `lowered` (the result of LowerPlan(plan)), and `graph` must
  // outlive the evaluator. `edge_index`, when given, must have been built
  // from this graph; without one the evaluator builds its own for graphs
  // up to VmGraphIndex::kAutoBuildOrder (callers binding many evaluators
  // to one graph should Build once and share).
  VmEvaluator(const CompiledFormula& plan, const LoweredPlan& lowered,
              const Graph& graph, const EvalOptions& options = {},
              std::shared_ptr<const VmGraphIndex> edge_index = nullptr);
  // color_rows_ may point into empty_row_: a move keeps that buffer, a
  // copy would not.
  VmEvaluator(const VmEvaluator&) = delete;
  VmEvaluator& operator=(const VmEvaluator&) = delete;
  VmEvaluator(VmEvaluator&&) = default;

  // Decides G ⊨ φ(tuple) with free slot i ↦ tuple[i]; tuple must have
  // exactly plan.free_vars().size() entries. With `stats`, counters
  // accumulate exactly like the interpreter's, `stats->status` is set, and
  // the VM additionally accumulates per-opcode dispatch counts into
  // stats->vm_op_dispatches.
  bool Eval(std::span<const Vertex> tuple, EvalStats* stats = nullptr);

  const CompiledFormula& plan() const { return plan_; }
  const LoweredPlan& lowered() const { return lowered_; }
  // True when every call runs the counting program (an unresolved guard
  // colour without missing_color_is_false).
  bool counting_only() const { return counting_only_; }

 private:
  template <bool kCounting>
  bool Run(const BytecodeProgram& program, EvalStats* stats);

  // Unchecked bit-test atom primitives over the dense adjacency index and
  // the graph's raw colour bitmaps; ColorHolds keeps the interpreter's
  // lazy missing-colour semantics (CHECK or false).
  bool EdgeHolds(Vertex u, Vertex v);
  bool ColorHolds(int32_t index, Vertex v);

  // Word-parallel quantifier bodies (fast lane only; the counting lane
  // replays the interpreter instruction for instruction). BodySet fills
  // scratch_body_ with the set of scan-variable values satisfying the
  // atom run — colour atoms contribute the graph's colour bitset, edge
  // atoms the pivot's adjacency row, equalities a singleton, scan-free
  // atoms a scalar full/empty — combined by AND (conjunctive) or OR
  // (disjunctive).
  const uint64_t* BodySet(int32_t scan_slot, const VmAtom* first,
                          int32_t count, bool disj);
  // Single-word BodySet for order ≤ 64 (stride 1): no scratch traffic.
  uint64_t BodyWord(int32_t scan_slot, const VmAtom* first, int32_t count,
                    bool disj);
  // ∃/∀ over `domain` (nullptr = all vertices) of the atom-run body.
  bool VectorQuantifier(const uint64_t* domain, int32_t scan_slot,
                        const VmAtom* first, int32_t count, bool disj,
                        bool is_exists);
  // ∃^{≥needed} over all vertices: popcount of the body set.
  bool VectorCountAtLeast(int32_t scan_slot, const VmAtom* first,
                          int32_t count, bool disj, int64_t needed);
  // One atom of a fused run; returns whether the literal is satisfied
  // (value == expect), with the interpreter's lazy missing-colour
  // semantics (CHECK or false) for colour atoms.
  bool AtomHolds(const VmAtom& atom);
  // Evaluates atoms [first, first + count) as a conjunction (disj=false)
  // or disjunction (disj=true). Fast-lane superinstructions only — does
  // not count atom evaluations.
  bool RunAtoms(const VmAtom* first, int32_t count, bool disj);

  // Per-loop-site scan state for guard-fused and counting loops.
  struct Frame {
    // Neighbour scans: the cursor into the CSR row and the row's end.
    const Vertex* cur = nullptr;
    const Vertex* end = nullptr;
    // Colour scans: the class's bitset, the current word's index and its
    // not yet visited bits.
    const uint64_t* words = nullptr;
    int32_t word = 0;
    uint64_t pending = 0;
    int64_t needed = 0;
  };

  // Binds *v to the colour scan's next member in increasing order; false
  // once the class is exhausted (*v untouched).
  bool NextColorMember(Frame& frame, Vertex* v) const;

  const CompiledFormula& plan_;
  const LoweredPlan& lowered_;
  const Graph& graph_;
  EvalOptions options_;
  // A fast-lane guard colour is unresolved on this graph and must
  // CHECK-fail where evaluated: every call runs the counting program.
  bool counting_only_ = false;
  // Bit-test atom domains: the shared (or auto-built) adjacency matrix and
  // the graph's colour bitset (Graph::ColorWords) per plan colour name.
  // A name the graph does not resolve gets empty_row_ under
  // missing_color_is_false, nullptr otherwise.
  std::shared_ptr<const VmGraphIndex> edge_index_;
  std::vector<uint64_t> scratch_body_;  // one row for BodySet
  std::vector<uint64_t> empty_row_;     // all zeros, WordsPerColor() words
  std::vector<const uint64_t*> color_rows_;
  std::vector<Vertex> env_;
  std::vector<uint64_t> sets_;  // MSO set registers, one bit per vertex
  std::vector<int8_t> memo_;  // -1 unknown, else the cached verdict
  std::vector<Frame> frames_;
};

}  // namespace folearn

#endif  // FOLEARN_MC_VM_H_
