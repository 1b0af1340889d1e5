#include "mc/vm.h"

#include <algorithm>
#include <bit>
#include <iterator>
#include <optional>

#include "util/check.h"
#include "util/governor.h"

namespace folearn {

std::shared_ptr<const VmGraphIndex> VmGraphIndex::Build(const Graph& graph) {
  const int32_t order = graph.order();
  if (order > kMaxOrder) return nullptr;
  auto index = std::make_shared<VmGraphIndex>();
  index->order = order;
  index->stride = (order + 63) / 64;
  index->bits.assign(static_cast<size_t>(order) * index->stride, 0);
  for (Vertex u = 0; u < order; ++u) {
    uint64_t* row = index->bits.data() +
                    static_cast<size_t>(u) * index->stride;
    for (Vertex v : graph.Neighbors(u)) {
      row[v >> 6] |= uint64_t{1} << (v & 63);
    }
  }
  return index;
}

VmEvaluator::VmEvaluator(const CompiledFormula& plan,
                         const LoweredPlan& lowered, const Graph& graph,
                         const EvalOptions& options,
                         std::shared_ptr<const VmGraphIndex> edge_index)
    : plan_(plan),
      lowered_(lowered),
      graph_(graph),
      options_(options),
      edge_index_(std::move(edge_index)) {
  color_rows_.reserve(plan.color_names().size());
  for (const std::string& name : plan.color_names()) {
    std::optional<ColorId> color = graph.FindColor(name);
    if (color.has_value()) {
      color_rows_.push_back(graph.ColorWords(*color).data());
    } else if (options.missing_color_is_false) {
      // An empty class: atoms and guard scans read one shared zero row.
      if (empty_row_.empty()) {
        empty_row_.assign(std::max(graph.WordsPerColor(), 1), 0);
      }
      color_rows_.push_back(empty_row_.data());
    } else {
      color_rows_.push_back(nullptr);  // CHECK-fails where evaluated
    }
  }
  if (!lowered.supported) return;  // oversized: Eval runs the interpreter
  // The fast program scans guard colour classes directly. A guard colour
  // that must CHECK-fail when evaluated takes the counting program, whose
  // full scans reach the guard atom at its original position, exactly
  // where the interpreter fails.
  for (int32_t index : lowered.guard_colors) {
    if (color_rows_[index] == nullptr) counting_only_ = true;
  }
  if (edge_index_ == nullptr &&
      graph.order() <= VmGraphIndex::kAutoBuildOrder) {
    edge_index_ = VmGraphIndex::Build(graph);
  }
  if (edge_index_ != nullptr) {
    // Colour-guard domains are the graph's bitsets, read edge_index_->stride
    // words at a time: the index must match this graph's order.
    FOLEARN_CHECK_EQ(edge_index_->order, graph.order());
    scratch_body_.assign(edge_index_->stride, 0);
  }
  env_.assign(plan.env_size(), 0);
  sets_.assign(plan.num_set_slots(), 0);
  memo_.assign(plan.num_memo_slots(), -1);
  frames_.resize(static_cast<size_t>(
      std::max(lowered.fast.num_frames, lowered.counting.num_frames)));
}

bool VmEvaluator::Eval(std::span<const Vertex> tuple, EvalStats* stats) {
  if (!lowered_.supported) {
    return Evaluate(graph_, plan_.source(),
                    Assignment(plan_.free_vars(), tuple), options_, stats);
  }
  FOLEARN_CHECK_EQ(tuple.size(), plan_.free_vars().size());
  for (size_t i = 0; i < tuple.size(); ++i) {
    env_[i] = tuple[i];
  }
  for (int32_t slot : plan_.used_free_slots()) {
    FOLEARN_CHECK(graph_.IsValidVertex(env_[slot]))
        << "variable '" << plan_.free_vars()[slot]
        << "' bound to invalid vertex " << env_[slot];
  }
  const bool counting =
      counting_only_ || stats != nullptr || options_.governor != nullptr;
  const bool value = counting ? Run<true>(lowered_.counting, stats)
                              : Run<false>(lowered_.fast, nullptr);
  if (stats != nullptr) stats->status = GovernorStatus(options_.governor);
  return value;
}

bool VmEvaluator::NextColorMember(Frame& frame, Vertex* v) const {
  while (frame.pending == 0) {
    if (++frame.word == graph_.WordsPerColor()) return false;
    frame.pending = frame.words[frame.word];
  }
  *v = static_cast<Vertex>(frame.word * 64 + std::countr_zero(frame.pending));
  frame.pending &= frame.pending - 1;
  return true;
}

// Unchecked bit-test atom primitives: every vertex reaching these was
// validated once (free variables in Eval's prologue, loop variables by
// construction of the scan domains), so Graph::HasEdge/HasColor's
// per-call CHECKs and HasEdge's binary search are pure overhead here.
bool VmEvaluator::EdgeHolds(Vertex u, Vertex v) {
  if (edge_index_ != nullptr) return edge_index_->Test(u, v);
  return graph_.HasEdge(u, v);  // order above kMaxOrder: no dense matrix
}

bool VmEvaluator::ColorHolds(int32_t index, Vertex v) {
  const uint64_t* row = color_rows_[index];
  if (row == nullptr) {
    FOLEARN_CHECK(options_.missing_color_is_false)
        << "colour '" << plan_.color_names()[index]
        << "' not in the graph's vocabulary";
    return false;
  }
  return (row[static_cast<uint32_t>(v) >> 6] >> (v & 63)) & 1;
}

bool VmEvaluator::AtomHolds(const VmAtom& atom) {
  bool value;
  switch (atom.kind) {
    case 0:
      value = EdgeHolds(env_[atom.a], env_[atom.b]);
      break;
    case 1:
      value = env_[atom.a] == env_[atom.b];
      break;
    default:
      value = ColorHolds(atom.b, env_[atom.a]);
      break;
  }
  return value == (atom.expect != 0);
}

bool VmEvaluator::RunAtoms(const VmAtom* first, int32_t count, bool disj) {
  const VmAtom* const end = first + count;
  for (const VmAtom* atom = first; atom != end; ++atom) {
    if (AtomHolds(*atom) == disj) return disj;
  }
  return !disj;
}

// stride == 1 (order ≤ 64): the whole body set fits one register, so the
// scratch row and its fills are pure overhead — classify, combine, and
// test entirely in registers. Semantically identical to BodySet.
uint64_t VmEvaluator::BodyWord(int32_t scan_slot, const VmAtom* first,
                               int32_t count, bool disj) {
  const VmGraphIndex& index = *edge_index_;
  const uint64_t tail = index.TailMask();
  uint64_t body = disj ? 0 : tail;
  for (const VmAtom* atom = first; atom != first + count; ++atom) {
    uint64_t lit;
    const bool a_scan = atom->a == scan_slot;
    const bool b_scan = atom->kind != 2 && atom->b == scan_slot;
    if (!a_scan && !b_scan) {
      bool value;
      switch (atom->kind) {
        case 0: value = EdgeHolds(env_[atom->a], env_[atom->b]); break;
        case 1: value = env_[atom->a] == env_[atom->b]; break;
        default: value = ColorHolds(atom->b, env_[atom->a]); break;
      }
      lit = value ? tail : 0;
    } else {
      switch (atom->kind) {
        case 0:  // E(y, y) never holds (simple graph)
          lit = a_scan && b_scan
                    ? 0
                    : index.AdjacencyRow(env_[a_scan ? atom->b
                                                     : atom->a])[0];
          break;
        case 1:
          lit = a_scan && b_scan
                    ? tail
                    : uint64_t{1} << env_[a_scan ? atom->b : atom->a];
          break;
        default: {
          const uint64_t* row = color_rows_[atom->b];
          if (row == nullptr) {
            FOLEARN_CHECK(options_.missing_color_is_false)
                << "colour '" << plan_.color_names()[atom->b]
                << "' not in the graph's vocabulary";
            lit = 0;
          } else {
            lit = row[0];
          }
          break;
        }
      }
    }
    if (atom->expect == 0) lit = ~lit & tail;
    if (disj) {
      body |= lit;
    } else {
      body &= lit;
    }
  }
  return body;
}

const uint64_t* VmEvaluator::BodySet(int32_t scan_slot, const VmAtom* first,
                                     int32_t count, bool disj) {
  const VmGraphIndex& index = *edge_index_;
  const int32_t stride = index.stride;
  const uint64_t tail = index.TailMask();
  uint64_t* body = scratch_body_.data();
  if (disj) {
    std::fill(body, body + stride, 0);
  } else {
    std::fill(body, body + stride, ~uint64_t{0});
    body[stride - 1] = tail;
  }
  for (const VmAtom* atom = first; atom != first + count; ++atom) {
    const bool neg = atom->expect == 0;
    // Classify the literal's value set relative to the scan variable.
    enum class Shape { kRow, kEmpty, kFull, kSingle };
    Shape shape = Shape::kEmpty;
    const uint64_t* row = nullptr;
    Vertex single = -1;
    const bool a_scan = atom->a == scan_slot;
    const bool b_scan = atom->kind != 2 && atom->b == scan_slot;
    if (!a_scan && !b_scan) {
      // Scan-free literal: one scalar evaluation covers every candidate.
      bool value;
      switch (atom->kind) {
        case 0: value = EdgeHolds(env_[atom->a], env_[atom->b]); break;
        case 1: value = env_[atom->a] == env_[atom->b]; break;
        default: value = ColorHolds(atom->b, env_[atom->a]); break;
      }
      shape = value ? Shape::kFull : Shape::kEmpty;
    } else {
      switch (atom->kind) {
        case 0:  // edge: the pivot's adjacency row (E(y,y) never holds)
          if (a_scan && b_scan) {
            shape = Shape::kEmpty;
          } else {
            shape = Shape::kRow;
            row = index.AdjacencyRow(env_[a_scan ? atom->b : atom->a]);
          }
          break;
        case 1:  // equality: a singleton (or everything for y = y)
          if (a_scan && b_scan) {
            shape = Shape::kFull;
          } else {
            shape = Shape::kSingle;
            single = env_[a_scan ? atom->b : atom->a];
          }
          break;
        default:  // colour on the scan variable
          row = color_rows_[atom->b];
          if (row == nullptr) {
            FOLEARN_CHECK(options_.missing_color_is_false)
                << "colour '" << plan_.color_names()[atom->b]
                << "' not in the graph's vocabulary";
            shape = Shape::kEmpty;
          } else {
            shape = Shape::kRow;
          }
          break;
      }
    }
    // Fold the negation into the constant shapes; kRow/kSingle negate in
    // the combine below.
    if (neg && shape == Shape::kFull) shape = Shape::kEmpty;
    else if (neg && shape == Shape::kEmpty) shape = Shape::kFull;

    if (!disj) {  // conjunctive: intersect
      switch (shape) {
        case Shape::kFull:
          break;
        case Shape::kEmpty:
          std::fill(body, body + stride, 0);
          return body;
        case Shape::kRow:
          if (neg) {
            for (int32_t i = 0; i < stride; ++i) body[i] &= ~row[i];
          } else {
            for (int32_t i = 0; i < stride; ++i) body[i] &= row[i];
          }
          break;
        case Shape::kSingle: {
          const uint64_t bit = uint64_t{1} << (single & 63);
          if (neg) {
            body[single >> 6] &= ~bit;
          } else {
            const bool kept = (body[single >> 6] & bit) != 0;
            std::fill(body, body + stride, 0);
            if (kept) body[single >> 6] = bit;
          }
          break;
        }
      }
    } else {  // disjunctive: unite
      switch (shape) {
        case Shape::kEmpty:
          break;
        case Shape::kFull:
          std::fill(body, body + stride, ~uint64_t{0});
          body[stride - 1] = tail;
          return body;
        case Shape::kRow:
          if (neg) {
            for (int32_t i = 0; i < stride; ++i) body[i] |= ~row[i];
          } else {
            for (int32_t i = 0; i < stride; ++i) body[i] |= row[i];
          }
          break;
        case Shape::kSingle: {
          const uint64_t bit = uint64_t{1} << (single & 63);
          if (neg) {
            // Everything except `single` (keeping it if already present).
            const bool kept = (body[single >> 6] & bit) != 0;
            std::fill(body, body + stride, ~uint64_t{0});
            if (!kept) body[single >> 6] &= ~bit;
          } else {
            body[single >> 6] |= bit;
          }
          break;
        }
      }
    }
  }
  body[stride - 1] &= tail;  // complements set bits past `order`
  return body;
}

bool VmEvaluator::VectorQuantifier(const uint64_t* domain, int32_t scan_slot,
                                   const VmAtom* first, int32_t count,
                                   bool disj, bool is_exists) {
  const VmGraphIndex& index = *edge_index_;
  const int32_t stride = index.stride;
  const uint64_t tail = index.TailMask();
  if (stride == 1) {
    const uint64_t body = BodyWord(scan_slot, first, count, disj);
    const uint64_t dom = domain != nullptr ? domain[0] : tail;
    return is_exists ? (dom & body) != 0 : (dom & ~body) == 0;
  }
  const uint64_t* body = BodySet(scan_slot, first, count, disj);
  if (is_exists) {
    for (int32_t i = 0; i < stride; ++i) {
      const uint64_t dom =
          domain != nullptr ? domain[i]
                            : (i == stride - 1 ? tail : ~uint64_t{0});
      if ((dom & body[i]) != 0) return true;
    }
    return false;
  }
  for (int32_t i = 0; i < stride; ++i) {
    const uint64_t dom =
        domain != nullptr ? domain[i]
                          : (i == stride - 1 ? tail : ~uint64_t{0});
    if ((dom & ~body[i]) != 0) return false;
  }
  return true;
}

bool VmEvaluator::VectorCountAtLeast(int32_t scan_slot, const VmAtom* first,
                                     int32_t count, bool disj,
                                     int64_t needed) {
  const int32_t stride = edge_index_->stride;
  if (stride == 1) {
    return std::popcount(BodyWord(scan_slot, first, count, disj)) >= needed;
  }
  const uint64_t* body = BodySet(scan_slot, first, count, disj);
  int64_t total = 0;
  for (int32_t i = 0; i < stride; ++i) {
    total += std::popcount(body[i]);
    if (total >= needed) return true;
  }
  return total >= needed;
}

// The dispatch loop. One handler body serves both lanes: kCounting is the
// counting program (interpreter-identical checkpoints and counters, plus
// per-opcode dispatch tallies), !kCounting the fast program. Handlers read
// the instruction through `ip`, then either fall through (++ip) or jump
// (ip = code + target); every path terminates in a kHalt*.
template <bool kCounting>
bool VmEvaluator::Run(const BytecodeProgram& program, EvalStats* stats) {
  const VmInst* const code = program.code.data();
  const VmAtom* const atoms = program.atoms.data();
  const VmInst* ip = code;
  [[maybe_unused]] int64_t counts[kNumVmOps] = {};
  bool result = false;

#define VM_COUNT()                                      \
  do {                                                  \
    if constexpr (kCounting) {                          \
      ++counts[static_cast<int>(ip->op)];               \
    }                                                   \
  } while (0)

#if FOLEARN_VM_COMPUTED_GOTO
  // One jump table per instantiation; order must match the VmOp enum.
  static const void* const kJump[] = {
      &&op_kHaltTrue,    &&op_kHaltFalse,  &&op_kJump,
      &&op_kEdge,        &&op_kEquals,     &&op_kColor,
      &&op_kSetMember,   &&op_kAtomRun,    &&op_kMemoCheck,
      &&op_kMemoWrite,   &&op_kCheckpoint, &&op_kScanBegin,
      &&op_kScanNext,    &&op_kSetBegin,   &&op_kSetNext,
      &&op_kEqBind,      &&op_kNScanBegin, &&op_kNScanNext,
      &&op_kCScanBegin,  &&op_kCScanNext,  &&op_kCntBegin,
      &&op_kCntTop,      &&op_kCntHit,     &&op_kCntStep,
      &&op_kCntExit,     &&op_kScanAtoms,  &&op_kEqBindAtoms,
      &&op_kNScanAtoms,  &&op_kCScanAtoms, &&op_kCntAtoms,
  };
  static_assert(std::size(kJump) == static_cast<size_t>(kNumVmOps),
                "one jump-table entry per VmOp");
#define VM_DISPATCH()                                   \
  do {                                                  \
    VM_COUNT();                                         \
    goto* kJump[static_cast<int>(ip->op)];              \
  } while (0)
#define VM_CASE(name) op_##name:
  VM_DISPATCH();
#else
#define VM_DISPATCH() goto vm_dispatch
#define VM_CASE(name) case VmOp::name:
vm_dispatch:
  VM_COUNT();
  switch (ip->op) {
    default:
      FOLEARN_CHECK(false) << "invalid opcode";
      return false;
#endif

  VM_CASE(kHaltTrue) {
    result = true;
    goto vm_done;
  }
  VM_CASE(kHaltFalse) {
    result = false;
    goto vm_done;
  }
  VM_CASE(kJump) {
    ip = code + ip->t;
    VM_DISPATCH();
  }
  VM_CASE(kEdge) {
    if constexpr (kCounting) {
      if (stats != nullptr) ++stats->atom_evaluations;
    }
    ip = code + (EdgeHolds(env_[ip->a], env_[ip->b]) ? ip->t : ip->f);
    VM_DISPATCH();
  }
  VM_CASE(kEquals) {
    if constexpr (kCounting) {
      if (stats != nullptr) ++stats->atom_evaluations;
    }
    ip = code + (env_[ip->a] == env_[ip->b] ? ip->t : ip->f);
    VM_DISPATCH();
  }
  VM_CASE(kColor) {
    if constexpr (kCounting) {
      if (stats != nullptr) ++stats->atom_evaluations;
    }
    ip = code + (ColorHolds(ip->b, env_[ip->a]) ? ip->t : ip->f);
    VM_DISPATCH();
  }
  VM_CASE(kSetMember) {
    if constexpr (kCounting) {
      if (stats != nullptr) ++stats->atom_evaluations;
    }
    FOLEARN_CHECK(ip->b >= 0) << "unbound set variable '"
                              << plan_.free_set_names()[-ip->b - 1] << "'";
    ip = code + ((sets_[ip->b] >> env_[ip->a]) & 1 ? ip->t : ip->f);
    VM_DISPATCH();
  }
  VM_CASE(kAtomRun) {
    const VmAtom* atom = atoms + ip->c;
    const VmAtom* const end = atom + ip->d;
    const bool disj = (ip->flags & kFlagDisjunctive) != 0;
    bool verdict = !disj;
    for (; atom != end; ++atom) {
      if constexpr (kCounting) {
        if (stats != nullptr) ++stats->atom_evaluations;
      }
      if (AtomHolds(*atom) == disj) {
        verdict = disj;
        break;
      }
    }
    ip = code + (verdict ? ip->t : ip->f);
    VM_DISPATCH();
  }
  VM_CASE(kMemoCheck) {
    const int8_t memo = memo_[ip->a];
    if (memo < 0) {
      ++ip;
    } else {
      ip = code + (memo != 0 ? ip->t : ip->f);
    }
    VM_DISPATCH();
  }
  VM_CASE(kMemoWrite) {
    memo_[ip->a] = static_cast<int8_t>(ip->b);
    ip = code + ip->t;
    VM_DISPATCH();
  }
  VM_CASE(kCheckpoint) {
    // Interpreter order: a failed checkpoint unwinds before the branch is
    // counted.
    if (!GovernorCheckpoint(options_.governor)) {
      ip = code + ip->t;
    } else {
      if (stats != nullptr) ++stats->quantifier_branches;
      ++ip;
    }
    VM_DISPATCH();
  }
  VM_CASE(kScanBegin) {
    FOLEARN_CHECK_GT(graph_.order(), 0)
        << "quantifier evaluated on the empty graph";
    env_[ip->a] = 0;
    ++ip;
    VM_DISPATCH();
  }
  VM_CASE(kScanNext) {
    ip = code + (++env_[ip->a] < graph_.order() ? ip->t : ip->f);
    VM_DISPATCH();
  }
  VM_CASE(kSetBegin) {
    FOLEARN_CHECK_LE(graph_.order(), kMaxMsoOrder)
        << "MSO set quantification enumerates 2^n subsets; structure too "
           "large";
    sets_[ip->a] = 0;
    ++ip;
    VM_DISPATCH();
  }
  VM_CASE(kSetNext) {
    ip = code + (++sets_[ip->a] < uint64_t{1} << graph_.order() ? ip->t
                                                                : ip->f);
    VM_DISPATCH();
  }
  VM_CASE(kEqBind) {
    FOLEARN_CHECK_GT(graph_.order(), 0)
        << "quantifier evaluated on the empty graph";
    env_[ip->a] = env_[ip->b];
    ++ip;
    VM_DISPATCH();
  }
  VM_CASE(kNScanBegin) {
    FOLEARN_CHECK_GT(graph_.order(), 0)
        << "quantifier evaluated on the empty graph";
    const std::span<const Vertex> members = graph_.Neighbors(env_[ip->b]);
    Frame& frame = frames_[ip->c];
    frame.cur = members.data();
    frame.end = frame.cur + members.size();
    if (frame.cur == frame.end) {
      ip = code + ip->f;
    } else {
      env_[ip->a] = *frame.cur;
      ++ip;
    }
    VM_DISPATCH();
  }
  VM_CASE(kNScanNext) {
    Frame& frame = frames_[ip->c];
    if (++frame.cur == frame.end) {
      ip = code + ip->f;
    } else {
      env_[ip->a] = *frame.cur;
      ip = code + ip->t;
    }
    VM_DISPATCH();
  }
  VM_CASE(kCScanBegin) {
    FOLEARN_CHECK_GT(graph_.order(), 0)
        << "quantifier evaluated on the empty graph";
    Frame& frame = frames_[ip->c];
    frame.words = color_rows_[ip->b];
    frame.word = 0;
    frame.pending = frame.words[0];
    ip = NextColorMember(frame, &env_[ip->a]) ? ip + 1 : code + ip->f;
    VM_DISPATCH();
  }
  VM_CASE(kCScanNext) {
    ip = NextColorMember(frames_[ip->c], &env_[ip->a]) ? code + ip->t
                                                        : code + ip->f;
    VM_DISPATCH();
  }
  VM_CASE(kCntBegin) {
    FOLEARN_CHECK_GT(graph_.order(), 0)
        << "quantifier evaluated on the empty graph";
    frames_[ip->c].needed = ip->b;
    env_[ip->a] = 0;
    ++ip;
    VM_DISPATCH();
  }
  VM_CASE(kCntTop) {
    // Loop guard plus the interpreter's early abort (not enough vertices
    // left to reach the threshold) — pure checks, no observable events.
    const Frame& frame = frames_[ip->c];
    const Vertex v = env_[ip->a];
    if (v >= graph_.order() || frame.needed <= 0 ||
        graph_.order() - v < frame.needed) {
      ip = code + ip->f;
    } else {
      ++ip;
    }
    VM_DISPATCH();
  }
  VM_CASE(kCntHit) {
    --frames_[ip->c].needed;
    ++ip;
    VM_DISPATCH();
  }
  VM_CASE(kCntStep) {
    ++env_[ip->a];
    ip = code + ip->t;
    VM_DISPATCH();
  }
  VM_CASE(kCntExit) {
    ip = code + (frames_[ip->c].needed == 0 ? ip->t : ip->f);
    VM_DISPATCH();
  }
  VM_CASE(kScanAtoms) {
    FOLEARN_CHECK_GT(graph_.order(), 0)
        << "quantifier evaluated on the empty graph";
    const bool is_exists = (ip->flags & kFlagExists) != 0;
    const bool disj = (ip->flags & kFlagDisjunctive) != 0;
    const VmAtom* const first = atoms + ip->c;
    bool verdict;
    if (!kCounting && edge_index_ != nullptr) {
      // Word-parallel: the body set over all vertices in O(order/64).
      verdict = VectorQuantifier(nullptr, ip->a, first, ip->d, disj,
                                 is_exists);
    } else {
      verdict = !is_exists;
      for (Vertex v = 0; v < graph_.order(); ++v) {
        env_[ip->a] = v;
        if (RunAtoms(first, ip->d, disj) == is_exists) {
          verdict = is_exists;
          break;
        }
      }
    }
    ip = code + (verdict ? ip->t : ip->f);
    VM_DISPATCH();
  }
  VM_CASE(kEqBindAtoms) {
    FOLEARN_CHECK_GT(graph_.order(), 0)
        << "quantifier evaluated on the empty graph";
    env_[ip->a] = env_[ip->b];
    // Single-vertex domain: the quantifier's verdict is the body's.
    ip = code +
         (RunAtoms(atoms + ip->c, ip->d, (ip->flags & kFlagDisjunctive) != 0)
              ? ip->t
              : ip->f);
    VM_DISPATCH();
  }
  VM_CASE(kNScanAtoms) {
    FOLEARN_CHECK_GT(graph_.order(), 0)
        << "quantifier evaluated on the empty graph";
    const bool is_exists = (ip->flags & kFlagExists) != 0;
    const bool disj = (ip->flags & kFlagDisjunctive) != 0;
    const VmAtom* const first = atoms + ip->c;
    const std::span<const Vertex> neighbors = graph_.Neighbors(env_[ip->b]);
    bool verdict;
    if (!kCounting && edge_index_ != nullptr &&
        static_cast<int32_t>(neighbors.size()) > edge_index_->stride) {
      // Dense pivot: bitset algebra over the adjacency row beats walking
      // the neighbour list (sparser pivots keep the scalar loop).
      verdict = VectorQuantifier(edge_index_->AdjacencyRow(env_[ip->b]),
                                 ip->a, first, ip->d, disj, is_exists);
    } else {
      verdict = !is_exists;
      for (Vertex v : neighbors) {
        env_[ip->a] = v;
        if (RunAtoms(first, ip->d, disj) == is_exists) {
          verdict = is_exists;
          break;
        }
      }
    }
    ip = code + (verdict ? ip->t : ip->f);
    VM_DISPATCH();
  }
  VM_CASE(kCScanAtoms) {
    FOLEARN_CHECK_GT(graph_.order(), 0)
        << "quantifier evaluated on the empty graph";
    const bool is_exists = (ip->flags & kFlagExists) != 0;
    const bool disj = (ip->flags & kFlagDisjunctive) != 0;
    const VmAtom* const first = atoms + ip->c;
    bool verdict;
    // The fast program runs only when every guard colour has a row (the
    // graph's bitset, or the empty row), so it is the exact scan domain.
    const uint64_t* const domain = color_rows_[ip->b];
    if (!kCounting && edge_index_ != nullptr) {
      verdict = VectorQuantifier(domain, ip->a, first, ip->d, disj,
                                 is_exists);
    } else {
      const bool hit = AnySetBit(
          std::span<const uint64_t>(domain, graph_.WordsPerColor()),
          [&](Vertex v) {
            env_[ip->a] = v;
            return RunAtoms(first, ip->d, disj) == is_exists;
          });
      verdict = hit == is_exists;
    }
    ip = code + (verdict ? ip->t : ip->f);
    VM_DISPATCH();
  }
  VM_CASE(kCntAtoms) {
    FOLEARN_CHECK_GT(graph_.order(), 0)
        << "quantifier evaluated on the empty graph";
    const bool disj = (ip->flags & kFlagDisjunctive) != 0;
    const VmAtom* const first = atoms + ip->c;
    bool verdict;
    if (!kCounting && edge_index_ != nullptr) {
      // Popcount of the body set (the scalar loop's early abort is a pure
      // speed trick — the verdict is the same threshold test).
      verdict = VectorCountAtLeast(ip->a, first, ip->d, disj, ip->b);
    } else {
      int64_t needed = ip->b;
      for (Vertex v = 0; v < graph_.order() && needed > 0; ++v) {
        if (graph_.order() - v < needed) break;
        env_[ip->a] = v;
        if (RunAtoms(first, ip->d, disj)) --needed;
      }
      verdict = needed == 0;
    }
    ip = code + (verdict ? ip->t : ip->f);
    VM_DISPATCH();
  }

#if !FOLEARN_VM_COMPUTED_GOTO
  }  // switch
#endif

vm_done:
  if constexpr (kCounting) {
    if (stats != nullptr) {
      if (stats->vm_op_dispatches.size() <
          static_cast<size_t>(kNumVmOps)) {
        stats->vm_op_dispatches.resize(kNumVmOps, 0);
      }
      for (int i = 0; i < kNumVmOps; ++i) {
        stats->vm_op_dispatches[i] += counts[i];
      }
    }
  }
  return result;

#undef VM_COUNT
#undef VM_DISPATCH
#undef VM_CASE
}

template bool VmEvaluator::Run<false>(const BytecodeProgram&, EvalStats*);
template bool VmEvaluator::Run<true>(const BytecodeProgram&, EvalStats*);

}  // namespace folearn
