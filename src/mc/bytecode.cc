#include "mc/bytecode.h"

#include <utility>

#include "util/check.h"

namespace folearn {

const char* VmOpName(VmOp op) {
  switch (op) {
    case VmOp::kHaltTrue: return "halt_true";
    case VmOp::kHaltFalse: return "halt_false";
    case VmOp::kJump: return "jump";
    case VmOp::kEdge: return "edge";
    case VmOp::kEquals: return "equals";
    case VmOp::kColor: return "color";
    case VmOp::kSetMember: return "set_member";
    case VmOp::kAtomRun: return "atom_run";
    case VmOp::kMemoCheck: return "memo_check";
    case VmOp::kMemoWrite: return "memo_write";
    case VmOp::kCheckpoint: return "checkpoint";
    case VmOp::kScanBegin: return "scan_begin";
    case VmOp::kScanNext: return "scan_next";
    case VmOp::kSetBegin: return "set_begin";
    case VmOp::kSetNext: return "set_next";
    case VmOp::kEqBind: return "eq_bind";
    case VmOp::kNScanBegin: return "nscan_begin";
    case VmOp::kNScanNext: return "nscan_next";
    case VmOp::kCScanBegin: return "cscan_begin";
    case VmOp::kCScanNext: return "cscan_next";
    case VmOp::kCntBegin: return "cnt_begin";
    case VmOp::kCntTop: return "cnt_top";
    case VmOp::kCntHit: return "cnt_hit";
    case VmOp::kCntStep: return "cnt_step";
    case VmOp::kCntExit: return "cnt_exit";
    case VmOp::kScanAtoms: return "scan_atoms";
    case VmOp::kEqBindAtoms: return "eq_bind_atoms";
    case VmOp::kNScanAtoms: return "nscan_atoms";
    case VmOp::kCScanAtoms: return "cscan_atoms";
    case VmOp::kCntAtoms: return "cnt_atoms";
  }
  return "unknown";
}

namespace {

// A constant-pool run reference produced by literal folding.
struct RunRef {
  int32_t first = 0;
  int32_t count = 0;
  bool disj = false;
};

class Lowerer {
 public:
  Lowerer(const CompiledFormula& plan, bool counting)
      : plan_(plan), nodes_(plan.nodes()), counting_(counting) {}

  void Lower(BytecodeProgram* out, std::vector<int32_t>* guard_colors,
             int32_t* superinstructions, int32_t* atom_runs) {
    const int32_t halt_true = NewLabel();
    const int32_t halt_false = NewLabel();
    EmitNode(plan_.root(), halt_true, halt_false);
    Place(halt_true);
    Emit({.op = VmOp::kHaltTrue});
    Place(halt_false);
    Emit({.op = VmOp::kHaltFalse});
    // Backpatch: every non-negative t/f holds a label id by construction.
    for (VmInst& inst : code_) {
      if (inst.t >= 0) inst.t = labels_[inst.t];
      if (inst.f >= 0) inst.f = labels_[inst.f];
    }
    out->code = std::move(code_);
    out->atoms = std::move(atoms_);
    out->num_frames = num_frames_;
    *guard_colors = std::move(guard_colors_);
    *superinstructions = superinstructions_;
    *atom_runs = atom_runs_;
  }

 private:
  int32_t NewLabel() {
    labels_.push_back(-1);
    return static_cast<int32_t>(labels_.size()) - 1;
  }

  void Place(int32_t label) {
    labels_[label] = static_cast<int32_t>(code_.size());
  }

  void Emit(VmInst inst) { code_.push_back(inst); }

  void EmitJump(int32_t target) {
    Emit({.op = VmOp::kJump, .t = target});
  }

  int32_t NewFrame() { return num_frames_++; }

  // --- literal folding ---------------------------------------------------

  // Folds an atom or a ¬-chain over an atom into one constant-pool entry.
  // Memoized nodes are never folded in the fast lane (they cannot occur on
  // a literal in practice — atoms always read a slot — but the guard keeps
  // the memo contract local to EmitNode).
  bool FoldLiteral(int32_t id, VmAtom* out) const {
    bool expect = true;
    const CompiledNode* node = &nodes_[id];
    while (node->op == COp::kNot) {
      if (!counting_ && node->memo_id >= 0) return false;
      expect = !expect;
      node = &nodes_[node->child];
    }
    if (!counting_ && node->memo_id >= 0) return false;
    switch (node->op) {
      case COp::kEdge: out->kind = 0; break;
      case COp::kEquals: out->kind = 1; break;
      case COp::kColor: out->kind = 2; break;
      default: return false;
    }
    out->expect = expect ? 1 : 0;
    out->a = node->a;
    out->b = node->b;
    return true;
  }

  // Folds a whole quantifier body — a single literal or a one-level ∧/∨ of
  // literals — into one run, enabling the loop+body superinstructions.
  bool TryFoldBody(int32_t id, RunRef* out) {
    const CompiledNode& node = nodes_[id];
    if (!counting_ && node.memo_id >= 0) return false;
    VmAtom single;
    if (FoldLiteral(id, &single)) {
      out->first = static_cast<int32_t>(atoms_.size());
      out->count = 1;
      out->disj = false;
      atoms_.push_back(single);
      return true;
    }
    if (node.op != COp::kAnd && node.op != COp::kOr) return false;
    return TryFoldList(plan_.children(node), /*skip=*/-1,
                       node.op == COp::kOr, out);
  }

  // Folds every child (minus `skip`, the guard) into one run, preserving
  // the child order so short-circuit behaviour is unchanged.
  bool TryFoldList(std::span<const int32_t> children, int32_t skip,
                   bool disj, RunRef* out) {
    std::vector<VmAtom> run;
    run.reserve(children.size());
    for (int32_t i = 0; i < static_cast<int32_t>(children.size()); ++i) {
      if (i == skip) continue;
      VmAtom atom;
      if (!FoldLiteral(children[i], &atom)) return false;
      run.push_back(atom);
    }
    out->first = static_cast<int32_t>(atoms_.size());
    out->count = static_cast<int32_t>(run.size());
    out->disj = disj;
    atoms_.insert(atoms_.end(), run.begin(), run.end());
    return true;
  }

  // --- node emission -----------------------------------------------------

  // Emits `id` with jump-threaded targets: control reaches `t` exactly when
  // the subformula is true. In the fast lane a memoized node first consults
  // its memo slot and stores its verdict on both exits; the counting lane
  // never touches memos.
  void EmitNode(int32_t id, int32_t t, int32_t f) {
    const CompiledNode& node = nodes_[id];
    if (!counting_ && node.memo_id >= 0) {
      const int32_t on_true = NewLabel();
      const int32_t on_false = NewLabel();
      Emit({.op = VmOp::kMemoCheck, .a = node.memo_id, .t = t, .f = f});
      EmitRaw(id, on_true, on_false);
      Place(on_true);
      Emit({.op = VmOp::kMemoWrite, .a = node.memo_id, .b = 1, .t = t});
      Place(on_false);
      Emit({.op = VmOp::kMemoWrite, .a = node.memo_id, .b = 0, .t = f});
      return;
    }
    EmitRaw(id, t, f);
  }

  void EmitRaw(int32_t id, int32_t t, int32_t f) {
    const CompiledNode& node = nodes_[id];
    switch (node.op) {
      case COp::kTrue:
        EmitJump(t);
        return;
      case COp::kFalse:
        EmitJump(f);
        return;
      case COp::kEdge:
      case COp::kEquals:
      case COp::kColor: {
        VmAtom atom;
        FOLEARN_CHECK(FoldLiteral(id, &atom));
        EmitLiteral(atom, t, f);
        return;
      }
      case COp::kNot:
        // Negation is free under jump-threading: swap the targets.
        EmitNode(node.child, f, t);
        return;
      case COp::kAnd:
        EmitList(plan_.children(node), /*skip=*/-1, /*conj=*/true, t, f);
        return;
      case COp::kOr:
        EmitList(plan_.children(node), /*skip=*/-1, /*conj=*/false, t, f);
        return;
      case COp::kExists:
      case COp::kForall:
        EmitBlockLevel(node, 0, t, f);
        return;
      case COp::kGuardedExists:
      case COp::kGuardedForall:
      case COp::kColorGuardedExists:
      case COp::kColorGuardedForall:
      case COp::kEqGuardedExists:
      case COp::kEqGuardedForall:
        EmitGuarded(node, t, f);
        return;
      case COp::kCountExists:
        EmitCount(node, t, f);
        return;
      case COp::kSetMember:
        // Never folded into an atom run, so the runs' hot loops stay FO.
        Emit({.op = VmOp::kSetMember, .a = node.a, .b = node.b, .t = t,
              .f = f});
        return;
      case COp::kExistsSet:
      case COp::kForallSet:
        EmitSetQuantifier(node, t, f);
        return;
    }
    FOLEARN_CHECK(false) << "unreachable";
  }

  // One literal as a standalone jump-threaded atom instruction. A negated
  // literal swaps the targets instead of carrying an expect bit.
  void EmitLiteral(const VmAtom& atom, int32_t sat, int32_t unsat) {
    VmInst inst;
    inst.op = atom.kind == 0   ? VmOp::kEdge
              : atom.kind == 1 ? VmOp::kEquals
                               : VmOp::kColor;
    inst.a = atom.a;
    inst.b = atom.b;
    if (atom.expect != 0) {
      inst.t = sat;
      inst.f = unsat;
    } else {
      inst.t = unsat;
      inst.f = sat;
    }
    Emit(inst);
  }

  // Short-circuit chain over a child list (minus the optional guard),
  // fusing maximal consecutive literal runs into kAtomRun. `conj`: all
  // children must hold (∧, reach t only at the end) vs any may hold (∨).
  void EmitList(std::span<const int32_t> children, int32_t skip, bool conj,
                int32_t t, int32_t f) {
    std::vector<int32_t> items;
    items.reserve(children.size());
    for (int32_t i = 0; i < static_cast<int32_t>(children.size()); ++i) {
      if (i != skip) items.push_back(children[i]);
    }
    if (items.empty()) {
      EmitJump(conj ? t : f);  // empty ∧ is true, empty ∨ is false
      return;
    }
    size_t i = 0;
    while (i < items.size()) {
      std::vector<VmAtom> run;
      size_t j = i;
      while (j < items.size()) {
        VmAtom atom;
        if (!FoldLiteral(items[j], &atom)) break;
        run.push_back(atom);
        ++j;
      }
      const size_t after = run.empty() ? i + 1 : j;
      const bool last = after == items.size();
      const int32_t next = last ? (conj ? t : f) : NewLabel();
      if (run.size() >= 2) {
        const int32_t first = static_cast<int32_t>(atoms_.size());
        atoms_.insert(atoms_.end(), run.begin(), run.end());
        VmInst inst;
        inst.op = VmOp::kAtomRun;
        inst.flags = conj ? 0 : kFlagDisjunctive;
        inst.c = first;
        inst.d = static_cast<int32_t>(run.size());
        inst.t = conj ? next : t;
        inst.f = conj ? f : next;
        Emit(inst);
        ++atom_runs_;
      } else if (run.size() == 1) {
        EmitLiteral(run[0], conj ? next : t, conj ? f : next);
      } else {
        EmitNode(items[i], conj ? next : t, conj ? f : next);
      }
      i = after;
      if (!last) Place(next);
    }
  }

  // A trip jumps to the quantifier's false exit `tripped`: the
  // interpreter's quantifier returns false there and its caller goes on,
  // so atoms after the cut count alike (every later checkpoint fails too).
  void EmitCheckpoint(int32_t tripped) {
    if (counting_) Emit({.op = VmOp::kCheckpoint, .t = tripped});
  }

  // One level of a (fused) quantifier block as a full vertex scan. The
  // counting lane checkpoints at the top of every iteration, exactly where
  // the interpreter does.
  void EmitBlockLevel(const CompiledNode& node, int32_t level, int32_t t,
                      int32_t f) {
    const bool is_exists = node.op == COp::kExists;
    const int32_t slot = node.a + level;
    const bool innermost = level + 1 == node.b;
    if (!counting_ && innermost) {
      RunRef run;
      if (TryFoldBody(node.child, &run)) {
        VmInst inst;
        inst.op = VmOp::kScanAtoms;
        inst.flags = static_cast<uint8_t>((is_exists ? kFlagExists : 0) |
                                          (run.disj ? kFlagDisjunctive : 0));
        inst.a = slot;
        inst.c = run.first;
        inst.d = run.count;
        inst.t = t;
        inst.f = f;
        Emit(inst);
        ++superinstructions_;
        ++atom_runs_;
        return;
      }
    }
    const int32_t body = NewLabel();
    const int32_t next = NewLabel();
    Emit({.op = VmOp::kScanBegin, .a = slot});
    Place(body);
    EmitCheckpoint(f);
    const int32_t body_t = is_exists ? t : next;
    const int32_t body_f = is_exists ? next : f;
    if (innermost) {
      EmitNode(node.child, body_t, body_f);
    } else {
      EmitBlockLevel(node, level + 1, body_t, body_f);
    }
    Place(next);
    Emit({.op = VmOp::kScanNext,
          .a = slot,
          .t = body,
          .f = is_exists ? f : t});
  }

  // ∃S / ∀S: a loop over every subset in the interpreter's order, the
  // counting lane checkpointing once per subset.
  void EmitSetQuantifier(const CompiledNode& node, int32_t t, int32_t f) {
    const bool is_exists = node.op == COp::kExistsSet;
    const int32_t body = NewLabel();
    const int32_t next = NewLabel();
    Emit({.op = VmOp::kSetBegin, .a = node.a});
    Place(body);
    EmitCheckpoint(f);
    EmitNode(node.child, is_exists ? t : next, is_exists ? next : f);
    Place(next);
    Emit({.op = VmOp::kSetNext,
          .a = node.a,
          .t = body,
          .f = is_exists ? f : t});
  }

  // Guarded quantifiers. Fast lane: scan only the guard's domain (single
  // vertex / neighbourhood / colour class) with the guard skipped from the
  // body, fusing into one opcode when the rest of the body is pure
  // literals. Counting lane: the interpreter's full scan over the complete
  // child list, guard included at its original position.
  void EmitGuarded(const CompiledNode& node, int32_t t, int32_t f) {
    const bool is_exists = node.op == COp::kGuardedExists ||
                           node.op == COp::kColorGuardedExists ||
                           node.op == COp::kEqGuardedExists;
    if (counting_) {
      const int32_t body = NewLabel();
      const int32_t next = NewLabel();
      Emit({.op = VmOp::kScanBegin, .a = node.a});
      Place(body);
      EmitCheckpoint(f);
      EmitList(plan_.children(node), /*skip=*/-1, is_exists,
               is_exists ? t : next, is_exists ? next : f);
      Place(next);
      Emit({.op = VmOp::kScanNext,
            .a = node.a,
            .t = body,
            .f = is_exists ? f : t});
      return;
    }
    const bool is_color = node.op == COp::kColorGuardedExists ||
                          node.op == COp::kColorGuardedForall;
    const bool is_equals = node.op == COp::kEqGuardedExists ||
                           node.op == COp::kEqGuardedForall;
    const int32_t guard = node.threshold;
    if (is_color) guard_colors_.push_back(node.b);
    RunRef run;
    if (TryFoldList(plan_.children(node), guard, !is_exists, &run)) {
      VmInst inst;
      inst.op = is_equals  ? VmOp::kEqBindAtoms
                : is_color ? VmOp::kCScanAtoms
                           : VmOp::kNScanAtoms;
      inst.flags = static_cast<uint8_t>((is_exists ? kFlagExists : 0) |
                                        (run.disj ? kFlagDisjunctive : 0));
      inst.a = node.a;
      inst.b = node.b;
      inst.c = run.first;
      inst.d = run.count;
      inst.t = t;
      inst.f = f;
      Emit(inst);
      ++superinstructions_;
      ++atom_runs_;
      return;
    }
    if (is_equals) {
      // Single-vertex domain: the quantifier's verdict is the body's.
      Emit({.op = VmOp::kEqBind, .a = node.a, .b = node.b});
      EmitList(plan_.children(node), guard, is_exists, t, f);
      return;
    }
    const int32_t frame = NewFrame();
    const int32_t body = NewLabel();
    const int32_t next = NewLabel();
    const int32_t exhausted = is_exists ? f : t;
    Emit({.op = is_color ? VmOp::kCScanBegin : VmOp::kNScanBegin,
          .a = node.a,
          .b = node.b,
          .c = frame,
          .f = exhausted});
    Place(body);
    EmitList(plan_.children(node), guard, is_exists, is_exists ? t : next,
             is_exists ? next : f);
    Place(next);
    Emit({.op = is_color ? VmOp::kCScanNext : VmOp::kNScanNext,
          .a = node.a,
          .c = frame,
          .t = body,
          .f = exhausted});
  }

  // ∃^{≥threshold}: the interpreter's loop with its early abort, either as
  // one superinstruction (fast lane, pure-literal body) or as an explicit
  // loop whose counting lane checkpoints once per evaluated vertex.
  void EmitCount(const CompiledNode& node, int32_t t, int32_t f) {
    if (!counting_) {
      RunRef run;
      if (TryFoldBody(node.child, &run)) {
        VmInst inst;
        inst.op = VmOp::kCntAtoms;
        inst.flags = run.disj ? kFlagDisjunctive : 0;
        inst.a = node.a;
        inst.b = node.threshold;
        inst.c = run.first;
        inst.d = run.count;
        inst.t = t;
        inst.f = f;
        Emit(inst);
        ++superinstructions_;
        ++atom_runs_;
        return;
      }
    }
    const int32_t frame = NewFrame();
    const int32_t top = NewLabel();
    const int32_t hit = NewLabel();
    const int32_t step = NewLabel();
    const int32_t exit = NewLabel();
    Emit({.op = VmOp::kCntBegin,
          .a = node.a,
          .b = node.threshold,
          .c = frame});
    Place(top);
    Emit({.op = VmOp::kCntTop, .a = node.a, .c = frame, .f = exit});
    EmitCheckpoint(f);
    EmitNode(node.child, hit, step);
    Place(hit);
    Emit({.op = VmOp::kCntHit, .c = frame});
    Place(step);
    Emit({.op = VmOp::kCntStep, .a = node.a, .t = top});
    Place(exit);
    Emit({.op = VmOp::kCntExit, .c = frame, .t = t, .f = f});
  }

  const CompiledFormula& plan_;
  const std::vector<CompiledNode>& nodes_;
  const bool counting_;

  std::vector<VmInst> code_;
  std::vector<VmAtom> atoms_;
  std::vector<int32_t> labels_;
  std::vector<int32_t> guard_colors_;
  int32_t num_frames_ = 0;
  int32_t superinstructions_ = 0;
  int32_t atom_runs_ = 0;
};

}  // namespace

LoweredPlan LowerPlan(const CompiledFormula& plan) {
  LoweredPlan out;
  if (plan.source() != nullptr) return out;  // oversized: the interpreter
  Lowerer(plan, /*counting=*/false)
      .Lower(&out.fast, &out.guard_colors, &out.superinstructions,
             &out.fused_atom_runs);
  std::vector<int32_t> unused_colors;
  int32_t unused_supers = 0;
  int32_t unused_runs = 0;
  Lowerer(plan, /*counting=*/true)
      .Lower(&out.counting, &unused_colors, &unused_supers, &unused_runs);
  out.supported = true;
  return out;
}

}  // namespace folearn
