#ifndef FOLEARN_MC_BYTECODE_H_
#define FOLEARN_MC_BYTECODE_H_

#include <cstdint>
#include <vector>

#include "mc/compiler.h"

namespace folearn {

// Lowering of compiled plans (mc/compiler.h) into linear, register-based
// bytecode executed by the dispatch-loop VM in mc/vm.h — the library's one
// fast evaluation engine (the recursive interpreter in mc/evaluator.cc is
// its reference oracle).
//
// The plan already fixes everything semantic —
// slot assignment, guard selection, quantifier fusion, memo slots, the
// two-lane evaluation contract — so the lowering's only job is to turn the
// per-node recursion into straight-line code: quantifiers become loops with
// backward jumps, connectives become jump-threaded short-circuit chains
// (negation compiles to nothing — the child's true/false targets swap), and
// the hot shapes collapse into superinstructions whose whole loop runs
// inside one opcode handler:
//
//  * guard+quantifier fusion — an equality guard binds a single vertex
//    (kEqBindAtoms), an edge guard scans Neighbors(x) (kNScanAtoms), a
//    colour guard scans the set bits of the graph's colour bitset
//    (kCScanAtoms);
//  * atom runs — maximal consecutive runs of (possibly negated) atoms in a
//    conjunct/disjunct list fuse into one kAtomRun over the constant pool
//    of VmAtom entries, and a quantifier whose whole body is such a run
//    fuses loop + body into a single opcode (kScanAtoms, kCntAtoms, and
//    the guarded forms above).
//
// Two programs are lowered per plan:
//
//  * `fast` — superinstructions, guard domains, memo checks; only the
//    verdict is observable.
//  * `counting` — replays the interpreter instruction for instruction:
//    full vertex scans with one kCheckpoint (governor checkpoint + branch
//    count) per vertex per level, left-to-right short-circuit through the
//    complete child list including the guard, no memo reads or writes.
//    EvalStats counters and governor cut points come out byte-identical to
//    mc/evaluator.cc.
//
// MSO set quantifiers lower to loops over a word-sized set register
// (kSetBegin/kSetNext step it through 0 … 2^n − 1, the interpreter's
// order; the counting program checkpoints once per subset) and set
// membership to the jump-threaded atom kSetMember, which never joins an
// atom run. The one plan LowerPlan leaves unsupported is an oversized one
// (CompiledFormula::source() set): the VM runs it on the interpreter.

// Bytecode opcodes. Operand roles are per-opcode (see VmInst); `t`/`f` are
// jump targets taken on true/false outcomes, -1 when the opcode falls
// through instead.
enum class VmOp : uint8_t {
  // Terminals.
  kHaltTrue,    // return true
  kHaltFalse,   // return false
  kJump,        // unconditional jump to t

  // Atoms (jump-threaded: jump to t when the atom holds, else f).
  kEdge,   // E(env[a], env[b])
  kEquals, // env[a] == env[b]
  kColor,  // colour a = plan colour index b applied to env[a]
  kSetMember,  // env[a] ∈ set register b; b < 0 names a free set variable
               // (CHECK-fails like the interpreter when reached)

  // A fused run of consecutive atoms: constant-pool entries
  // [c, c + d). Conjunctive (default): every entry's value must equal its
  // `expect` bit, first mismatch jumps f, full pass jumps t. Disjunctive
  // (kFlagDisjunctive): first match jumps t, exhaustion jumps f.
  kAtomRun,

  // Memoized closed subformulas (fast program only).
  kMemoCheck, // memo slot a: jump t/f on a cached verdict, else fall through
  kMemoWrite, // memo slot a := b (0/1), then jump t

  // Governor checkpoint + quantifier-branch count (counting program only).
  // A trip jumps to t, the enclosing quantifier's false exit (the
  // interpreter's quantifier returns false on a trip and its caller
  // continues); otherwise falls through after counting one branch.
  kCheckpoint,

  // Generic quantifier loop over all vertices: env[a] is the loop counter.
  kScanBegin, // CHECK order > 0; env[a] = 0; fall through into the body
  kScanNext,  // ++env[a]; jump t (body) while env[a] < order, else f

  // MSO set quantifier loop over all 2^order subsets: set register a is
  // the loop counter (bit v set ⇔ vertex v is a member).
  kSetBegin, // CHECK order ≤ kMaxMsoOrder; set[a] = ∅; fall through
  kSetNext,  // ++set[a]; jump t (body) while set[a] < 2^order, else f

  // Guard-fused loops with non-atom bodies. Loop state (the neighbour
  // cursor, or the colour scan's bitset word and unvisited bits) lives in
  // frame c; env[a] is the bound vertex, env[b] the pivot (or b the plan
  // colour index for the colour forms). Both scans visit their domain in
  // increasing vertex order.
  kEqBind,     // env[a] = env[b]; fall through (single-vertex domain)
  kNScanBegin, // begin Neighbors(env[b]) scan; empty domain jumps f
  kNScanNext,  // advance; jump t (body) or f (exhausted)
  kCScanBegin, // begin scanning plan colour b's bitset; empty jumps f
  kCScanNext,  // advance; jump t (body) or f (exhausted)

  // Counting quantifier ∃^{≥threshold} with a non-atom body.
  kCntBegin, // CHECK order > 0; frame c: needed = b; env[a] = 0
  kCntTop,   // loop guard incl. the interpreter's early abort; exit jumps f
  kCntHit,   // --needed (body was true); falls through to kCntStep
  kCntStep,  // ++env[a]; jump t (the kCntTop)
  kCntExit,  // needed == 0 ? jump t : jump f

  // Superinstructions: quantifier loop + pure-atom body in one opcode.
  // flags carry kFlagExists and kFlagDisjunctive; atoms [c, c + d).
  kScanAtoms,   // full vertex scan (unguarded quantifier)
  kEqBindAtoms, // single-vertex domain env[b] (equality guard)
  kNScanAtoms,  // Neighbors(env[b]) scan (edge guard)
  kCScanAtoms,  // scan of plan colour b's bitset (colour guard)
  kCntAtoms,    // ∃^{≥b} with early abort
};

inline constexpr int kNumVmOps = static_cast<int>(VmOp::kCntAtoms) + 1;

// Human-readable opcode name (per-opcode dispatch counter reporting).
const char* VmOpName(VmOp op);

inline constexpr uint8_t kFlagExists = 1;      // quantifier kind
inline constexpr uint8_t kFlagDisjunctive = 2; // atom-run connective

// One constant-pool atom: an (optionally negated) literal inside a fused
// run. The literal is satisfied when the atom's value equals `expect`.
struct VmAtom {
  uint8_t kind = 0;   // 0 = edge, 1 = equals, 2 = colour
  uint8_t expect = 1; // 0 for a negated literal
  int32_t a = -1;     // slot
  int32_t b = -1;     // slot (edge/equals) or plan colour index (colour)
};

// One fixed-width instruction. Operand meaning is per-opcode (see VmOp);
// unused fields stay -1.
struct VmInst {
  VmOp op = VmOp::kHaltFalse;
  uint8_t flags = 0;
  int32_t a = -1; // slot / memo slot
  int32_t b = -1; // slot, colour index, threshold, or memo value
  int32_t c = -1; // first constant-pool atom, or loop frame index
  int32_t d = -1; // atom count
  int32_t t = -1; // true / loop-body / unconditional jump target
  int32_t f = -1; // false / exhausted target
};

// One executable lane: the instruction stream plus its constant pool.
// Execution starts at code[0]; every path ends in a kHalt*.
struct BytecodeProgram {
  std::vector<VmInst> code;
  std::vector<VmAtom> atoms;
  int32_t num_frames = 0; // loop frames the VM must allocate

  int64_t bytes() const {
    return static_cast<int64_t>(code.capacity()) * sizeof(VmInst) +
           static_cast<int64_t>(atoms.capacity()) * sizeof(VmAtom);
  }
};

// Both lanes of a lowered plan plus lowering diagnostics. Immutable after
// LowerPlan; shareable across threads and graphs exactly like the plan it
// was lowered from (all per-graph state lives in the VM).
struct LoweredPlan {
  // False only for an oversized plan (CompiledFormula::source() set): both
  // programs stay empty and the VM evaluates the source on the
  // interpreter.
  bool supported = false;
  BytecodeProgram fast;
  BytecodeProgram counting;
  // Plan colour indices the fast program scans as guard domains. On a
  // graph that cannot resolve one of these names the VM runs the counting
  // program for every call: its full scans never read a guard domain and
  // reproduce the interpreter's lazy missing-colour semantics at the
  // guard's original position.
  std::vector<int32_t> guard_colors;
  // Diagnostics, surfaced by benches and the server's get-model stats.
  int32_t superinstructions = 0; // fused quantifier+atom-body opcodes
  int32_t fused_atom_runs = 0;   // kAtomRun + superinstruction runs

  int64_t bytes() const {
    return static_cast<int64_t>(sizeof(LoweredPlan)) + fast.bytes() +
           counting.bytes() +
           static_cast<int64_t>(guard_colors.capacity()) * sizeof(int32_t);
  }
};

// Lowers `plan` into both bytecode lanes. Pure function of the plan: safe
// to call concurrently, and the result may be cached and shared (the
// PlanCache stores it next to the plan).
LoweredPlan LowerPlan(const CompiledFormula& plan);

}  // namespace folearn

#endif  // FOLEARN_MC_BYTECODE_H_
