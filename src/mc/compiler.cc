#include "mc/compiler.h"

#include <algorithm>
#include <map>
#include <optional>
#include <tuple>
#include <utility>

#include "util/check.h"

namespace folearn {

namespace {

// Does the binary atom (edge or equality) mention `qvar` on exactly one
// side, i.e. is it E(qvar, z) / qvar = z (or mirrored) for some other
// variable z? Returns the partner variable name or nullptr. Callers check
// the atom kind.
const std::string* GuardPartner(const Formula& atom, const std::string& qvar) {
  const bool first = atom.var1() == qvar;
  const bool second = atom.var2() == qvar;
  if (first == second) return nullptr;  // neither, or E(qvar, qvar)
  return first ? &atom.var2() : &atom.var1();
}

}  // namespace

class FormulaCompiler {
 public:
  explicit FormulaCompiler(std::span<const std::string> free_var_order) {
    plan_.free_vars_.assign(free_var_order.begin(), free_var_order.end());
    used_free_.assign(free_var_order.size(), false);
    for (size_t i = 0; i < free_var_order.size(); ++i) {
      // Reverse lookup finds the later slot, so duplicate names shadow
      // exactly like sequential Assignment::Bind calls.
      element_scope_.emplace_back(free_var_order[i], static_cast<int32_t>(i));
    }
    next_slot_ = static_cast<int32_t>(free_var_order.size());
  }

  CompiledFormula Run(const FormulaRef& formula) {
    FOLEARN_CHECK(formula != nullptr);
    plan_.root_ = Compile(formula);
    if (bound_[plan_.root_] > kMaxLoweredInstructions) {
      plan_.source_ = formula;
    }
    plan_.env_size_ = next_slot_;
    for (size_t i = 0; i < used_free_.size(); ++i) {
      if (used_free_[i]) {
        plan_.used_free_slots_.push_back(static_cast<int32_t>(i));
      }
    }
    return std::move(plan_);
  }

 private:
  // Negative codes < -1 encode free set variables (never bound by a set
  // quantifier in scope): code -(i+1) refers to plan_.free_set_names_[i].
  int32_t ResolveSetVar(const std::string& name) {
    for (auto it = set_scope_.rbegin(); it != set_scope_.rend(); ++it) {
      if (it->first == name) return it->second;
    }
    for (size_t i = 0; i < plan_.free_set_names_.size(); ++i) {
      if (plan_.free_set_names_[i] == name) {
        return -static_cast<int32_t>(i) - 1;
      }
    }
    plan_.free_set_names_.push_back(name);
    return -static_cast<int32_t>(plan_.free_set_names_.size());
  }

  int32_t ResolveVar(const std::string& name) {
    for (auto it = element_scope_.rbegin(); it != element_scope_.rend();
         ++it) {
      if (it->first == name) {
        if (it->second < static_cast<int32_t>(used_free_.size())) {
          used_free_[it->second] = true;
        }
        return it->second;
      }
    }
    FOLEARN_CHECK(false) << "unbound variable '" << name << "'";
    return -1;
  }

  // Resolution without the CHECK, for guard-shape detection.
  int32_t TryResolveVar(const std::string& name) const {
    for (auto it = element_scope_.rbegin(); it != element_scope_.rend();
         ++it) {
      if (it->first == name) return it->second;
    }
    return -1;
  }

  int32_t ColorIndex(const std::string& name) {
    for (size_t i = 0; i < plan_.color_names_.size(); ++i) {
      if (plan_.color_names_[i] == name) return static_cast<int32_t>(i);
    }
    plan_.color_names_.push_back(name);
    return static_cast<int32_t>(plan_.color_names_.size()) - 1;
  }

  enum class GuardKind { kEquals, kEdge, kColor };

  // Guard position for the Exists/Forall node `f`: (index, kind) of the
  // strongest specialisable guard anywhere in the body's top-level
  // connective list (a bare guard body counts as a one-element list).
  // Preference follows domain size: an equality guard qvar = z (∃) /
  // qvar ≠ z (∀) over an already-bound z pins a single vertex, an edge
  // guard E(qvar, z) / ¬E(qvar, z) iterates N(z), and a colour guard
  // Red(qvar) / ¬Red(qvar) iterates the colour class. The guard compiles
  // as an ordinary child node and the counting lane replays the
  // interpreter's left-to-right short-circuit through the whole child
  // list, so — unlike a leading-only rule — any position keeps atom/branch
  // accounting byte-identical to the interpreter.
  std::optional<std::pair<int32_t, GuardKind>> GuardPos(
      const Formula& f) const {
    const std::string& qvar = f.quantified_var();
    const bool is_exists = f.kind() == FormulaKind::kExists;
    // The guard atom appears positively under ∃ and negated under ∀.
    auto positive_part = [&](const Formula& part) -> const Formula* {
      if (is_exists) return &part;
      return part.kind() == FormulaKind::kNot ? part.child(0).get() : nullptr;
    };
    auto binary_guards = [&](const Formula& part, FormulaKind kind) {
      const Formula* atom = positive_part(part);
      if (atom == nullptr || atom->kind() != kind) return false;
      const std::string* partner = GuardPartner(*atom, qvar);
      return partner != nullptr && TryResolveVar(*partner) >= 0;
    };
    auto color_guards = [&](const Formula& part) {
      const Formula* atom = positive_part(part);
      return atom != nullptr && atom->kind() == FormulaKind::kColor &&
             atom->var1() == qvar;
    };
    const Formula& body = *f.child(0);
    const FormulaKind list_kind =
        is_exists ? FormulaKind::kAnd : FormulaKind::kOr;
    auto scan = [&](auto&& guards) -> std::optional<int32_t> {
      if (body.kind() == list_kind) {
        for (size_t i = 0; i < body.children().size(); ++i) {
          if (guards(*body.child(i))) return static_cast<int32_t>(i);
        }
        return std::nullopt;
      }
      if (guards(body)) return 0;
      return std::nullopt;
    };
    auto equals_guards = [&](const Formula& part) {
      return binary_guards(part, FormulaKind::kEquals);
    };
    auto edge_guards = [&](const Formula& part) {
      return binary_guards(part, FormulaKind::kEdge);
    };
    if (std::optional<int32_t> pos = scan(equals_guards)) {
      return std::make_pair(*pos, GuardKind::kEquals);
    }
    if (std::optional<int32_t> pos = scan(edge_guards)) {
      return std::make_pair(*pos, GuardKind::kEdge);
    }
    if (std::optional<int32_t> pos = scan(color_guards)) {
      return std::make_pair(*pos, GuardKind::kColor);
    }
    return std::nullopt;
  }

  bool IsGuarded(const Formula& f) const { return GuardPos(f).has_value(); }

  // Dedup key: node identity plus the slots its free element/set variables
  // currently resolve to. Closed subformulas therefore share one plan node
  // (and one memo slot) across every occurrence; open ones compile per
  // distinct slot environment.
  using Key =
      std::tuple<const Formula*, std::vector<int32_t>, std::vector<int32_t>>;

  Key MakeKey(const FormulaRef& f) {
    std::vector<int32_t> element_slots;
    element_slots.reserve(f->free_variables().size());
    for (const std::string& name : f->free_variables()) {
      element_slots.push_back(ResolveVar(name));
    }
    std::vector<int32_t> set_codes;
    set_codes.reserve(f->free_set_variables().size());
    for (const std::string& name : f->free_set_variables()) {
      set_codes.push_back(ResolveSetVar(name));
    }
    return {f.get(), std::move(element_slots), std::move(set_codes)};
  }

  int32_t Emit(const FormulaRef& f, CompiledNode node,
               std::vector<int32_t> children = {}) {
    node.first_child = static_cast<int32_t>(plan_.child_ids_.size());
    node.num_children = static_cast<int32_t>(children.size());
    plan_.child_ids_.insert(plan_.child_ids_.end(), children.begin(),
                            children.end());
    for (int32_t child : children) {
      node.free_mask |= plan_.nodes_[child].free_mask;
    }
    if (node.child >= 0) node.free_mask |= plan_.nodes_[node.child].free_mask;
    if (f->free_variables().empty() && f->free_set_variables().empty() &&
        node.op != COp::kTrue && node.op != COp::kFalse) {
      node.memo_id = plan_.num_memo_slots_++;
    }
    // Bound on the tree expansion's instructions, clamped above the cap.
    int64_t bound = InstructionBound(node);
    for (int32_t child : children) bound += bound_[child];
    if (node.child >= 0) bound += bound_[node.child];
    bound_.push_back(std::min(bound, kMaxLoweredInstructions + 1));
    plan_.nodes_.push_back(node);
    return static_cast<int32_t>(plan_.nodes_.size()) - 1;
  }

  // Most instructions one occurrence of `node` lowers to in either
  // bytecode program (mc/bytecode.cc), its subformulas excluded:
  //   - a loop per quantifier level, set quantifier or guard scan: begin,
  //     checkpoint, next (a guard scan with an empty body: begin, next,
  //     one jump);
  //   - a counting quantifier's loop: six;
  //   - an atom or a constant: one (a fused run of atoms is one
  //     instruction for two or more);
  //   - ¬ and a non-empty ∧/∨: none (they only route jump targets);
  //   - a memoised node adds the fast program's check and two writes.
  static int64_t InstructionBound(const CompiledNode& node) {
    int64_t own;
    switch (node.op) {
      case COp::kNot:
        own = 0;
        break;
      case COp::kAnd:
      case COp::kOr:
        own = node.num_children == 0 ? 1 : 0;
        break;
      case COp::kExists:
      case COp::kForall:
        own = int64_t{3} * node.b;
        break;
      case COp::kGuardedExists:
      case COp::kGuardedForall:
      case COp::kColorGuardedExists:
      case COp::kColorGuardedForall:
      case COp::kEqGuardedExists:
      case COp::kEqGuardedForall:
      case COp::kExistsSet:
      case COp::kForallSet:
        own = 3;
        break;
      case COp::kCountExists:
        own = 6;
        break;
      default:  // atoms, set membership, constants
        own = 1;
        break;
    }
    return own + (node.memo_id >= 0 ? 3 : 0);
  }

  uint64_t SlotMask(int32_t slot) const {
    if (slot >= 0 && slot < static_cast<int32_t>(used_free_.size()) &&
        slot < 64) {
      return uint64_t{1} << slot;
    }
    return 0;
  }

  int32_t CompileGuarded(const FormulaRef& f) {
    const bool is_exists = f->kind() == FormulaKind::kExists;
    const auto [guard_pos, guard_kind] = *GuardPos(*f);
    CompiledNode node;
    switch (guard_kind) {
      case GuardKind::kEquals:
        node.op = is_exists ? COp::kEqGuardedExists : COp::kEqGuardedForall;
        break;
      case GuardKind::kEdge:
        node.op = is_exists ? COp::kGuardedExists : COp::kGuardedForall;
        break;
      case GuardKind::kColor:
        node.op = is_exists ? COp::kColorGuardedExists
                            : COp::kColorGuardedForall;
        break;
    }
    node.a = next_slot_++;
    node.threshold = guard_pos;
    ++plan_.guarded_nodes_;

    // Children are the body's FULL conjunct/disjunct list — the guard
    // included, compiled like any atom, its index in `threshold` — so the
    // counting lane can replay the interpreter's short-circuit order
    // through the list while the fast lane scans only the guard's domain
    // (a single vertex / Neighbors(env[b]) / the colour class) with the
    // guard skipped.
    const FormulaRef& body = f->child(0);
    const FormulaKind list_kind =
        is_exists ? FormulaKind::kAnd : FormulaKind::kOr;
    std::span<const FormulaRef> parts =
        body->kind() == list_kind ? body->children()
                                  : std::span<const FormulaRef>(&body, 1);
    const Formula& guard_part = *parts[guard_pos];
    const Formula& atom = is_exists ? guard_part : *guard_part.child(0);
    if (guard_kind == GuardKind::kColor) {
      node.b = ColorIndex(atom.color_name());
    } else {
      node.b = ResolveVar(*GuardPartner(atom, f->quantified_var()));
      node.free_mask = SlotMask(node.b);
    }

    element_scope_.emplace_back(f->quantified_var(), node.a);
    std::vector<int32_t> children;
    children.reserve(parts.size());
    for (const FormulaRef& part : parts) children.push_back(Compile(part));
    element_scope_.pop_back();
    return Emit(f, node, std::move(children));
  }

  int32_t CompileQuantifierBlock(const FormulaRef& f) {
    const FormulaKind kind = f->kind();
    CompiledNode node;
    node.op = kind == FormulaKind::kExists ? COp::kExists : COp::kForall;
    node.a = next_slot_;

    // Collect the maximal same-kind run; an inner quantifier that is
    // guard-specialisable stops the run (the guarded loop is worth more
    // than one fused level).
    const Formula* level = f.get();
    std::vector<const std::string*> vars;
    while (true) {
      vars.push_back(&level->quantified_var());
      const Formula& body = *level->child(0);
      if (body.kind() != kind || IsGuarded(body)) break;
      level = &body;
    }
    node.b = static_cast<int32_t>(vars.size());
    next_slot_ += node.b;
    plan_.fused_levels_ += node.b > 1 ? node.b : 0;

    for (size_t i = 0; i < vars.size(); ++i) {
      element_scope_.emplace_back(*vars[i], node.a + static_cast<int32_t>(i));
    }
    node.child = Compile(level->child(0));
    element_scope_.resize(element_scope_.size() - vars.size());
    return Emit(f, node);
  }

  int32_t Compile(const FormulaRef& f) {
    Key key = MakeKey(f);
    auto it = dedup_.find(key);
    if (it != dedup_.end()) return it->second;
    int32_t id = CompileFresh(f);
    dedup_.emplace(std::move(key), id);
    return id;
  }

  int32_t CompileFresh(const FormulaRef& f) {
    CompiledNode node;
    switch (f->kind()) {
      case FormulaKind::kTrue:
        node.op = COp::kTrue;
        return Emit(f, node);
      case FormulaKind::kFalse:
        node.op = COp::kFalse;
        return Emit(f, node);
      case FormulaKind::kEdge:
      case FormulaKind::kEquals:
        node.op = f->kind() == FormulaKind::kEdge ? COp::kEdge : COp::kEquals;
        node.a = ResolveVar(f->var1());
        node.b = ResolveVar(f->var2());
        node.free_mask = SlotMask(node.a) | SlotMask(node.b);
        return Emit(f, node);
      case FormulaKind::kColor:
        node.op = COp::kColor;
        node.a = ResolveVar(f->var1());
        node.b = ColorIndex(f->color_name());
        node.free_mask = SlotMask(node.a);
        return Emit(f, node);
      case FormulaKind::kSetMember:
        node.op = COp::kSetMember;
        node.a = ResolveVar(f->var1());
        node.b = ResolveSetVar(f->set_name());
        node.free_mask = SlotMask(node.a);
        return Emit(f, node);
      case FormulaKind::kNot:
        node.op = COp::kNot;
        node.child = Compile(f->child(0));
        return Emit(f, node);
      case FormulaKind::kAnd:
      case FormulaKind::kOr: {
        node.op = f->kind() == FormulaKind::kAnd ? COp::kAnd : COp::kOr;
        std::vector<int32_t> children;
        children.reserve(f->children().size());
        for (const FormulaRef& child : f->children()) {
          children.push_back(Compile(child));
        }
        return Emit(f, node, std::move(children));
      }
      case FormulaKind::kCountExists:
        node.op = COp::kCountExists;
        node.a = next_slot_++;
        node.threshold = f->threshold();
        element_scope_.emplace_back(f->quantified_var(), node.a);
        node.child = Compile(f->child(0));
        element_scope_.pop_back();
        return Emit(f, node);
      case FormulaKind::kExists:
      case FormulaKind::kForall:
        if (IsGuarded(*f)) return CompileGuarded(f);
        return CompileQuantifierBlock(f);
      case FormulaKind::kExistsSet:
      case FormulaKind::kForallSet: {
        node.op = f->kind() == FormulaKind::kExistsSet ? COp::kExistsSet
                                                       : COp::kForallSet;
        node.a = plan_.num_set_slots();
        plan_.set_slot_names_.push_back(f->quantified_var());
        set_scope_.emplace_back(f->quantified_var(), node.a);
        node.child = Compile(f->child(0));
        set_scope_.pop_back();
        return Emit(f, node);
      }
    }
    FOLEARN_CHECK(false) << "unreachable";
    return -1;
  }

  CompiledFormula plan_;
  std::vector<std::pair<std::string, int32_t>> element_scope_;
  std::vector<std::pair<std::string, int32_t>> set_scope_;
  std::vector<bool> used_free_;
  std::map<Key, int32_t> dedup_;
  std::vector<int64_t> bound_;  // per plan node: InstructionBound, inlined
  int32_t next_slot_ = 0;
};

CompiledFormula CompileFormula(const FormulaRef& formula,
                               std::span<const std::string> free_var_order) {
  return FormulaCompiler(free_var_order).Run(formula);
}

}  // namespace folearn
