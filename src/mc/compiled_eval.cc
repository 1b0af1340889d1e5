#include "mc/compiled_eval.h"

#include <algorithm>
#include <optional>

namespace folearn {

CompiledEvaluator::CompiledEvaluator(const CompiledFormula& plan,
                                     const Graph& graph,
                                     const EvalOptions& options)
    : plan_(plan), graph_(graph), options_(options) {
  colors_.reserve(plan.color_names().size());
  for (const std::string& name : plan.color_names()) {
    std::optional<ColorId> color = graph.FindColor(name);
    // Unresolved colours stay -1 and fail (or evaluate to false) only when
    // the atom actually executes — the interpreter's lazy semantics.
    colors_.push_back(color.has_value() ? *color : ColorId{-1});
  }
  env_.assign(plan.env_size(), 0);
  set_buffers_.resize(plan.num_set_slots());
  set_env_.assign(plan.num_set_slots(), nullptr);
  memo_.assign(plan.num_memo_slots(), -1);
}

bool CompiledEvaluator::Eval(std::span<const Vertex> tuple, EvalStats* stats) {
  FOLEARN_CHECK_EQ(tuple.size(), plan_.free_vars().size());
  stats_ = stats;
  counting_ = stats != nullptr || options_.governor != nullptr;
  for (size_t i = 0; i < tuple.size(); ++i) {
    env_[i] = tuple[i];
  }
  for (int32_t slot : plan_.used_free_slots()) {
    FOLEARN_CHECK(graph_.IsValidVertex(env_[slot]))
        << "variable '" << plan_.free_vars()[slot]
        << "' bound to invalid vertex " << env_[slot];
  }
  bool value = EvalNode(plan_.root());
  if (stats != nullptr) stats->status = GovernorStatus(options_.governor);
  return value;
}

bool CompiledEvaluator::EvalNode(int32_t id) {
  const CompiledNode& node = plan_.nodes()[id];
  if (node.memo_id >= 0 && !counting_) {
    int8_t& memo = memo_[node.memo_id];
    if (memo >= 0) return memo != 0;
    bool value = EvalRaw(node);
    memo = value ? 1 : 0;
    return value;
  }
  return EvalRaw(node);
}

bool CompiledEvaluator::EvalRaw(const CompiledNode& node) {
  switch (node.op) {
    case COp::kTrue:
      return true;
    case COp::kFalse:
      return false;
    case COp::kEdge:
      CountAtom();
      return graph_.HasEdge(env_[node.a], env_[node.b]);
    case COp::kEquals:
      CountAtom();
      return env_[node.a] == env_[node.b];
    case COp::kColor: {
      CountAtom();
      const ColorId color = colors_[node.b];
      if (color < 0) {
        FOLEARN_CHECK(options_.missing_color_is_false)
            << "colour '" << plan_.color_names()[node.b]
            << "' not in the graph's vocabulary";
        return false;
      }
      return graph_.HasColor(env_[node.a], color);
    }
    case COp::kSetMember: {
      CountAtom();
      FOLEARN_CHECK(node.b >= 0)
          << "unbound set variable '"
          << plan_.free_set_names()[-node.b - 1] << "'";
      const std::vector<bool>* members = set_env_[node.b];
      FOLEARN_CHECK(members != nullptr)
          << "unbound set variable '" << plan_.set_slot_names()[node.b]
          << "'";
      return (*members)[env_[node.a]];
    }
    case COp::kNot:
      return !EvalNode(node.child);
    case COp::kAnd:
      return EvalConjuncts(node);
    case COp::kOr:
      return EvalDisjuncts(node);
    case COp::kExists:
    case COp::kForall:
      return EvalBlock(node, 0);
    case COp::kGuardedExists:
    case COp::kGuardedForall:
    case COp::kColorGuardedExists:
    case COp::kColorGuardedForall:
    case COp::kEqGuardedExists:
    case COp::kEqGuardedForall:
      return EvalGuarded(node);
    case COp::kCountExists:
      return EvalCountExists(node);
    case COp::kExistsSet:
    case COp::kForallSet:
      return EvalSetQuantifier(node);
  }
  FOLEARN_CHECK(false) << "unreachable";
  return false;
}

bool CompiledEvaluator::EvalConjuncts(const CompiledNode& node) {
  for (int32_t child : plan_.children(node)) {
    if (!EvalNode(child)) return false;
  }
  return true;
}

bool CompiledEvaluator::EvalDisjuncts(const CompiledNode& node) {
  for (int32_t child : plan_.children(node)) {
    if (EvalNode(child)) return true;
  }
  return false;
}

// One level of a fused same-kind quantifier block: slots [a, a+b).
bool CompiledEvaluator::EvalBlock(const CompiledNode& node, int32_t level) {
  FOLEARN_CHECK_GT(graph_.order(), 0)
      << "quantifier evaluated on the empty graph";
  const bool is_exists = node.op == COp::kExists;
  const int32_t slot = node.a + level;
  const bool innermost = level + 1 == node.b;
  for (Vertex v = 0; v < graph_.order(); ++v) {
    if (counting_) {
      if (!GovernorCheckpoint(options_.governor)) return false;
      CountBranch();
    }
    env_[slot] = v;
    const bool value =
        innermost ? EvalNode(node.child) : EvalBlock(node, level + 1);
    if (value == is_exists) return is_exists;
  }
  return !is_exists;
}

// ∃y (… ∧ g(y) ∧ …) / ∀y (… ∨ ¬g(y) ∨ …) for a guard atom g: an equality
// y = x (x = env[b]), an edge E(x, y), or a colour Red(y). Children are
// the body's full conjunct/disjunct list; children[threshold] is the
// guard. The fast lane scans only the guard's domain — the single vertex
// x, Neighbors(x), or the colour class — where the guard is known true
// (∃) / false (∀), so it is skipped and only the remaining parts run. The
// counting lane replays the interpreter's full vertex scan (checkpoint +
// branch per vertex, left-to-right short-circuit through the child list,
// each child counting its own atoms — the guard included) so governed
// runs cut at identical points. An unresolved guard colour also takes the
// full scan, so the compiled colour atom reproduces the interpreter's
// lazy missing-colour semantics (false or CHECK) at its interpreter
// position.
bool CompiledEvaluator::EvalGuarded(const CompiledNode& node) {
  FOLEARN_CHECK_GT(graph_.order(), 0)
      << "quantifier evaluated on the empty graph";
  const bool is_exists = node.op == COp::kGuardedExists ||
                         node.op == COp::kColorGuardedExists ||
                         node.op == COp::kEqGuardedExists;
  const bool is_color = node.op == COp::kColorGuardedExists ||
                        node.op == COp::kColorGuardedForall;
  const bool is_equals = node.op == COp::kEqGuardedExists ||
                         node.op == COp::kEqGuardedForall;
  std::span<const int32_t> children = plan_.children(node);
  const int32_t guard = node.threshold;
  if (!counting_ && (!is_color || colors_[node.b] >= 0)) {
    // Non-members never matter: the guard kills the conjunction (∃) or
    // satisfies the disjunction (∀) by itself, so only the guard's domain
    // is scanned. decided(v): binding v settles the quantifier — every
    // other conjunct holds (∃), or none of the other disjuncts does (∀).
    auto decided = [&](Vertex v) {
      env_[node.a] = v;
      for (int32_t i = 0; i < node.num_children; ++i) {
        if (i != guard && EvalNode(children[i]) != is_exists) return false;
      }
      return true;
    };
    bool hit;
    if (is_equals) {
      hit = decided(env_[node.b]);
    } else if (is_color) {
      hit = AnySetBit(graph_.ColorWords(colors_[node.b]), decided);
    } else {
      hit = std::ranges::any_of(graph_.Neighbors(env_[node.b]), decided);
    }
    return hit == is_exists;
  }
  for (Vertex v = 0; v < graph_.order(); ++v) {
    if (!GovernorCheckpoint(options_.governor)) return false;
    CountBranch();
    env_[node.a] = v;
    if (is_exists) {
      bool all = true;
      for (int32_t child : children) {
        if (!EvalNode(child)) {
          all = false;
          break;
        }
      }
      if (all) return true;
    } else {
      bool any = false;
      for (int32_t child : children) {
        if (EvalNode(child)) {
          any = true;
          break;
        }
      }
      if (!any) return false;
    }
  }
  return !is_exists;
}

bool CompiledEvaluator::EvalCountExists(const CompiledNode& node) {
  FOLEARN_CHECK_GT(graph_.order(), 0)
      << "quantifier evaluated on the empty graph";
  int needed = node.threshold;
  for (Vertex v = 0; v < graph_.order() && needed > 0; ++v) {
    // Early abort: not enough vertices left to reach the threshold.
    if (graph_.order() - v < needed) break;
    if (counting_) {
      if (!GovernorCheckpoint(options_.governor)) return false;
      CountBranch();
    }
    env_[node.a] = v;
    if (EvalNode(node.child)) --needed;
  }
  return needed == 0;
}

bool CompiledEvaluator::EvalSetQuantifier(const CompiledNode& node) {
  FOLEARN_CHECK_LE(graph_.order(), 22)
      << "MSO set quantification enumerates 2^n subsets; structure too "
         "large";
  const bool is_exists = node.op == COp::kExistsSet;
  std::vector<bool>& buffer = set_buffers_[node.a];
  buffer.assign(graph_.order(), false);
  set_env_[node.a] = &buffer;
  const uint64_t subsets = uint64_t{1} << graph_.order();
  for (uint64_t mask = 0; mask < subsets; ++mask) {
    if (counting_) {
      if (!GovernorCheckpoint(options_.governor)) {
        set_env_[node.a] = nullptr;
        return false;
      }
      CountBranch();
    }
    for (Vertex v = 0; v < graph_.order(); ++v) {
      buffer[v] = (mask >> v) & 1;
    }
    const bool value = EvalNode(node.child);
    if (value == is_exists) {
      set_env_[node.a] = nullptr;
      return is_exists;
    }
  }
  set_env_[node.a] = nullptr;
  return !is_exists;
}

}  // namespace folearn
