#include "fo/transform.h"

#include <algorithm>

namespace folearn {

std::string FreshVariablePool::Fresh(const std::string& hint) {
  while (true) {
    std::string candidate = "_" + hint + std::to_string(++counter_);
    if (used_.insert(candidate).second) return candidate;
  }
}

std::set<std::string> CollectVariableNames(const FormulaRef& f) {
  std::set<std::string> names;
  std::vector<const Formula*> stack = {f.get()};
  while (!stack.empty()) {
    const Formula* node = stack.back();
    stack.pop_back();
    switch (node->kind()) {
      case FormulaKind::kEdge:
      case FormulaKind::kEquals:
        names.insert(node->var1());
        names.insert(node->var2());
        break;
      case FormulaKind::kColor:
      case FormulaKind::kSetMember:
        names.insert(node->var1());
        break;
      case FormulaKind::kExists:
      case FormulaKind::kForall:
      case FormulaKind::kCountExists:
        names.insert(node->quantified_var());
        break;
      default:
        break;
    }
    for (const FormulaRef& child : node->children()) {
      stack.push_back(child.get());
    }
  }
  return names;
}

namespace {

using Renaming = std::unordered_map<std::string, std::string>;

std::string Apply(const Renaming& renaming, const std::string& var) {
  auto it = renaming.find(var);
  return it == renaming.end() ? var : it->second;
}

// Recursive capture-avoiding renaming. `pool` supplies fresh names for
// alpha-renaming when a binder would capture a substituted target.
FormulaRef RenameRec(const FormulaRef& f, Renaming renaming,
                     FreshVariablePool& pool) {
  // Drop entries not free in f (both keeps the recursion cheap and makes the
  // capture check precise).
  for (auto it = renaming.begin(); it != renaming.end();) {
    if (!f->HasFreeVariable(it->first) || it->first == it->second) {
      it = renaming.erase(it);
    } else {
      ++it;
    }
  }
  if (renaming.empty()) return f;
  switch (f->kind()) {
    case FormulaKind::kTrue:
    case FormulaKind::kFalse:
      return f;
    case FormulaKind::kEdge:
      return Formula::Edge(Apply(renaming, f->var1()),
                           Apply(renaming, f->var2()));
    case FormulaKind::kEquals:
      return Formula::Equals(Apply(renaming, f->var1()),
                             Apply(renaming, f->var2()));
    case FormulaKind::kColor:
      return Formula::Color(f->color_name(), Apply(renaming, f->var1()));
    case FormulaKind::kSetMember:
      return Formula::SetMember(Apply(renaming, f->var1()), f->set_name());
    case FormulaKind::kNot:
      return Formula::Not(RenameRec(f->child(0), renaming, pool));
    case FormulaKind::kAnd:
    case FormulaKind::kOr: {
      std::vector<FormulaRef> children;
      children.reserve(f->children().size());
      for (const FormulaRef& child : f->children()) {
        children.push_back(RenameRec(child, renaming, pool));
      }
      return f->kind() == FormulaKind::kAnd
                 ? Formula::And(std::move(children))
                 : Formula::Or(std::move(children));
    }
    case FormulaKind::kExists:
    case FormulaKind::kForall:
    case FormulaKind::kCountExists: {
      std::string bound = f->quantified_var();
      FormulaRef body = f->child(0);
      renaming.erase(bound);  // bound occurrences are not renamed
      // Capture check: if some target name equals the binder, alpha-rename.
      bool captures = false;
      for (const auto& [from, to] : renaming) {
        if (to == bound && body->HasFreeVariable(from)) {
          captures = true;
          break;
        }
      }
      if (captures) {
        std::string fresh = pool.Fresh(bound);
        Renaming alpha = {{bound, fresh}};
        body = RenameRec(body, alpha, pool);
        bound = fresh;
      }
      body = RenameRec(body, renaming, pool);
      if (f->kind() == FormulaKind::kCountExists) {
        return Formula::CountExists(f->threshold(), std::move(bound),
                                    std::move(body));
      }
      return f->kind() == FormulaKind::kExists
                 ? Formula::Exists(std::move(bound), std::move(body))
                 : Formula::Forall(std::move(bound), std::move(body));
    }
    case FormulaKind::kExistsSet:
    case FormulaKind::kForallSet: {
      // Set binders live in a separate namespace: element renaming passes
      // straight through.
      FormulaRef body = RenameRec(f->child(0), renaming, pool);
      return f->kind() == FormulaKind::kExistsSet
                 ? Formula::ExistsSet(f->quantified_var(), std::move(body))
                 : Formula::ForallSet(f->quantified_var(), std::move(body));
    }
  }
  FOLEARN_CHECK(false) << "unreachable";
  return nullptr;
}

}  // namespace

FormulaRef RenameFreeVariables(const FormulaRef& f, const Renaming& renaming) {
  std::set<std::string> used = CollectVariableNames(f);
  for (const auto& [from, to] : renaming) {
    used.insert(from);
    used.insert(to);
  }
  FreshVariablePool pool(std::move(used));
  return RenameRec(f, renaming, pool);
}

namespace {

FormulaRef AvoidRec(const FormulaRef& f, const std::set<std::string>& avoid,
                    FreshVariablePool& pool) {
  switch (f->kind()) {
    case FormulaKind::kTrue:
    case FormulaKind::kFalse:
    case FormulaKind::kEdge:
    case FormulaKind::kEquals:
    case FormulaKind::kColor:
    case FormulaKind::kSetMember:
      return f;
    case FormulaKind::kNot:
      return Formula::Not(AvoidRec(f->child(0), avoid, pool));
    case FormulaKind::kAnd:
    case FormulaKind::kOr: {
      std::vector<FormulaRef> children;
      for (const FormulaRef& child : f->children()) {
        children.push_back(AvoidRec(child, avoid, pool));
      }
      return f->kind() == FormulaKind::kAnd
                 ? Formula::And(std::move(children))
                 : Formula::Or(std::move(children));
    }
    case FormulaKind::kExists:
    case FormulaKind::kForall:
    case FormulaKind::kCountExists: {
      std::string bound = f->quantified_var();
      FormulaRef body = AvoidRec(f->child(0), avoid, pool);
      if (avoid.count(bound) > 0) {
        std::string fresh = pool.Fresh(bound);
        body = RenameFreeVariables(body, {{bound, fresh}});
        bound = fresh;
      }
      if (f->kind() == FormulaKind::kCountExists) {
        return Formula::CountExists(f->threshold(), std::move(bound),
                                    std::move(body));
      }
      return f->kind() == FormulaKind::kExists
                 ? Formula::Exists(std::move(bound), std::move(body))
                 : Formula::Forall(std::move(bound), std::move(body));
    }
    case FormulaKind::kExistsSet:
    case FormulaKind::kForallSet: {
      FormulaRef body = AvoidRec(f->child(0), avoid, pool);
      return f->kind() == FormulaKind::kExistsSet
                 ? Formula::ExistsSet(f->quantified_var(), std::move(body))
                 : Formula::ForallSet(f->quantified_var(), std::move(body));
    }
  }
  FOLEARN_CHECK(false) << "unreachable";
  return nullptr;
}

// Alpha-renames every *bound* variable whose name appears in `avoid`.
FormulaRef AvoidBoundVariables(const FormulaRef& f,
                               const std::set<std::string>& avoid) {
  std::set<std::string> used = CollectVariableNames(f);
  used.insert(avoid.begin(), avoid.end());
  FreshVariablePool pool(std::move(used));
  return AvoidRec(f, avoid, pool);
}

FormulaRef EliminateRec(
    const FormulaRef& f, const std::string& var, const std::string& pt_color,
    const std::string& qt_color,
    const std::function<bool(const std::string&)>& color_truth) {
  if (!f->HasFreeVariable(var)) return f;
  switch (f->kind()) {
    case FormulaKind::kTrue:
    case FormulaKind::kFalse:
      return f;
    case FormulaKind::kEquals:
      // var = var never survives construction (folded to true).
      if (f->var1() == var) return Formula::Color(pt_color, f->var2());
      if (f->var2() == var) return Formula::Color(pt_color, f->var1());
      return f;
    case FormulaKind::kEdge:
      if (f->var1() == var) return Formula::Color(qt_color, f->var2());
      if (f->var2() == var) return Formula::Color(qt_color, f->var1());
      return f;
    case FormulaKind::kColor:
      if (f->var1() == var) {
        return color_truth(f->color_name()) ? Formula::True()
                                            : Formula::False();
      }
      return f;
    case FormulaKind::kSetMember:
      FOLEARN_CHECK_NE(f->var1(), var)
          << "variable elimination does not support MSO membership atoms "
             "on the eliminated variable";
      return f;
    case FormulaKind::kNot:
      return Formula::Not(
          EliminateRec(f->child(0), var, pt_color, qt_color, color_truth));
    case FormulaKind::kAnd:
    case FormulaKind::kOr: {
      std::vector<FormulaRef> children;
      for (const FormulaRef& child : f->children()) {
        children.push_back(
            EliminateRec(child, var, pt_color, qt_color, color_truth));
      }
      return f->kind() == FormulaKind::kAnd
                 ? Formula::And(std::move(children))
                 : Formula::Or(std::move(children));
    }
    case FormulaKind::kExists:
    case FormulaKind::kForall:
    case FormulaKind::kCountExists: {
      // HasFreeVariable(var) ruled out shadowing: the binder differs.
      FormulaRef body =
          EliminateRec(f->child(0), var, pt_color, qt_color, color_truth);
      if (f->kind() == FormulaKind::kCountExists) {
        return Formula::CountExists(f->threshold(), f->quantified_var(),
                                    std::move(body));
      }
      return f->kind() == FormulaKind::kExists
                 ? Formula::Exists(f->quantified_var(), std::move(body))
                 : Formula::Forall(f->quantified_var(), std::move(body));
    }
    case FormulaKind::kExistsSet:
    case FormulaKind::kForallSet: {
      FormulaRef body =
          EliminateRec(f->child(0), var, pt_color, qt_color, color_truth);
      return f->kind() == FormulaKind::kExistsSet
                 ? Formula::ExistsSet(f->quantified_var(), std::move(body))
                 : Formula::ForallSet(f->quantified_var(), std::move(body));
    }
  }
  FOLEARN_CHECK(false) << "unreachable";
  return nullptr;
}

}  // namespace

FormulaRef EliminateVariableViaColors(
    const FormulaRef& f, const std::string& var, const std::string& pt_color,
    const std::string& qt_color,
    const std::function<bool(const std::string&)>& color_truth) {
  return EliminateRec(f, var, pt_color, qt_color, color_truth);
}

FormulaRef ReplaceColorsWithFalse(const FormulaRef& f,
                                  const std::set<std::string>& colors) {
  switch (f->kind()) {
    case FormulaKind::kTrue:
    case FormulaKind::kFalse:
    case FormulaKind::kEdge:
    case FormulaKind::kEquals:
      return f;
    case FormulaKind::kColor:
      return colors.count(f->color_name()) > 0 ? Formula::False() : f;
    case FormulaKind::kNot:
      return Formula::Not(ReplaceColorsWithFalse(f->child(0), colors));
    case FormulaKind::kAnd:
    case FormulaKind::kOr: {
      std::vector<FormulaRef> children;
      for (const FormulaRef& child : f->children()) {
        children.push_back(ReplaceColorsWithFalse(child, colors));
      }
      return f->kind() == FormulaKind::kAnd
                 ? Formula::And(std::move(children))
                 : Formula::Or(std::move(children));
    }
    case FormulaKind::kExists:
      return Formula::Exists(f->quantified_var(),
                             ReplaceColorsWithFalse(f->child(0), colors));
    case FormulaKind::kForall:
      return Formula::Forall(f->quantified_var(),
                             ReplaceColorsWithFalse(f->child(0), colors));
    case FormulaKind::kCountExists:
      return Formula::CountExists(
          f->threshold(), f->quantified_var(),
          ReplaceColorsWithFalse(f->child(0), colors));
    case FormulaKind::kSetMember:
      return f;
    case FormulaKind::kExistsSet:
      return Formula::ExistsSet(f->quantified_var(),
                                ReplaceColorsWithFalse(f->child(0), colors));
    case FormulaKind::kForallSet:
      return Formula::ForallSet(f->quantified_var(),
                                ReplaceColorsWithFalse(f->child(0), colors));
  }
  FOLEARN_CHECK(false) << "unreachable";
  return nullptr;
}

FormulaRef DistAtMost(const std::string& x, const std::string& y, int d,
                      FreshVariablePool& pool) {
  FOLEARN_CHECK_GE(d, 0);
  if (d == 0) return Formula::Equals(x, y);
  if (d == 1) return Formula::Or(Formula::Equals(x, y), Formula::Edge(x, y));
  int first_half = (d + 1) / 2;
  int second_half = d - first_half;
  std::string mid = pool.Fresh("m");
  return Formula::Exists(
      mid, Formula::And(DistAtMost(x, mid, first_half, pool),
                        DistAtMost(mid, y, second_half, pool)));
}

FormulaRef DistToTupleAtMost(const std::string& y,
                             const std::vector<std::string>& centers, int d,
                             FreshVariablePool& pool) {
  std::vector<FormulaRef> parts;
  parts.reserve(centers.size());
  for (const std::string& center : centers) {
    parts.push_back(DistAtMost(center, y, d, pool));
  }
  return Formula::Or(std::move(parts));
}

namespace {

FormulaRef RelativizeRec(const FormulaRef& f,
                         const std::vector<std::string>& centers, int r,
                         FreshVariablePool& pool) {
  switch (f->kind()) {
    case FormulaKind::kTrue:
    case FormulaKind::kFalse:
    case FormulaKind::kEdge:
    case FormulaKind::kEquals:
    case FormulaKind::kColor:
      return f;
    case FormulaKind::kNot:
      return Formula::Not(RelativizeRec(f->child(0), centers, r, pool));
    case FormulaKind::kAnd:
    case FormulaKind::kOr: {
      std::vector<FormulaRef> children;
      for (const FormulaRef& child : f->children()) {
        children.push_back(RelativizeRec(child, centers, r, pool));
      }
      return f->kind() == FormulaKind::kAnd
                 ? Formula::And(std::move(children))
                 : Formula::Or(std::move(children));
    }
    case FormulaKind::kExists: {
      FormulaRef body = RelativizeRec(f->child(0), centers, r, pool);
      FormulaRef guard = DistToTupleAtMost(f->quantified_var(), centers, r,
                                           pool);
      return Formula::Exists(f->quantified_var(),
                             Formula::And(std::move(guard), std::move(body)));
    }
    case FormulaKind::kForall: {
      FormulaRef body = RelativizeRec(f->child(0), centers, r, pool);
      FormulaRef guard = DistToTupleAtMost(f->quantified_var(), centers, r,
                                           pool);
      return Formula::Forall(
          f->quantified_var(),
          Formula::Implies(std::move(guard), std::move(body)));
    }
    case FormulaKind::kCountExists: {
      FormulaRef body = RelativizeRec(f->child(0), centers, r, pool);
      FormulaRef guard = DistToTupleAtMost(f->quantified_var(), centers, r,
                                           pool);
      return Formula::CountExists(
          f->threshold(), f->quantified_var(),
          Formula::And(std::move(guard), std::move(body)));
    }
    case FormulaKind::kSetMember:
      return f;
    case FormulaKind::kExistsSet:
      return Formula::ExistsSet(f->quantified_var(),
                                RelativizeRec(f->child(0), centers, r, pool));
    case FormulaKind::kForallSet:
      return Formula::ForallSet(f->quantified_var(),
                                RelativizeRec(f->child(0), centers, r, pool));
  }
  FOLEARN_CHECK(false) << "unreachable";
  return nullptr;
}

}  // namespace

FormulaRef RelativizeToBall(const FormulaRef& f,
                            const std::vector<std::string>& centers, int r) {
  FOLEARN_CHECK_GE(r, 0);
  FOLEARN_CHECK(!centers.empty());
  std::set<std::string> center_set(centers.begin(), centers.end());
  FormulaRef clean = AvoidBoundVariables(f, center_set);
  std::set<std::string> used = CollectVariableNames(clean);
  used.insert(center_set.begin(), center_set.end());
  FreshVariablePool pool(std::move(used));
  return RelativizeRec(clean, centers, r, pool);
}

}  // namespace folearn
