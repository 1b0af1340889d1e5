#include "fo/formula.h"

#include <algorithm>
#include <initializer_list>
#include <unordered_set>

namespace folearn {

namespace {

// Merges sorted unique string vectors.
std::vector<std::string> MergeSorted(const std::vector<std::string>& a,
                                     const std::vector<std::string>& b) {
  std::vector<std::string> merged;
  merged.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(merged));
  return merged;
}

}  // namespace

bool Formula::HasFreeVariable(const std::string& name) const {
  return std::binary_search(free_variables_.begin(), free_variables_.end(),
                            name);
}

int64_t Formula::DagSize() const {
  std::unordered_set<const Formula*> seen;
  std::vector<const Formula*> stack = {this};
  while (!stack.empty()) {
    const Formula* node = stack.back();
    stack.pop_back();
    if (!seen.insert(node).second) continue;
    for (const FormulaRef& child : node->children_) {
      stack.push_back(child.get());
    }
  }
  return static_cast<int64_t>(seen.size());
}

FormulaRef Formula::Make(Formula node) {
  return std::shared_ptr<const Formula>(new Formula(std::move(node)));
}

FormulaRef Formula::True() {
  static const FormulaRef instance = Make(Formula());
  return instance;
}

FormulaRef Formula::False() {
  static const FormulaRef instance = [] {
    Formula node;
    node.kind_ = FormulaKind::kFalse;
    return Make(std::move(node));
  }();
  return instance;
}

FormulaRef Formula::Edge(std::string x, std::string y) {
  FOLEARN_CHECK(!x.empty() && !y.empty());
  Formula node;
  node.kind_ = FormulaKind::kEdge;
  node.var1_ = std::move(x);
  node.var2_ = std::move(y);
  if (node.var1_ == node.var2_) return False();  // E is irreflexive
  node.free_variables_ = {node.var1_, node.var2_};
  std::sort(node.free_variables_.begin(), node.free_variables_.end());
  return Make(std::move(node));
}

FormulaRef Formula::Color(std::string color, std::string x) {
  FOLEARN_CHECK(!color.empty() && !x.empty());
  FOLEARN_CHECK(color != "E") << "'E' is reserved for the edge relation";
  Formula node;
  node.kind_ = FormulaKind::kColor;
  node.color_name_ = std::move(color);
  node.var1_ = std::move(x);
  node.free_variables_ = {node.var1_};
  return Make(std::move(node));
}

FormulaRef Formula::Equals(std::string x, std::string y) {
  FOLEARN_CHECK(!x.empty() && !y.empty());
  if (x == y) return True();
  Formula node;
  node.kind_ = FormulaKind::kEquals;
  node.var1_ = std::move(x);
  node.var2_ = std::move(y);
  node.free_variables_ = {node.var1_, node.var2_};
  std::sort(node.free_variables_.begin(), node.free_variables_.end());
  return Make(std::move(node));
}

FormulaRef Formula::Not(FormulaRef f) {
  FOLEARN_CHECK(f != nullptr);
  if (f->kind_ == FormulaKind::kTrue) return False();
  if (f->kind_ == FormulaKind::kFalse) return True();
  if (f->kind_ == FormulaKind::kNot) return f->children_[0];  // ¬¬φ = φ
  Formula node;
  node.kind_ = FormulaKind::kNot;
  node.quantifier_rank_ = f->quantifier_rank_;
  node.free_variables_ = f->free_variables_;
  node.free_set_variables_ = f->free_set_variables_;
  node.children_.push_back(std::move(f));
  return Make(std::move(node));
}

FormulaRef Formula::MakeNary(FormulaKind kind, std::vector<FormulaRef> fs) {
  // Flatten nested nodes of the same kind and fold the identity/absorbing
  // constants (true/false for And; false/true for Or).
  const bool is_and = kind == FormulaKind::kAnd;
  const FormulaKind identity =
      is_and ? FormulaKind::kTrue : FormulaKind::kFalse;
  const FormulaKind absorbing =
      is_and ? FormulaKind::kFalse : FormulaKind::kTrue;
  std::vector<FormulaRef> flat;
  std::vector<FormulaRef> stack(fs.rbegin(), fs.rend());
  while (!stack.empty()) {
    FormulaRef f = std::move(stack.back());
    stack.pop_back();
    FOLEARN_CHECK(f != nullptr);
    if (f->kind() == identity) continue;
    if (f->kind() == absorbing) {
      return is_and ? Formula::False() : Formula::True();
    }
    if (f->kind() == kind) {
      auto children = f->children();
      for (auto it = children.rbegin(); it != children.rend(); ++it) {
        stack.push_back(*it);
      }
      continue;
    }
    flat.push_back(std::move(f));
  }
  // Deduplicate identical shared nodes (pointer equality only — cheap and
  // catches the duplication Hintikka construction would otherwise produce).
  std::vector<FormulaRef> unique;
  for (FormulaRef& f : flat) {
    bool duplicate = false;
    for (const FormulaRef& g : unique) {
      if (g.get() == f.get()) {
        duplicate = true;
        break;
      }
    }
    if (!duplicate) unique.push_back(std::move(f));
  }
  if (unique.empty()) return is_and ? Formula::True() : Formula::False();
  if (unique.size() == 1) return unique[0];
  Formula node;
  node.kind_ = kind;
  for (const FormulaRef& f : unique) {
    node.quantifier_rank_ =
        std::max(node.quantifier_rank_, f->quantifier_rank());
    node.free_variables_ =
        MergeSorted(node.free_variables_, f->free_variables());
    node.free_set_variables_ =
        MergeSorted(node.free_set_variables_, f->free_set_variables());
  }
  node.children_ = std::move(unique);
  return Make(std::move(node));
}

FormulaRef Formula::And(std::vector<FormulaRef> fs) {
  return MakeNary(FormulaKind::kAnd, std::move(fs));
}

FormulaRef Formula::Or(std::vector<FormulaRef> fs) {
  return MakeNary(FormulaKind::kOr, std::move(fs));
}

FormulaRef Formula::And(FormulaRef a, FormulaRef b) {
  std::vector<FormulaRef> fs;
  fs.push_back(std::move(a));
  fs.push_back(std::move(b));
  return And(std::move(fs));
}

FormulaRef Formula::Or(FormulaRef a, FormulaRef b) {
  std::vector<FormulaRef> fs;
  fs.push_back(std::move(a));
  fs.push_back(std::move(b));
  return Or(std::move(fs));
}

FormulaRef Formula::Implies(FormulaRef a, FormulaRef b) {
  return Or(Not(std::move(a)), std::move(b));
}

FormulaRef Formula::Iff(FormulaRef a, FormulaRef b) {
  return And(Implies(a, b), Implies(b, a));
}

FormulaRef Formula::MakeQuantifier(FormulaKind kind, std::string var,
                                   FormulaRef body) {
  FOLEARN_CHECK(!var.empty());
  FOLEARN_CHECK(body != nullptr);
  if (body->kind_ == FormulaKind::kTrue || body->kind_ == FormulaKind::kFalse) {
    // Quantification over a non-empty domain preserves constants. (All our
    // graphs are non-empty whenever a quantifier is evaluated; evaluation
    // additionally handles the empty graph explicitly.)
    return body;
  }
  Formula node;
  node.kind_ = kind;
  node.quantifier_rank_ = body->quantifier_rank_ + 1;
  node.free_variables_ = body->free_variables_;
  node.free_set_variables_ = body->free_set_variables_;
  auto it = std::lower_bound(node.free_variables_.begin(),
                             node.free_variables_.end(), var);
  if (it != node.free_variables_.end() && *it == var) {
    node.free_variables_.erase(it);
  }
  node.quantified_var_ = std::move(var);
  node.children_.push_back(std::move(body));
  return Make(std::move(node));
}

FormulaRef Formula::Exists(std::string var, FormulaRef body) {
  return MakeQuantifier(FormulaKind::kExists, std::move(var), std::move(body));
}

FormulaRef Formula::Forall(std::string var, FormulaRef body) {
  return MakeQuantifier(FormulaKind::kForall, std::move(var), std::move(body));
}

FormulaRef Formula::CountExists(int threshold, std::string var,
                                FormulaRef body) {
  FOLEARN_CHECK(!var.empty());
  FOLEARN_CHECK(body != nullptr);
  if (threshold <= 0) return True();  // 0 witnesses always exist
  if (threshold == 1) return Exists(std::move(var), std::move(body));
  if (body->kind() == FormulaKind::kFalse) return False();
  // Note: a `true` body cannot be folded — ∃^{≥t} x true asks n ≥ t.
  Formula node;
  node.kind_ = FormulaKind::kCountExists;
  node.threshold_ = threshold;
  node.quantifier_rank_ = body->quantifier_rank() + 1;
  node.free_variables_ = body->free_variables();
  node.free_set_variables_ = body->free_set_variables();
  auto it = std::lower_bound(node.free_variables_.begin(),
                             node.free_variables_.end(), var);
  if (it != node.free_variables_.end() && *it == var) {
    node.free_variables_.erase(it);
  }
  node.quantified_var_ = std::move(var);
  node.children_.push_back(std::move(body));
  return Make(std::move(node));
}

FormulaRef Formula::SetMember(std::string element_var, std::string set_var) {
  FOLEARN_CHECK(!element_var.empty() && !set_var.empty());
  Formula node;
  node.kind_ = FormulaKind::kSetMember;
  node.var1_ = std::move(element_var);
  node.color_name_ = std::move(set_var);
  node.free_variables_ = {node.var1_};
  node.free_set_variables_ = {node.color_name_};
  return Make(std::move(node));
}

FormulaRef Formula::MakeSetQuantifier(FormulaKind kind, std::string set_var,
                                      FormulaRef body) {
  FOLEARN_CHECK(!set_var.empty());
  FOLEARN_CHECK(body != nullptr);
  if (body->kind() == FormulaKind::kTrue ||
      body->kind() == FormulaKind::kFalse) {
    return body;  // set quantification over a constant body
  }
  Formula node;
  node.kind_ = kind;
  node.quantifier_rank_ = body->quantifier_rank() + 1;
  node.free_variables_ = body->free_variables();
  node.free_set_variables_ = body->free_set_variables();
  auto it = std::lower_bound(node.free_set_variables_.begin(),
                             node.free_set_variables_.end(), set_var);
  if (it != node.free_set_variables_.end() && *it == set_var) {
    node.free_set_variables_.erase(it);
  }
  node.quantified_var_ = std::move(set_var);
  node.children_.push_back(std::move(body));
  return Make(std::move(node));
}

FormulaRef Formula::ExistsSet(std::string set_var, FormulaRef body) {
  return MakeSetQuantifier(FormulaKind::kExistsSet, std::move(set_var),
                           std::move(body));
}

FormulaRef Formula::ForallSet(std::string set_var, FormulaRef body) {
  return MakeSetQuantifier(FormulaKind::kForallSet, std::move(set_var),
                           std::move(body));
}

namespace {

// True iff some node of the DAG below `root` has a kind in `kinds`; each
// shared node is visited once.
bool AnyNodeOfKind(const Formula* root,
                   std::initializer_list<FormulaKind> kinds) {
  std::vector<const Formula*> stack = {root};
  std::unordered_set<const Formula*> seen;
  while (!stack.empty()) {
    const Formula* node = stack.back();
    stack.pop_back();
    if (!seen.insert(node).second) continue;
    for (FormulaKind kind : kinds) {
      if (node->kind() == kind) return true;
    }
    for (const FormulaRef& child : node->children()) {
      stack.push_back(child.get());
    }
  }
  return false;
}

}  // namespace

bool Formula::IsFirstOrder() const {
  return !AnyNodeOfKind(this, {FormulaKind::kSetMember,
                               FormulaKind::kExistsSet,
                               FormulaKind::kForallSet});
}

bool Formula::HasCountingQuantifier() const {
  return AnyNodeOfKind(this, {FormulaKind::kCountExists});
}

// Appended, not `"x" + std::to_string(i)`: GCC inlines that operator+
// into a false -Wrestrict warning.
std::string QueryVar(int i) {
  return std::string("x").append(std::to_string(i));
}
std::string ParamVar(int i) {
  return std::string("y").append(std::to_string(i));
}

std::vector<std::string> QueryVars(int k) {
  std::vector<std::string> vars;
  vars.reserve(k);
  for (int i = 1; i <= k; ++i) vars.push_back(QueryVar(i));
  return vars;
}

std::vector<std::string> ParamVars(int ell) {
  std::vector<std::string> vars;
  vars.reserve(ell);
  for (int i = 1; i <= ell; ++i) vars.push_back(ParamVar(i));
  return vars;
}

}  // namespace folearn
