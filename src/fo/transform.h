#ifndef FOLEARN_FO_TRANSFORM_H_
#define FOLEARN_FO_TRANSFORM_H_

#include <functional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "fo/formula.h"

namespace folearn {

// Allocates variable names that avoid a set of used names. Fresh names look
// like "_v1", "_v2", …; every allocated name is added to the used set.
class FreshVariablePool {
 public:
  FreshVariablePool() = default;
  explicit FreshVariablePool(std::set<std::string> used)
      : used_(std::move(used)) {}

  // Marks `name` as used.
  void Reserve(const std::string& name) { used_.insert(name); }

  // Returns a fresh name, optionally derived from `hint`.
  std::string Fresh(const std::string& hint = "v");

 private:
  std::set<std::string> used_;
  int counter_ = 0;
};

// All variable names occurring in `f` (free, bound, and inside atoms).
std::set<std::string> CollectVariableNames(const FormulaRef& f);

// Capture-avoiding simultaneous renaming of free variables. Bound variables
// that would capture a substituted name are alpha-renamed.
FormulaRef RenameFreeVariables(
    const FormulaRef& f,
    const std::unordered_map<std::string, std::string>& renaming);

// Lemma 7's variable elimination: given a formula ψ with free variable
// `var` and a distinguished vertex t marked by fresh colours P_t, Q_t
// (P_t = {t}, Q_t = N(t)), produces ψ_t with `var` eliminated:
//   var = y, y = var   ↦  pt_color(y)
//   E(var, y), E(y, var) ↦ qt_color(y)
//   C(var)             ↦  true/false according to color_truth(C)
// Only free occurrences of `var` are rewritten (rebinding shadows).
FormulaRef EliminateVariableViaColors(
    const FormulaRef& f, const std::string& var, const std::string& pt_color,
    const std::string& qt_color,
    const std::function<bool(const std::string&)>& color_truth);

// Replaces every colour atom whose name is in `colors` by `false` (the
// φ″ → φ‴ step in Lemma 7's general case).
FormulaRef ReplaceColorsWithFalse(const FormulaRef& f,
                                  const std::set<std::string>& colors);

// dist(x, y) ≤ d as a formula, via repeated squaring: quantifier rank
// ⌈log₂ d⌉ (0 for d ≤ 1), size O(d). This is the source of the paper's
// Q(k,ℓ,q) = q + log R rank increase.
FormulaRef DistAtMost(const std::string& x, const std::string& y, int d,
                      FreshVariablePool& pool);

// dist(y, centers) ≤ d: disjunction of DistAtMost over the centre variables.
FormulaRef DistToTupleAtMost(const std::string& y,
                             const std::vector<std::string>& centers, int d,
                             FreshVariablePool& pool);

// Relativizes every quantifier in `f` to the radius-r ball around the
// `centers` variables: ∃z φ ↦ ∃z (dist(z, centers) ≤ r ∧ φ),
// ∀z φ ↦ ∀z (dist(z, centers) ≤ r → φ). The result is r-local in the
// paper's sense: its value on a tuple depends only on the induced r-ball
// around the centre variables (assuming all free variables are centers).
// Bound variables colliding with centre names are alpha-renamed first.
FormulaRef RelativizeToBall(const FormulaRef& f,
                            const std::vector<std::string>& centers, int r);

}  // namespace folearn

#endif  // FOLEARN_FO_TRANSFORM_H_
