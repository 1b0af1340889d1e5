#ifndef FOLEARN_FO_FORMULA_H_
#define FOLEARN_FO_FORMULA_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "util/check.h"

namespace folearn {

// First-order formulas over coloured graphs (paper §2, FO[τ]): atoms
// E(x, y), P(x), x = y, the boolean connectives, and the quantifiers
// ∃x, ∀x. Conjunction and disjunction are n-ary so Hintikka formulas stay
// compact.
//
// Formulas are immutable and shared via `FormulaRef`; equal subformulas may
// be shared, so the structure is a DAG. Quantifier rank and the sorted free
// variable list are computed at construction and are O(1) to query —
// important because Hintikka DAGs can have exponentially many tree paths.
//
// Colour atoms refer to colours *by name*; they are resolved against the
// graph's vocabulary at evaluation time. This is what makes the paper's
// colour expansions (Lemma 7's P_t/Q_t, Lemma 16's fresh colours) natural:
// a formula mentioning colour "Pt" is evaluated on the expanded graph.
enum class FormulaKind {
  kTrue,
  kFalse,
  kEdge,    // E(var1, var2)
  kColor,   // color_name(var1)
  kEquals,  // var1 = var2
  kNot,     // children[0]
  kAnd,     // children (n ≥ 2)
  kOr,      // children (n ≥ 2)
  kExists,  // quantified_var, children[0]
  kForall,  // quantified_var, children[0]
  // FO+C extension (paper conclusion: "extensions of first-order logic
  // with counting"): the threshold counting quantifier ∃^{≥t} x φ,
  // "at least t witnesses". ∃ ≡ ∃^{≥1}; thresholds t ≥ 2 strictly extend
  // plain FO at a given rank (e.g. "degree ≥ 2" at rank 1).
  kCountExists,  // threshold, quantified_var, children[0]
  // MSO extension (the Grohe–Turán framework the paper builds on, and the
  // conclusion's "MSO over bounded tree width" direction): monotone
  // second-order set variables. Set variables live in their own namespace
  // (bound only by the set quantifiers; element renaming never touches
  // them). Evaluation enumerates subsets — tiny structures only.
  kSetMember,  // var1 ∈ set_name
  kExistsSet,  // quantified_var (a set variable), children[0]
  kForallSet,  // quantified_var (a set variable), children[0]
};

class Formula;
using FormulaRef = std::shared_ptr<const Formula>;

class Formula {
 public:
  FormulaKind kind() const { return kind_; }

  // First variable of an Edge/Equals atom, or the variable of a Color atom.
  const std::string& var1() const { return var1_; }
  // Second variable of an Edge/Equals atom.
  const std::string& var2() const { return var2_; }
  // Colour name of a Color atom.
  const std::string& color_name() const { return color_name_; }
  // Set-variable name of a SetMember atom (stored in the colour slot).
  const std::string& set_name() const { return color_name_; }

  // Subformulas: 1 for Not/Exists/Forall, ≥ 2 for And/Or, 0 for atoms.
  std::span<const FormulaRef> children() const { return children_; }
  const FormulaRef& child(int i) const { return children_[i]; }

  // Bound variable of an Exists/Forall/CountExists node.
  const std::string& quantified_var() const { return quantified_var_; }

  // Threshold t of a CountExists node (∃^{≥t}); always ≥ 2 after folding
  // (t ≤ 0 folds to true, t = 1 folds to a plain Exists).
  int threshold() const { return threshold_; }

  // Quantifier rank (paper §2).
  int quantifier_rank() const { return quantifier_rank_; }

  // Free ELEMENT variables, sorted lexicographically, no duplicates.
  const std::vector<std::string>& free_variables() const {
    return free_variables_;
  }

  // Free SET variables (MSO), sorted, no duplicates.
  const std::vector<std::string>& free_set_variables() const {
    return free_set_variables_;
  }

  // True iff no MSO construct occurs anywhere in the formula.
  bool IsFirstOrder() const;
  // True iff a counting quantifier ∃^{≥t} occurs anywhere in the formula.
  bool HasCountingQuantifier() const;

  bool HasFreeVariable(const std::string& name) const;

  // Number of nodes in the underlying DAG reachable from this node.
  int64_t DagSize() const;

  // --- Factories (the only way to create formulas) -------------------------
  // All factories fold constants: And(φ, false) = false, Not(true) = false,
  // ∃x true = true, etc., and And/Or flatten nested nodes of the same kind.

  static FormulaRef True();
  static FormulaRef False();
  static FormulaRef Edge(std::string x, std::string y);
  static FormulaRef Color(std::string color, std::string x);
  static FormulaRef Equals(std::string x, std::string y);
  static FormulaRef Not(FormulaRef f);
  static FormulaRef And(std::vector<FormulaRef> fs);
  static FormulaRef Or(std::vector<FormulaRef> fs);
  static FormulaRef And(FormulaRef a, FormulaRef b);
  static FormulaRef Or(FormulaRef a, FormulaRef b);
  // φ → ψ, desugared to ¬φ ∨ ψ at construction.
  static FormulaRef Implies(FormulaRef a, FormulaRef b);
  // φ ↔ ψ, desugared to (φ→ψ) ∧ (ψ→φ).
  static FormulaRef Iff(FormulaRef a, FormulaRef b);
  static FormulaRef Exists(std::string var, FormulaRef body);
  static FormulaRef Forall(std::string var, FormulaRef body);
  // ∃^{≥threshold} var. body (threshold ≤ 0 folds to true, 1 to Exists).
  static FormulaRef CountExists(int threshold, std::string var,
                                FormulaRef body);
  // MSO: x ∈ X, ∃X φ, ∀X φ.
  static FormulaRef SetMember(std::string element_var, std::string set_var);
  static FormulaRef ExistsSet(std::string set_var, FormulaRef body);
  static FormulaRef ForallSet(std::string set_var, FormulaRef body);

 private:
  Formula() = default;

  static FormulaRef Make(Formula node);
  static FormulaRef MakeNary(FormulaKind kind, std::vector<FormulaRef> fs);
  static FormulaRef MakeQuantifier(FormulaKind kind, std::string var,
                                   FormulaRef body);
  static FormulaRef MakeSetQuantifier(FormulaKind kind, std::string set_var,
                                      FormulaRef body);

  FormulaKind kind_ = FormulaKind::kTrue;
  std::string var1_;
  std::string var2_;
  std::string color_name_;
  std::string quantified_var_;
  std::vector<FormulaRef> children_;
  int threshold_ = 0;
  int quantifier_rank_ = 0;
  std::vector<std::string> free_variables_;
  std::vector<std::string> free_set_variables_;
};

// Canonical variable names used throughout: the k query variables x1..xk,
// the ℓ parameter variables y1..yℓ (paper: φ(x̄; ȳ)).
std::string QueryVar(int i);  // 1-based: "x1", "x2", …
std::string ParamVar(int i);  // 1-based: "y1", "y2", …

// The standard variable tuples (x1..xk) and (y1..yℓ).
std::vector<std::string> QueryVars(int k);
std::vector<std::string> ParamVars(int ell);

}  // namespace folearn

#endif  // FOLEARN_FO_FORMULA_H_
