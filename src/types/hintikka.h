#ifndef FOLEARN_TYPES_HINTIKKA_H_
#define FOLEARN_TYPES_HINTIKKA_H_

#include <string>
#include <vector>

#include "fo/formula.h"
#include "types/type.h"

namespace folearn {

// Hintikka (characteristic) formulas: for every rank-q type θ of arity k
// there is a formula φ_θ(x1, …, xk) of quantifier rank exactly ≤ q such
// that for every graph H over the registry's vocabulary and every tuple ū,
//
//     H ⊨ φ_θ(ū)  ⟺  tp_q(H, ū) = θ.
//
// Construction (standard):
//   rank 0:  the full atomic description (colours, equalities, adjacencies,
//            positive or negated);
//   rank q:  atomic ∧ ⋀_{θ′ ∈ children} ∃z φ_{θ′}(x̄, z)
//                  ∧ ∀z ⋁_{θ′ ∈ children} φ_{θ′}(x̄, z).
//
// Over a registry with cap T > 1 (counting types, FO+C) each distinct
// child θ′ with capped multiplicity c contributes ∃^{≥c}z φ_{θ′} and, when
// c < T, also ¬∃^{≥c+1}z φ_{θ′}: thresholds stay ≤ T + 1. At cap 1 every c
// is 1 and ∃^{≥1} is ∃, so the formula is the plain one above.
//
// This is what lets the library return *actual formulas* wherever the paper
// says "a formula of quantifier rank q": every hypothesis and every oracle
// answer is a boolean combination of Hintikka formulas.
class HintikkaBuilder {
 public:
  explicit HintikkaBuilder(const TypeRegistry& registry)
      : registry_(registry) {}

  // φ_θ over the given free variable names (size = arity of θ). Quantified
  // variables are named "_h<arity>" and must not clash with `vars`.
  // Memoised: repeated types share subformula DAGs.
  FormulaRef Build(TypeId type, const std::vector<std::string>& vars);

  // The r-local version: quantifiers relativised to the radius-r ball
  // around `vars`, so for every graph G and tuple ū,
  //     G ⊨ φ(ū)  ⟺  ltp_{q,r}(G, ū) = θ
  // (evaluating the plain Hintikka formula inside the induced ball equals
  // evaluating the relativised one in G). Quantifier rank grows by
  // O(log r) — the paper's Q(k,ℓ,q) = q + log R effect.
  FormulaRef BuildLocal(TypeId type, const std::vector<std::string>& vars,
                          int radius);

 private:
  const TypeRegistry& registry_;
  // Memo keyed by (type, joined variable names).
  std::unordered_map<std::string, FormulaRef> memo_;
};

// One-shot helper.
FormulaRef HintikkaFormula(const TypeRegistry& registry, TypeId type,
                           const std::vector<std::string>& vars);

}  // namespace folearn

#endif  // FOLEARN_TYPES_HINTIKKA_H_
