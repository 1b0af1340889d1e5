#ifndef FOLEARN_LEARN_HYPOTHESIS_H_
#define FOLEARN_LEARN_HYPOTHESIS_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "fo/formula.h"
#include "graph/graph.h"
#include "learn/dataset.h"
#include "mc/evaluator.h"
#include "types/type.h"

namespace folearn {

// A hypothesis h_{φ,w̄} (paper §3): a formula φ(x̄; ȳ) with k query
// variables and ℓ parameter variables, plus the parameter tuple w̄ ∈ V^ℓ.
// h_{φ,w̄}(v̄) = 1 iff G ⊨ φ(v̄; w̄).
struct Hypothesis {
  FormulaRef formula;
  std::vector<std::string> query_vars;  // x1, …, xk
  std::vector<std::string> param_vars;  // y1, …, yℓ
  std::vector<Vertex> parameters;       // w̄

  int k() const { return static_cast<int>(query_vars.size()); }
  int ell() const { return static_cast<int>(param_vars.size()); }

  // The concatenated frame x̄·ȳ — the free-variable order used when the
  // formula is compiled (mc/compiler.h).
  std::vector<std::string> AllVars() const;

  // h(v̄): evaluates φ with x̄ ↦ tuple, ȳ ↦ parameters on
  // options.engine; verdicts are identical on either engine.
  bool Classify(const Graph& graph, std::span<const Vertex> tuple,
                const EvalOptions& options = {}) const;
};

// err_Λ(h): the fraction of examples classified wrongly (paper §3).
// One EvaluateOnTuples batch over every example tuple followed by the
// parameters: on the VM φ is compiled and lowered once and one evaluator
// serves all examples (per-graph memoization of sentence-valued
// subformulas included). Governor checkpoints fire at identical points on
// both engines.
double TrainingError(const Graph& graph, const Hypothesis& hypothesis,
                     const TrainingSet& examples,
                     const EvalOptions& options = {});

// The machine form of a hypothesis delivered by every learner in this
// library: a set Φ of accepted local types (Corollary 6: every rank-q
// query with fixed parameters is a union of local (q, r)-types of v̄w̄).
//
//   h(v̄) = 1   ⟺   ltp_{rank,radius}(G, v̄·parameters) ∈ accepted.
//
// Convertible to an explicit h_{φ,w̄} via relativised Hintikka formulas
// (quantifier rank ≤ rank + O(log radius) — the paper's (L,Q) relaxation).
struct TypeSetHypothesis {
  int k = 0;
  int rank = 0;    // q
  int radius = 0;  // r
  std::vector<Vertex> parameters;  // w̄ (vertices of the evaluation graph)
  std::shared_ptr<TypeRegistry> registry;
  std::vector<TypeId> accepted;  // Φ, sorted

  int ell() const { return static_cast<int>(parameters.size()); }

  // h(v̄): computes the local type of tuple·parameters and tests membership.
  bool Classify(const Graph& graph, std::span<const Vertex> tuple) const;

  // err_Λ(h).
  double Error(const Graph& graph, const TrainingSet& examples) const;

  // Materialises the explicit formula hypothesis (paper-facing form):
  // φ(x̄; ȳ) = ⋁_{θ ∈ Φ} θ’s relativised Hintikka formula.
  Hypothesis ToExplicit() const;
};

}  // namespace folearn

#endif  // FOLEARN_LEARN_HYPOTHESIS_H_
