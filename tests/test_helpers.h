#ifndef FOLEARN_TESTS_TEST_HELPERS_H_
#define FOLEARN_TESTS_TEST_HELPERS_H_

#include <string>
#include <vector>

#include "fo/formula.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace folearn {

// Named graph families for parameterised sweeps.
enum class GraphFamily {
  kPath,
  kCycle,
  kRandomTree,
  kCaterpillar,
  kGrid,
  kBoundedDegree,
  kErdosRenyiSparse,
  kStar,
};

inline const char* FamilyName(GraphFamily family) {
  switch (family) {
    case GraphFamily::kPath:
      return "path";
    case GraphFamily::kCycle:
      return "cycle";
    case GraphFamily::kRandomTree:
      return "random_tree";
    case GraphFamily::kCaterpillar:
      return "caterpillar";
    case GraphFamily::kGrid:
      return "grid";
    case GraphFamily::kBoundedDegree:
      return "bounded_degree";
    case GraphFamily::kErdosRenyiSparse:
      return "er_sparse";
    case GraphFamily::kStar:
      return "star";
  }
  return "?";
}

// Builds an n-ish vertex member of the family.
inline Graph MakeFamilyGraph(GraphFamily family, int n, Rng& rng) {
  switch (family) {
    case GraphFamily::kPath:
      return MakePath(n);
    case GraphFamily::kCycle:
      return MakeCycle(std::max(n, 3));
    case GraphFamily::kRandomTree:
      return MakeRandomTree(n, rng);
    case GraphFamily::kCaterpillar:
      return MakeCaterpillar(std::max(n / 3, 1), 2);
    case GraphFamily::kGrid: {
      int side = 1;
      while (side * side < n) ++side;
      return MakeGrid(side, side);
    }
    case GraphFamily::kBoundedDegree:
      return MakeBoundedDegree(std::max(n, 2), 4, 3 * n / 2, rng);
    case GraphFamily::kErdosRenyiSparse:
      return MakeErdosRenyi(n, 2.0 / std::max(n, 2), rng);
    case GraphFamily::kStar:
      return MakeStar(std::max(n - 1, 1));
  }
  return Graph(0);
}

// Uniform random formula over `vars` and `colors`, with at most
// `quantifier_budget` nested quantifiers; exercised by round-trip and
// evaluator-equivalence property tests. May return any connective shape,
// including counting quantifiers when `allow_counting`.
inline FormulaRef RandomFormula(Rng& rng, std::vector<std::string> vars,
                                const std::vector<std::string>& colors,
                                int quantifier_budget, int depth,
                                bool allow_counting = false) {
  // Atom probability grows as depth shrinks.
  const bool make_atom = depth <= 0 || rng.Bernoulli(0.35);
  if (make_atom) {
    int choice = static_cast<int>(rng.UniformIndex(4));
    if (choice == 0 && !colors.empty() && !vars.empty()) {
      return Formula::Color(rng.Choose(colors), rng.Choose(vars));
    }
    if (choice <= 1 && vars.size() >= 2) {
      const std::string& a = rng.Choose(vars);
      const std::string& b = rng.Choose(vars);
      return rng.Bernoulli(0.5) ? Formula::Edge(a, b) : Formula::Equals(a, b);
    }
    return rng.Bernoulli(0.5) ? Formula::True() : Formula::False();
  }
  int choice = static_cast<int>(rng.UniformIndex(quantifier_budget > 0 ? 5 : 3));
  switch (choice) {
    case 0:
      return Formula::Not(RandomFormula(rng, vars, colors, quantifier_budget,
                                        depth - 1, allow_counting));
    case 1:
      return Formula::And(
          RandomFormula(rng, vars, colors, quantifier_budget, depth - 1,
                        allow_counting),
          RandomFormula(rng, vars, colors, quantifier_budget, depth - 1,
                        allow_counting));
    case 2:
      return Formula::Or(
          RandomFormula(rng, vars, colors, quantifier_budget, depth - 1,
                        allow_counting),
          RandomFormula(rng, vars, colors, quantifier_budget, depth - 1,
                        allow_counting));
    default: {
      // Appended: GCC warns a false -Wrestrict on `"q" + std::to_string`.
      std::string fresh =
          std::string("q").append(std::to_string(quantifier_budget));
      std::vector<std::string> extended = vars;
      extended.push_back(fresh);
      FormulaRef body = RandomFormula(rng, extended, colors,
                                      quantifier_budget - 1, depth - 1,
                                      allow_counting);
      if (allow_counting && rng.Bernoulli(0.3)) {
        return Formula::CountExists(2 + static_cast<int>(rng.UniformIndex(2)),
                                    fresh, std::move(body));
      }
      return rng.Bernoulli(0.5) ? Formula::Exists(fresh, std::move(body))
                                : Formula::Forall(fresh, std::move(body));
    }
  }
}

}  // namespace folearn

#endif  // FOLEARN_TESTS_TEST_HELPERS_H_
