#include "types/hintikka.h"

#include <algorithm>
#include <sstream>

#include "fo/transform.h"
#include "util/strings.h"

namespace folearn {

namespace {

// The full quantifier-free description of an atomic type over `vars`.
FormulaRef AtomicDescription(const TypeRegistry& registry,
                             const AtomicType& atomic,
                             const std::vector<std::string>& vars) {
  const Vocabulary& vocabulary = registry.vocabulary();
  FOLEARN_CHECK_EQ(atomic.num_colors(), vocabulary.size());
  std::vector<FormulaRef> parts;
  for (int i = 0; i < atomic.arity(); ++i) {
    for (ColorId c = 0; c < atomic.num_colors(); ++c) {
      FormulaRef atom = Formula::Color(vocabulary.Name(c), vars[i]);
      parts.push_back(atomic.HasColor(i, c) ? atom
                                            : Formula::Not(std::move(atom)));
    }
    for (int j = i + 1; j < atomic.arity(); ++j) {
      FormulaRef eq = Formula::Equals(vars[i], vars[j]);
      parts.push_back(atomic.Equal(i, j) ? eq : Formula::Not(std::move(eq)));
      FormulaRef edge = Formula::Edge(vars[i], vars[j]);
      parts.push_back(atomic.Adjacent(i, j) ? edge
                                            : Formula::Not(std::move(edge)));
    }
  }
  return Formula::And(std::move(parts));
}

}  // namespace

FormulaRef HintikkaBuilder::Build(TypeId type,
                                    const std::vector<std::string>& vars) {
  const TypeNode& node = registry_.Node(type);
  FOLEARN_CHECK_EQ(static_cast<int>(vars.size()), node.arity);
  std::ostringstream key_stream;
  key_stream << type << '|' << Join(vars, ",");
  std::string key = key_stream.str();
  auto it = memo_.find(key);
  if (it != memo_.end()) return it->second;

  FormulaRef result = AtomicDescription(registry_, node.atomic, vars);
  if (node.rank > 0) {
    std::string fresh = "_h" + std::to_string(node.arity + 1);
    for (const std::string& var : vars) {
      FOLEARN_CHECK_NE(var, fresh)
          << "variable clashes with Hintikka-internal name";
    }
    std::vector<std::string> extended = vars;
    extended.push_back(fresh);
    const int cap = registry_.cap();
    std::vector<FormulaRef> all_parts;
    std::vector<FormulaRef> forall_parts;
    all_parts.push_back(std::move(result));
    // One run (θ′, c) per distinct child: c copies of θ′ in the multiset.
    for (auto run = node.children.begin(); run != node.children.end();) {
      const auto run_end = std::upper_bound(run, node.children.end(), *run);
      const int count = static_cast<int>(run_end - run);
      FormulaRef child_formula = Build(*run, extended);
      all_parts.push_back(Formula::CountExists(count, fresh, child_formula));
      if (count < cap) {
        // Exact multiplicity below the cap: not one more.
        all_parts.push_back(Formula::Not(
            Formula::CountExists(count + 1, fresh, child_formula)));
      }
      forall_parts.push_back(std::move(child_formula));
      run = run_end;
    }
    all_parts.push_back(
        Formula::Forall(fresh, Formula::Or(std::move(forall_parts))));
    result = Formula::And(std::move(all_parts));
  }
  memo_.emplace(std::move(key), result);
  return result;
}

FormulaRef HintikkaBuilder::BuildLocal(TypeId type,
                                         const std::vector<std::string>& vars,
                                         int radius) {
  return RelativizeToBall(Build(type, vars), vars, radius);
}

FormulaRef HintikkaFormula(const TypeRegistry& registry, TypeId type,
                           const std::vector<std::string>& vars) {
  HintikkaBuilder builder(registry);
  return builder.Build(type, vars);
}

}  // namespace folearn
