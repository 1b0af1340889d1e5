#include "fo/enumerate.h"

#include <set>

#include "fo/printer.h"

namespace folearn {

namespace {

// Collects `f` into `out` if unseen; returns false once the cap is hit.
class Sink {
 public:
  Sink(std::vector<FormulaRef>* out, int max_count)
      : out_(out), max_count_(max_count) {}

  bool Add(FormulaRef f) {
    if (Full()) return false;
    std::string key = ToString(f);
    if (seen_.insert(std::move(key)).second) {
      out_->push_back(std::move(f));
    }
    return !Full();
  }

  bool Full() const {
    return static_cast<int>(out_->size()) >= max_count_;
  }

 private:
  std::vector<FormulaRef>* out_;
  int max_count_;
  std::set<std::string> seen_;
};

// All atoms over `variables` and `colors`.
std::vector<FormulaRef> Atoms(const std::vector<std::string>& variables,
                              const std::vector<std::string>& colors) {
  std::vector<FormulaRef> atoms = {Formula::True(), Formula::False()};
  for (size_t i = 0; i < variables.size(); ++i) {
    for (const std::string& color : colors) {
      atoms.push_back(Formula::Color(color, variables[i]));
    }
    for (size_t j = i + 1; j < variables.size(); ++j) {
      atoms.push_back(Formula::Equals(variables[i], variables[j]));
      atoms.push_back(Formula::Edge(variables[i], variables[j]));
    }
  }
  return atoms;
}

// One stratum of formulas with quantifier rank ≤ q over `variables`.
// Produces: base (atoms + quantified lower stratum), then boolean closure to
// `boolean_depth`.
std::vector<FormulaRef> Stratum(const std::vector<std::string>& variables,
                                const EnumerationOptions& options, int q,
                                Sink& sink) {
  std::vector<FormulaRef> base = Atoms(variables, options.colors);
  if (q > 0) {
    // Appended: GCC warns a false -Wrestrict on `"z" + std::to_string(q)`.
    std::string fresh = std::string("z").append(std::to_string(q));
    std::vector<std::string> extended = variables;
    extended.push_back(fresh);
    std::vector<FormulaRef> inner =
        Stratum(extended, options, q - 1, sink);
    for (const FormulaRef& f : inner) {
      base.push_back(Formula::Exists(fresh, f));
      base.push_back(Formula::Forall(fresh, f));
    }
  }
  if (options.include_negations) {
    size_t original = base.size();
    for (size_t i = 0; i < original; ++i) {
      base.push_back(Formula::Not(base[i]));
    }
  }
  // Boolean closure, one depth level at a time.
  std::vector<FormulaRef> all = base;
  std::vector<FormulaRef> frontier = base;
  for (int depth = 0; depth < options.max_boolean_depth; ++depth) {
    std::vector<FormulaRef> next;
    for (const FormulaRef& f : frontier) {
      for (const FormulaRef& g : base) {
        next.push_back(Formula::And(f, g));
        next.push_back(Formula::Or(f, g));
        if (static_cast<int>(all.size() + next.size()) >
            4 * options.max_count) {
          break;  // keep intermediate blow-up bounded
        }
      }
    }
    all.insert(all.end(), next.begin(), next.end());
    frontier = std::move(next);
  }
  // Feed what we generated to the sink at the top level only (q == rank we
  // were asked for); recursion just returns the raw list.
  (void)sink;
  return all;
}

}  // namespace

std::vector<FormulaRef> EnumerateFormulas(const EnumerationOptions& options) {
  std::vector<FormulaRef> result;
  Sink sink(&result, options.max_count);
  for (int q = 0; q <= options.max_quantifier_rank && !sink.Full(); ++q) {
    std::vector<FormulaRef> stratum =
        Stratum(options.free_variables, options, q, sink);
    for (FormulaRef& f : stratum) {
      if (!sink.Add(std::move(f))) break;
    }
  }
  return result;
}

}  // namespace folearn
