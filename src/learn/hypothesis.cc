#include "learn/hypothesis.h"

#include <algorithm>

#include "types/hintikka.h"

namespace folearn {

std::vector<std::string> Hypothesis::AllVars() const {
  std::vector<std::string> vars = query_vars;
  vars.insert(vars.end(), param_vars.begin(), param_vars.end());
  return vars;
}

bool Hypothesis::Classify(const Graph& graph, std::span<const Vertex> tuple,
                          const EvalOptions& options) const {
  FOLEARN_CHECK_EQ(tuple.size(), query_vars.size());
  FOLEARN_CHECK_EQ(parameters.size(), param_vars.size());
  std::vector<Vertex> values(tuple.begin(), tuple.end());
  values.insert(values.end(), parameters.begin(), parameters.end());
  return EvaluateQuery(graph, formula, AllVars(), values, options);
}

double TrainingError(const Graph& graph, const Hypothesis& hypothesis,
                     const TrainingSet& examples, const EvalOptions& options) {
  if (examples.empty()) return 0.0;
  // One batch over φ(x̄; ȳ): each example tuple followed by the parameters.
  std::vector<std::vector<Vertex>> tuples;
  tuples.reserve(examples.size());
  for (const LabeledExample& example : examples) {
    std::vector<Vertex>& tuple = tuples.emplace_back(example.tuple);
    tuple.insert(tuple.end(), hypothesis.parameters.begin(),
                 hypothesis.parameters.end());
  }
  const std::vector<bool> verdicts = EvaluateOnTuples(
      graph, hypothesis.formula, hypothesis.AllVars(), tuples, options);
  int64_t wrong = 0;
  for (size_t i = 0; i < examples.size(); ++i) {
    if (verdicts[i] != examples[i].label) ++wrong;
  }
  return static_cast<double>(wrong) / static_cast<double>(examples.size());
}

bool TypeSetHypothesis::Classify(const Graph& graph,
                                 std::span<const Vertex> tuple) const {
  FOLEARN_CHECK_EQ(static_cast<int>(tuple.size()), k);
  FOLEARN_CHECK(registry != nullptr);
  std::vector<Vertex> combined(tuple.begin(), tuple.end());
  combined.insert(combined.end(), parameters.begin(), parameters.end());
  TypeId type =
      ComputeLocalType(graph, combined, rank, radius, registry.get());
  return std::binary_search(accepted.begin(), accepted.end(), type);
}

double TypeSetHypothesis::Error(const Graph& graph,
                                const TrainingSet& examples) const {
  if (examples.empty()) return 0.0;
  int64_t wrong = 0;
  for (const LabeledExample& example : examples) {
    if (Classify(graph, example.tuple) != example.label) ++wrong;
  }
  return static_cast<double>(wrong) / static_cast<double>(examples.size());
}

Hypothesis TypeSetHypothesis::ToExplicit() const {
  FOLEARN_CHECK(registry != nullptr);
  Hypothesis result;
  result.query_vars = QueryVars(k);
  result.param_vars = ParamVars(ell());
  result.parameters = parameters;
  std::vector<std::string> all_vars = result.query_vars;
  all_vars.insert(all_vars.end(), result.param_vars.begin(),
                  result.param_vars.end());
  HintikkaBuilder builder(*registry);
  std::vector<FormulaRef> parts;
  parts.reserve(accepted.size());
  for (TypeId type : accepted) {
    parts.push_back(builder.BuildLocal(type, all_vars, radius));
  }
  result.formula = Formula::Or(std::move(parts));
  return result;
}

}  // namespace folearn
