#include "learn/dataset.h"

#include "mc/evaluator.h"
#include "util/combinatorics.h"

namespace folearn {

std::pair<int64_t, int64_t> CountLabels(const TrainingSet& examples) {
  int64_t positives = 0;
  for (const LabeledExample& example : examples) {
    if (example.label) ++positives;
  }
  return {positives, static_cast<int64_t>(examples.size()) - positives};
}

std::vector<std::vector<Vertex>> AllTuples(int n, int k) {
  FOLEARN_CHECK_LE(SaturatingPow(n, k), int64_t{10} * 1000 * 1000)
      << "AllTuples would materialise too many tuples";
  std::vector<std::vector<Vertex>> tuples;
  ForEachTuple(n, k, [&](const std::vector<int64_t>& tuple) {
    std::vector<Vertex> converted(tuple.begin(), tuple.end());
    tuples.push_back(std::move(converted));
    return true;
  });
  return tuples;
}

std::vector<std::vector<Vertex>> SampleTuples(int n, int k, int count,
                                              Rng& rng) {
  FOLEARN_CHECK_GT(n, 0);
  std::vector<std::vector<Vertex>> tuples;
  tuples.reserve(count);
  for (int i = 0; i < count; ++i) {
    std::vector<Vertex> tuple(k);
    for (Vertex& v : tuple) v = static_cast<Vertex>(rng.UniformIndex(n));
    tuples.push_back(std::move(tuple));
  }
  return tuples;
}

TrainingSet LabelByQuery(const Graph& graph, const FormulaRef& query,
                         std::span<const std::string> vars,
                         const std::vector<std::vector<Vertex>>& tuples) {
  // Batched evaluation: the query is compiled once and the plan reused
  // across all tuples on one VM evaluator (mc/vm.h).
  std::vector<bool> labels = EvaluateOnTuples(graph, query, vars, tuples);
  TrainingSet examples;
  examples.reserve(tuples.size());
  for (size_t i = 0; i < tuples.size(); ++i) {
    examples.push_back({tuples[i], labels[i]});
  }
  return examples;
}

void FlipLabels(TrainingSet& examples, double rate, Rng& rng) {
  for (LabeledExample& example : examples) {
    if (rng.Bernoulli(rate)) example.label = !example.label;
  }
}

std::pair<TrainingSet, TrainingSet> SplitTrainTest(const TrainingSet& all,
                                                   double train_fraction,
                                                   Rng& rng) {
  FOLEARN_CHECK(train_fraction >= 0.0 && train_fraction <= 1.0);
  TrainingSet shuffled = all;
  rng.Shuffle(shuffled);
  size_t cut = static_cast<size_t>(train_fraction * shuffled.size());
  TrainingSet train(shuffled.begin(), shuffled.begin() + cut);
  TrainingSet test(shuffled.begin() + cut, shuffled.end());
  return {std::move(train), std::move(test)};
}

}  // namespace folearn
