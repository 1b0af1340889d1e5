#include "learn/sublinear.h"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <utility>

#include "graph/algorithms.h"
#include "util/combinatorics.h"

namespace folearn {

SublinearErmResult SublinearErm(const Graph& graph,
                                const TrainingSet& examples, int ell,
                                const ErmOptions& options,
                                std::shared_ptr<TypeRegistry> registry) {
  FOLEARN_CHECK_GE(ell, 0);
  SublinearErmResult result;
  if (examples.empty() || ell == 0) {
    result.erm = TypeMajorityErm(graph, examples, {}, options, registry);
    return result;
  }
  const int radius = options.EffectiveRadius();

  // Candidate pool: the (2r+1)-neighbourhood of all example entries —
  // parameters outside it add example-independent information only
  // (Lemma 15 / the [22] locality argument) — plus one far representative
  // so hypotheses that want an "inert" parameter slot still exist. The pool
  // is a pure function of (graph, examples, radius), so a resumed run
  // recomputes it identically.
  std::vector<Vertex> sources;
  for (const LabeledExample& example : examples) {
    sources.insert(sources.end(), example.tuple.begin(),
                   example.tuple.end());
  }
  std::sort(sources.begin(), sources.end());
  sources.erase(std::unique(sources.begin(), sources.end()), sources.end());
  std::vector<int> dist = BfsDistances(graph, sources, 2 * radius + 1);
  std::vector<Vertex> pool;
  Vertex far_representative = kNoVertex;
  for (Vertex v = 0; v < graph.order(); ++v) {
    if (dist[v] != kUnreachable) {
      pool.push_back(v);
    } else if (far_representative == kNoVertex) {
      far_representative = v;
    }
  }
  if (far_representative != kNoVertex) pool.push_back(far_representative);
  result.candidate_pool_size = static_cast<int64_t>(pool.size());

  // Brute force over pool^ell (pool is example-local, so this is
  // m·d^{O(r)}-sized, not n-sized) through the shared type-majority sweep:
  // the same far-pair composition, anytime semantics, determinism across
  // thread counts and resumable frontier as BruteForceErm.
  const int64_t pool_size = static_cast<int64_t>(pool.size());
  result.erm = TypeMajoritySweep(
      graph, examples, SaturatingPow(pool_size, ell),
      [&](int64_t index) {
        std::vector<Vertex> parameters;
        for (int64_t i : NthTuple(pool_size, ell, index)) {
          parameters.push_back(pool[i]);
        }
        return parameters;
      },
      options, std::move(registry), "sublinear", /*early_stop=*/true,
      /*first_item_discount=*/0);
  return result;
}

LocalTypeIndex::LocalTypeIndex(const Graph& graph, int rank, int radius,
                               ResourceGovernor* governor)
    : rank_(rank),
      radius_(radius),
      registry_(std::make_shared<TypeRegistry>(graph.vocabulary())) {
  types_.reserve(graph.order());
  for (Vertex v = 0; v < graph.order(); ++v) {
    if (!GovernorCheckpoint(governor)) break;
    Vertex tuple[] = {v};
    types_.push_back(
        ComputeLocalType(graph, tuple, rank, radius, registry_.get()));
  }
  build_status_ = GovernorStatus(governor);
}

ErmResult LocalTypeIndex::Erm(const TrainingSet& examples) const {
  ErmResult result;
  result.parameter_tuples_tried = 1;
  TypeSetHypothesis& h = result.hypothesis;
  h.rank = rank_;
  h.radius = radius_;
  h.registry = registry_;
  h.k = 1;

  std::map<TypeId, std::pair<int64_t, int64_t>> counts;
  for (const LabeledExample& example : examples) {
    FOLEARN_CHECK_EQ(example.tuple.size(), 1u)
        << "LocalTypeIndex supports unary examples";
    auto& entry = counts[Lookup(example.tuple[0])];
    (example.label ? entry.first : entry.second) += 1;
  }
  result.distinct_types_seen = static_cast<int64_t>(counts.size());
  int64_t wrong = 0;
  for (const auto& [type, count] : counts) {
    if (count.first > count.second) {
      h.accepted.push_back(type);
      wrong += count.second;
    } else {
      wrong += count.first;
    }
  }
  result.training_error =
      examples.empty()
          ? 0.0
          : static_cast<double>(wrong) / static_cast<double>(examples.size());
  return result;
}

int64_t LocalTypeIndex::distinct_types() const {
  std::set<TypeId> distinct(types_.begin(), types_.end());
  return static_cast<int64_t>(distinct.size());
}

}  // namespace folearn
