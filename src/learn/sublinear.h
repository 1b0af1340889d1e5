#ifndef FOLEARN_LEARN_SUBLINEAR_H_
#define FOLEARN_LEARN_SUBLINEAR_H_

#include <memory>

#include "graph/graph.h"
#include "learn/dataset.h"
#include "learn/erm.h"

namespace folearn {

// Sublinear-time learning — the research line the paper builds on:
//
//  * Grohe–Ritzert (LICS 2017, the paper's [22]): on graphs of maximum
//    degree d, FO-ERM runs in time polynomial in d and m, INDEPENDENT of
//    the background graph size. The key observation (also behind the
//    paper's Lemma 15): a parameter w farther than 2r+1 from every
//    training example contributes the same information to every example's
//    local type, so it can never resolve a conflict — the only parameters
//    worth trying live in N_{2r+1}(examples), a set whose size is bounded
//    by m·d^{O(r)}, not by n.
//
//  * Grohe–Löding–Ritzert (ALT 2017, [21]) / Grienenberger–Ritzert (ICDT
//    2019, [19]) and the paper's conclusion: with a PREPROCESSING pass one
//    can hope for sublinear learning even on unbounded-degree structures.
//    `LocalTypeIndex` is that pass for k = 1: it precomputes every
//    vertex's local type once; afterwards each parameter-free ERM call
//    costs O(m) dictionary lookups, independent of n.

// --- Degree-bounded sublinear ERM (no preprocessing) --------------------------

struct SublinearErmResult {
  ErmResult erm;  // erm.status records governor interruption (best-so-far)
  // |N_{2r+1}(examples)|: the actual candidate pool (≪ n on bounded-degree
  // graphs).
  int64_t candidate_pool_size = 0;
};

// ERM over H_{k,ℓ,q} with the parameter search restricted to the
// (2r+1)-neighbourhood of the training examples plus one "far"
// representative per extra slot (a far parameter's contribution is
// example-independent, so one representative suffices). Runtime depends on
// m and the local degree structure, not on n. `ell` ≤ 2 recommended.
// The pool^ℓ scan runs on TypeMajoritySweep (learner tag "sublinear"),
// so it shares BruteForceErm's far-pair composition, thread-count
// determinism, governor accounting and checkpoint/resume; a run cut
// before any candidate completes returns candidate 0's partial vote.
// `registry` fixes the class as for BruteForceErm (nullptr = a fresh plain
// one; a cap-T registry makes this ERM over FO+C).
SublinearErmResult SublinearErm(
    const Graph& graph, const TrainingSet& examples, int ell,
    const ErmOptions& options,
    std::shared_ptr<TypeRegistry> registry = nullptr);

// --- Preprocessing + O(m) queries (k = 1) --------------------------------------

// Precomputes ltp_{rank,radius}(G, v) for every vertex. Building costs one
// pass over the graph; afterwards Lookup is O(1) and parameter-free unary
// ERM is O(m log m).
class LocalTypeIndex {
 public:
  // Builds the index (the "polynomial-time preprocessing phase"). With a
  // governor (work unit: one vertex type computation) the build may stop
  // early; `build_status()` reports it and Lookup CHECK-fails on vertices
  // past the interruption point.
  LocalTypeIndex(const Graph& graph, int rank, int radius,
                 ResourceGovernor* governor = nullptr);

  TypeId Lookup(Vertex v) const {
    FOLEARN_CHECK_GE(v, 0);
    FOLEARN_CHECK_LT(static_cast<size_t>(v), types_.size())
        << "vertex " << v << " not indexed (build status: "
        << RunStatusName(build_status_) << ")";
    return types_[v];
  }

  // Parameter-free unary ERM using only index lookups — no graph access.
  ErmResult Erm(const TrainingSet& examples) const;

  int rank() const { return rank_; }
  int radius() const { return radius_; }
  RunStatus build_status() const { return build_status_; }
  int64_t indexed_vertices() const {
    return static_cast<int64_t>(types_.size());
  }
  int64_t distinct_types() const;
  const std::shared_ptr<TypeRegistry>& registry() const { return registry_; }

 private:
  int rank_;
  int radius_;
  RunStatus build_status_ = RunStatus::kComplete;
  std::shared_ptr<TypeRegistry> registry_;
  std::vector<TypeId> types_;
};

}  // namespace folearn

#endif  // FOLEARN_LEARN_SUBLINEAR_H_
