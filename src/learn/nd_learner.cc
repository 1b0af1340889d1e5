#include "learn/nd_learner.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <set>
#include <utility>

#include "graph/algorithms.h"
#include "nd/covering.h"
#include "types/type.h"
#include "util/combinatorics.h"

namespace folearn {

int NdLearnerOptions::GameRadius(int k) const {
  int r = erm.EffectiveRadius();
  int64_t base = static_cast<int64_t>(k + 2) * (2 * r + 1);
  int64_t radius = base;
  for (int i = 1; i < ell_star; ++i) radius *= 3;
  FOLEARN_CHECK_LE(radius, int64_t{1} << 28) << "game radius overflow";
  return static_cast<int>(radius);
}

namespace {

// One level of the contraction chain: the current graph G^i, its examples
// Λ^i, and the mapping of its vertices back to the original graph
// (kNoVertex for synthetic type-vertices t_{I,θ}).
struct Level {
  Graph graph;
  std::vector<Vertex> to_original;
  TrainingSet examples;
};

// Per-level conflict analysis.
struct ConflictInfo {
  std::vector<TypeId> example_types;  // local type per example
  int conflicting_type_classes = 0;
  std::vector<int> critical_indices;  // indices into level.examples (Γ^i)
};

ConflictInfo AnalyzeConflicts(const Level& level, int rank, int radius,
                              int cap, ResourceGovernor* governor) {
  ConflictInfo info;
  TypeRegistry registry(level.graph.vocabulary(), cap);
  info.example_types.reserve(level.examples.size());
  std::map<TypeId, std::pair<int64_t, int64_t>> counts;
  for (const LabeledExample& example : level.examples) {
    if (!GovernorCheckpoint(governor)) return info;  // caller checks status
    TypeId type =
        ComputeLocalType(level.graph, example.tuple, rank, radius, &registry);
    info.example_types.push_back(type);
    auto& entry = counts[type];
    (example.label ? entry.first : entry.second) += 1;
  }
  std::set<TypeId> conflicting;
  for (const auto& [type, count] : counts) {
    if (count.first > 0 && count.second > 0) conflicting.insert(type);
  }
  info.conflicting_type_classes = static_cast<int>(conflicting.size());
  for (size_t i = 0; i < level.examples.size(); ++i) {
    if (conflicting.count(info.example_types[i]) > 0) {
      info.critical_indices.push_back(static_cast<int>(i));
    }
  }
  return info;
}

// Lemma 14: greedy selection of high-impact centres.
//
// attended[v] = |Γ^i(v)| = number of critical tuples v̄ with
// v ∈ N_{2r+1}(v̄). Selection: repeatedly take the highest-count vertex at
// distance > 4r+2 from all previously selected, up to `max_centers`.
// Synthetic isolated vertices are skipped (Remark 17(1): they are never
// useful parameters).
std::vector<Vertex> SelectCenters(const Level& level,
                                  const std::vector<int>& critical_indices,
                                  int radius, int max_centers,
                                  ResourceGovernor* governor) {
  const int attend_radius = 2 * radius + 1;
  std::vector<int64_t> attended(level.graph.order(), 0);
  for (int index : critical_indices) {
    if (!GovernorCheckpoint(governor)) return {};
    std::vector<Vertex> ball =
        Ball(level.graph, level.examples[index].tuple, attend_radius);
    for (Vertex v : ball) ++attended[v];
  }
  std::vector<Vertex> order(level.graph.order());
  for (Vertex v = 0; v < level.graph.order(); ++v) order[v] = v;
  std::stable_sort(order.begin(), order.end(), [&](Vertex a, Vertex b) {
    return attended[a] > attended[b];
  });

  std::vector<Vertex> centers;
  std::vector<int> dist_to_centers(level.graph.order(), kUnreachable);
  for (Vertex v : order) {
    if (static_cast<int>(centers.size()) >= max_centers) break;
    if (attended[v] == 0) break;
    if (level.to_original[v] == kNoVertex) continue;  // synthetic
    if (!centers.empty() && dist_to_centers[v] != kUnreachable &&
        dist_to_centers[v] <= 4 * radius + 2) {
      continue;
    }
    centers.push_back(v);
    // Refresh distances to the selected set.
    dist_to_centers = BfsDistances(level.graph, centers, 4 * radius + 2);
  }
  return centers;
}

// Key for sharing t_{I,θ} vertices: the component's index set plus its type.
struct ComponentKey {
  std::vector<int> indices;
  TypeId type;
  bool operator<(const ComponentKey& other) const {
    if (indices != other.indices) return indices < other.indices;
    return type < other.type;
  }
};

// Lemma 16: contract G^i to G^{i+1} given the guessed Y, the covering
// (Z, R′), and Splitter’s answers w̄.
//
// Returns std::nullopt if no example survives the projection.
std::optional<Level> ContractLevel(const Level& level,
                                   const std::vector<Vertex>& y_set,
                                   const std::vector<Vertex>& z_set,
                                   int r_prime,
                                   const std::vector<Vertex>& splitter_moves,
                                   int k, int rank, int radius, int cap,
                                   int step, ResourceGovernor* governor) {
  const Graph& g = level.graph;
  const int keep_radius = 6 * radius + 3;        // N_{6r+3}(Y)
  const int comp_radius = 2 * radius + 1;        // H_v̄ edge threshold
  const int color_max_d = (k + 2) * (2 * radius + 1);

  // Distances used by colours and the projection.
  std::vector<std::vector<int>> dist_from_y;
  dist_from_y.reserve(y_set.size());
  for (Vertex y : y_set) {
    Vertex source[] = {y};
    dist_from_y.push_back(BfsDistances(g, source, color_max_d));
  }
  std::vector<int> dist_to_y = BfsDistances(g, y_set, keep_radius);

  // Vertex set of G^{i+1}: N_{R′}(Z) plus carried-over isolated vertices.
  std::vector<Vertex> keep = Ball(g, z_set, r_prime);
  for (Vertex v = 0; v < g.order(); ++v) {
    if (g.Degree(v) == 0) keep.push_back(v);
  }
  std::sort(keep.begin(), keep.end());
  keep.erase(std::unique(keep.begin(), keep.end()), keep.end());
  InducedSubgraph induced = BuildInducedSubgraph(g, keep);

  Level next;
  next.graph = std::move(induced.graph);
  next.to_original.resize(next.graph.order());
  for (Vertex v = 0; v < next.graph.order(); ++v) {
    next.to_original[v] = level.to_original[induced.to_original[v]];
  }

  std::string tag = std::to_string(step);
  // Colours D_{j,d}: distance-d shells around each y_j (within the kept
  // vertex set).
  for (size_t j = 0; j < y_set.size(); ++j) {
    for (int d = 0; d <= color_max_d; ++d) {
      ColorId color = next.graph.AddColor("_D" + tag + "_" +
                                          std::to_string(j) + "_" +
                                          std::to_string(d));
      for (Vertex v = 0; v < next.graph.order(); ++v) {
        Vertex old = induced.to_original[v];
        if (dist_from_y[j][old] == d) next.graph.SetColor(v, color);
      }
    }
  }
  // Colours C_j = N_1(w_j) and B_j = {w_j}; then isolate w_j.
  for (size_t j = 0; j < splitter_moves.size(); ++j) {
    Vertex w_old = splitter_moves[j];
    Vertex w_new = induced.from_original[w_old];
    FOLEARN_CHECK_NE(w_new, kNoVertex)
        << "splitter move outside the contracted graph";
    ColorId c_color =
        next.graph.AddColor("_C" + tag + "_" + std::to_string(j));
    Vertex source[] = {w_old};
    std::vector<Vertex> closed = Ball(g, source, 1);
    for (Vertex u : closed) {
      Vertex mapped = induced.from_original[u];
      if (mapped != kNoVertex) next.graph.SetColor(mapped, c_color);
    }
    ColorId b_color =
        next.graph.AddColor("_B" + tag + "_" + std::to_string(j));
    next.graph.SetColor(w_new, b_color);
    next.graph.IsolateVertex(w_new);
  }

  // Project the examples. Only critical examples touching N_{6r+3}(Y)
  // survive; far components collapse to shared t_{I,θ} vertices.
  TypeRegistry registry(g.vocabulary(), cap);
  std::map<ComponentKey, Vertex> type_vertices;
  int type_vertex_counter = 0;
  for (const LabeledExample& example : level.examples) {
    if (!GovernorCheckpoint(governor)) return std::nullopt;
    bool touches_y = false;
    for (Vertex v : example.tuple) {
      if (dist_to_y[v] != kUnreachable && dist_to_y[v] <= keep_radius) {
        touches_y = true;
        break;
      }
    }
    if (!touches_y) continue;

    // Components of H_v̄: indices a, b joined iff dist(v_a, v_b) ≤ 2r+1.
    std::vector<int> component(k);
    for (int a = 0; a < k; ++a) component[a] = a;
    for (int a = 0; a < k; ++a) {
      Vertex source[] = {example.tuple[a]};
      std::vector<int> dist = BfsDistances(g, source, comp_radius);
      for (int b = a + 1; b < k; ++b) {
        int d = dist[example.tuple[b]];
        if (d != kUnreachable && d <= comp_radius) {
          // Union (tiny k: path-compression-free relabel).
          int from = component[b];
          int to = component[a];
          for (int c = 0; c < k; ++c) {
            if (component[c] == from) component[c] = to;
          }
        }
      }
    }

    std::vector<Vertex> projected(k, kNoVertex);
    bool ok = true;
    for (int root = 0; root < k && ok; ++root) {
      std::vector<int> members;
      for (int a = 0; a < k; ++a) {
        if (component[a] == root) members.push_back(a);
      }
      if (members.empty()) continue;
      bool near_y = false;
      for (int a : members) {
        int d = dist_to_y[example.tuple[a]];
        if (d != kUnreachable && d <= keep_radius) {
          near_y = true;
          break;
        }
      }
      if (near_y) {
        for (int a : members) {
          Vertex mapped = induced.from_original[example.tuple[a]];
          if (mapped == kNoVertex) {
            // With heuristic X/Y/Z choices the (k+2)(2r+1) containment
            // argument can fail; drop the example rather than mis-project.
            ok = false;
            break;
          }
          projected[a] = mapped;
        }
      } else {
        ComponentKey key;
        key.indices = members;
        std::vector<Vertex> sub_tuple;
        for (int a : members) sub_tuple.push_back(example.tuple[a]);
        key.type = ComputeLocalType(g, sub_tuple, rank, radius, &registry);
        auto [it, inserted] = type_vertices.emplace(key, kNoVertex);
        if (inserted) {
          Vertex t = next.graph.AddVertex();
          next.to_original.push_back(kNoVertex);
          ColorId color = next.graph.AddColor(
              "_T" + tag + "_" + std::to_string(type_vertex_counter++));
          next.graph.SetColor(t, color);
          it->second = t;
        }
        for (int a : members) projected[a] = it->second;
      }
    }
    if (!ok) continue;
    next.examples.push_back({std::move(projected), example.label});
  }
  if (next.examples.empty()) return std::nullopt;
  return next;
}

class CandidateCollector {
 public:
  CandidateCollector(const NdLearnerOptions& options, int k, int cap,
                     SplitterStrategy* splitter, int rounds,
                     NdLearnerResult* result)
      : options_(options),
        k_(k),
        cap_(cap),
        splitter_(splitter),
        rounds_(rounds),
        result_(result) {}

  void Collect(const Level& level, int step,
               const std::vector<Vertex>& prefix) {
    // The "stop here" candidate is always available: later steps only add
    // parameters.
    AddCandidate(prefix);
    if (step >= rounds_) return;
    if (Full()) return;

    const int radius = options_.erm.EffectiveRadius();
    ConflictInfo conflicts = AnalyzeConflicts(level, options_.erm.rank, radius,
                                              cap_, options_.erm.governor);
    if (GovernorInterrupted(options_.erm.governor)) return;
    NdStepStats stats;
    stats.step = step;
    stats.graph_order = level.graph.order();
    stats.examples = static_cast<int>(level.examples.size());
    stats.conflicts = conflicts.conflicting_type_classes;
    stats.critical = static_cast<int>(conflicts.critical_indices.size());
    // Record the step entry up front (depth-first recursion would otherwise
    // report deeper levels before their parents); `branches` is patched in
    // by index after the branch loop.
    const size_t stats_index = result_->steps.size();
    result_->steps.push_back(stats);
    if (conflicts.critical_indices.empty()) {
      return;  // every example classified by its local type alone
    }

    // Lemma 14 centre budget: ⌈kℓ*s/ε⌉.
    int max_centers = static_cast<int>(
        std::min<double>(64.0, std::ceil(k_ * options_.ell_star * rounds_ /
                                         options_.epsilon)));
    std::vector<Vertex> x_set =
        SelectCenters(level, conflicts.critical_indices, radius, max_centers,
                      options_.erm.governor);
    result_->steps[stats_index].x_size = static_cast<int>(x_set.size());
    if (x_set.empty() || GovernorInterrupted(options_.erm.governor)) return;

    // Unroll the nondeterministic guess Y ⊆ X, |Y| ≤ ℓ*. X is sorted by
    // impact, so lexicographically early subsets carry the most attended
    // conflicts; we enumerate in that order and cap the branch count.
    std::vector<std::vector<int64_t>> subsets;
    ForEachSubsetUpTo(
        static_cast<int64_t>(x_set.size()),
        /*min_size=*/1,
        std::min<int>(options_.ell_star, static_cast<int>(x_set.size())),
        [&](const std::vector<int64_t>& subset) {
          subsets.push_back(subset);
          return static_cast<int>(subsets.size()) <
                 options_.max_branches_per_step;
        });

    int branches = 0;
    for (const std::vector<int64_t>& subset : subsets) {
      if (Full()) break;
      if (!GovernorCheckpoint(options_.erm.governor)) break;
      ++branches;
      std::vector<Vertex> y_set;
      for (int64_t index : subset) y_set.push_back(x_set[index]);
      ExploreBranch(level, step, prefix, y_set);
    }
    result_->steps[stats_index].branches = branches;
  }

  bool Full() const {
    return static_cast<int>(candidates_.size()) >=
           options_.max_total_candidates;
  }

  const std::vector<std::vector<Vertex>>& candidates() const {
    return candidates_;
  }

 private:
  void ExploreBranch(const Level& level, int step,
                     const std::vector<Vertex>& prefix,
                     const std::vector<Vertex>& y_set) {
    const int radius = options_.erm.EffectiveRadius();
    // Lemma 3 covering at radius (k+2)(2r+1).
    CoveringResult covering = GreedyBallCovering(
        level.graph, y_set, (k_ + 2) * (2 * radius + 1));
    // Splitter's answers to Connector picks z_j at radius R′.
    std::vector<Vertex> moves;
    std::vector<Vertex> prefix_extension = prefix;
    for (Vertex z : covering.centers) {
      Vertex w = splitter_->ChooseRemoval(level.graph, z, covering.radius);
      moves.push_back(w);
      Vertex original = level.to_original[w];
      if (original != kNoVertex) prefix_extension.push_back(original);
    }
    std::optional<Level> next =
        ContractLevel(level, y_set, covering.centers, covering.radius, moves,
                      k_, options_.erm.rank, radius, cap_, step,
                      options_.erm.governor);
    if (!next.has_value()) {
      AddCandidate(prefix_extension);
      return;
    }
    Collect(*next, step + 1, prefix_extension);
  }

  void AddCandidate(const std::vector<Vertex>& candidate) {
    if (Full()) return;
    if (seen_.insert(candidate).second) candidates_.push_back(candidate);
  }

  const NdLearnerOptions& options_;
  int k_;
  int cap_;
  SplitterStrategy* splitter_;
  int rounds_;
  NdLearnerResult* result_;
  std::vector<std::vector<Vertex>> candidates_;
  std::set<std::vector<Vertex>> seen_;
};

}  // namespace

NdLearnerResult LearnNowhereDense(const Graph& graph,
                                  const TrainingSet& examples,
                                  const NdLearnerOptions& options,
                                  std::shared_ptr<TypeRegistry> registry) {
  FOLEARN_CHECK_GE(options.ell_star, 1);
  FOLEARN_CHECK_GT(options.epsilon, 0.0);
  NdLearnerResult result;
  ErmOptions final_options = options.erm;
  final_options.radius = options.final_radius >= 0
                             ? options.final_radius
                             : 2 * options.erm.EffectiveRadius() + 1;
  if (examples.empty()) {
    // Nothing to fit: the parameter-free hypothesis, which rejects all.
    result.erm = TypeMajorityErm(graph, examples, {}, final_options, registry);
    return result;
  }
  const int k = static_cast<int>(examples[0].tuple.size());
  const int rounds = options.EffectiveRounds(k);

  std::unique_ptr<SplitterStrategy> default_splitter;
  SplitterStrategy* splitter = options.splitter;
  if (splitter == nullptr) {
    default_splitter = MakeTreeSplitter();
    splitter = default_splitter.get();
  }

  Level root;
  root.graph = graph;
  root.to_original.resize(graph.order());
  for (Vertex v = 0; v < graph.order(); ++v) root.to_original[v] = v;
  root.examples = examples;

  // Resuming: the saved frontier was written during the final phase, so the
  // original process completed collection before dying, and collection is a
  // deterministic pure function of the inputs — replay it ungoverned. Its
  // original charge is part of the restored ledger, which the final sweep
  // primes below; charging the replay too would double-count it.
  NdLearnerOptions collect_options = options;
  if (options.erm.scan.resume != nullptr) {
    collect_options.erm.governor = nullptr;
  }

  const int cap = registry == nullptr ? 1 : registry->cap();
  CandidateCollector collector(collect_options, k, cap, splitter, rounds,
                               &result);
  collector.Collect(root, 0, {});

  // Final phase: evaluate every candidate parameter tuple by type-majority
  // ERM on the original graph through the shared sweep and keep the best.
  // Candidate 0 (the empty prefix) has no leading outer checkpoint — it
  // runs even under a tripped governor — hence the first-item discount.
  const std::vector<std::vector<Vertex>>& candidates = collector.candidates();
  result.erm = TypeMajoritySweep(
      graph, examples, static_cast<int64_t>(candidates.size()),
      [&](int64_t index) { return candidates[index]; }, final_options,
      std::move(registry), "nd", /*early_stop=*/true,
      /*first_item_discount=*/1);
  result.parameters = result.erm.hypothesis.parameters;
  result.candidates_evaluated = result.erm.parameter_tuples_tried;
  result.status = result.erm.status;
  return result;
}

}  // namespace folearn
