#ifndef FOLEARN_LEARN_ND_LEARNER_H_
#define FOLEARN_LEARN_ND_LEARNER_H_

#include <memory>
#include <vector>

#include "graph/graph.h"
#include "learn/dataset.h"
#include "learn/erm.h"
#include "nd/splitter_game.h"

namespace folearn {

// Theorem 13: the fixed-parameter tractable (L,Q)-FO-ERM learner for
// nowhere dense graphs.
//
// Pipeline per step i (paper §5):
//  1. Conflicts Ξ: pairs of opposite-label examples with equal local
//     (q*, r)-types; critical set Γ^i = examples involved in a conflict.
//     Non-critical examples are classified by their local type alone.
//  2. Lemma 14: greedily select centres X (pairwise distance > 4r+2,
//     maximising the number of attended critical tuples |Γ^i(x)|, at most
//     ⌈kℓ*s/ε⌉ of them) — parameters outside N_{4r+2}(X) can only
//     discriminate an ε/(ℓ*s) fraction of Γ.
//  3. Guess Y ⊆ X with |Y| ≤ ℓ* (deterministically unrolled; branches
//     ranked by attended-conflict mass and capped).
//  4. Lemma 3: covering Z ⊆ Y with radius R′ = 3^j·(k+2)(2r+1) and
//     pairwise disjoint R′-balls.
//  5. Splitter’s answers w_j to Connector picks z_j at radius R′ become
//     this step’s parameters ŵ^i.
//  6. Lemma 16: contract to G^{i+1} = induced N_{R′}(Z) plus carried-over
//     isolated vertices, expanded by distance colours D_{j,d}, neighbour
//     colours C_j, marker colours B_j, with Splitter’s vertices isolated,
//     and examples projected component-wise (far components replaced by
//     shared isolated type-vertices t_{I,θ}).
//  7. Recurse; after ≤ s steps, evaluate every collected parameter
//     candidate by type-majority ERM on the original graph and return the
//     best hypothesis. This final phase is a TypeMajoritySweep over the
//     collected list (learner tag "nd", radius `final_radius`, candidate
//     0's outer checkpoint waived), with BruteForceErm's far-pair
//     composition and determinism guarantees.
//
// Substitutions from the paper (all in DESIGN.md §4): type-majority ERM
// instead of formula enumeration; realised types only for the t_{I,θ}
// vertices; heuristic Splitter strategies with a round budget s;
// branch/candidate caps for the nondeterministic Y guess.
struct NdLearnerOptions {
  // The hypothesis class and the caller's context, as for every other
  // learner: erm.rank is q*, erm.radius is r (−1 ⇒ GaifmanRadius(q*)).
  // erm.governor is shared by the candidate-collection recursion and the
  // final ERM phase (work unit: one local-type computation / branch
  // exploration; on interruption the best candidate evaluated so far is
  // returned). erm.threads, ball_cache, cache_bytes and mem_budget reach
  // the final phase only: the collection recursion stays single-threaded
  // (its steps are sequentially dependent). erm.scan checkpoints the final
  // candidate-evaluation scan (learner tag "nd"); checkpoints are only
  // written during the final phase, so a resumable state implies
  // collection completed in the original process, and the resumed run
  // replays the (deterministic) collection ungoverned — its charge is
  // already part of the restored governor ledger — and continues the scan.
  ErmOptions erm;
  int ell_star = 1;   // ℓ*: parameters per step
  double epsilon = 0.25;
  int splitter_rounds = -1;  // s; −1 ⇒ DefaultSplitterRounds(R)
  SplitterStrategy* splitter = nullptr;  // default: tree splitter
  int max_branches_per_step = 16;   // cap on Y-guess unrolling
  int max_total_candidates = 256;   // cap on collected parameter tuples
  int final_radius = -1;  // radius of the final type ERM; −1 ⇒ 2r+1

  // R = 3^{ℓ*−1} · (k+2)(2r+1): the splitter-game radius (paper §5).
  int GameRadius(int k) const;
  int EffectiveRounds(int k) const {
    return splitter_rounds >= 0 ? splitter_rounds
                                : DefaultSplitterRounds(GameRadius(k));
  }
};

struct NdStepStats {
  int step = 0;
  int graph_order = 0;
  int examples = 0;
  int conflicts = 0;        // conflicting type classes
  int critical = 0;         // |Γ^i|
  int x_size = 0;           // |X|
  int branches = 0;         // Y guesses explored
};

struct NdLearnerResult {
  // Best hypothesis (types over the original graph) + error;
  // erm.parameter_tuples_tried equals candidates_evaluated.
  ErmResult erm;
  // kComplete: the full pipeline ran. Otherwise the governor tripped and
  // `erm` is the best candidate evaluated before the interruption.
  RunStatus status = RunStatus::kComplete;
  std::vector<NdStepStats> steps;
  int64_t candidates_evaluated = 0;
  // Parameters of the winning candidate (original-graph vertices).
  std::vector<Vertex> parameters;
};

// `registry` fixes the class, as for BruteForceErm: the final sweep
// interns the winner into it (nullptr = a fresh plain one), and the
// collection's conflict analysis and contraction use its cap, so a cap-T
// registry makes the learner ERM over FO+C.
NdLearnerResult LearnNowhereDense(
    const Graph& graph, const TrainingSet& examples,
    const NdLearnerOptions& options,
    std::shared_ptr<TypeRegistry> registry = nullptr);

}  // namespace folearn

#endif  // FOLEARN_LEARN_ND_LEARNER_H_
