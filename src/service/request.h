#ifndef FOLEARN_SERVICE_REQUEST_H_
#define FOLEARN_SERVICE_REQUEST_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "fo/formula.h"
#include "graph/graph.h"
#include "learn/dataset.h"
#include "learn/erm.h"
#include "learn/hypothesis.h"
#include "util/status.h"

namespace folearn {

// The request core shared by folearn_cli and folearnd. Each of the paper's
// three problems — FO-ERM (learn), evaluating a hypothesis h_{φ,w̄}
// (eval / evaluate) and FO model checking (mc / query) — passes the checks
// below before it reaches the library, and every learn runs through the
// one learner dispatch and the one model materialisation. Both front ends
// map a returned Status through StatusExitCode, so a CLI exit code and the
// daemon's wire code for the same input come from one table: kUsage → 64
// (a flag or field out of range), kInvalidArgument / kDataLoss → 65.

// Every example vertex lies in the graph (kDataLoss otherwise): a data
// file or request field is external input and must not reach the
// library's CHECKs.
Status CheckExampleVertices(const Graph& graph,
                            std::span<const LabeledExample> examples);

// A model with `k` query variables and the given parameters w̄ fits the
// graph and the examples: every parameter is a vertex of the graph and
// every example has arity k (kDataLoss otherwise).
Status CheckModelFits(const Graph& graph, std::span<const Vertex> parameters,
                      int k, std::span<const LabeledExample> examples);

// Resource limits of one request: a deadline (CLI --timeout-ms, wire
// deadline-ms) is >= 0 and a work budget is positive; kNoLimit means none.
Status CheckLimits(int64_t deadline_ms, int64_t max_work);

// One FO-ERM request: the hypothesis class and the learner that searches
// it. Defaults are the CLI's and the daemon's.
struct LearnRequest {
  std::string learner = "brute";  // brute | sublinear | nd
  int rank = 1;                   // q
  int radius = -1;                // r; −1 ⇒ GaifmanRadius(rank)
  int ell = 0;                    // ℓ (nd: ℓ* = max(ℓ, 1))
  int threads = 1;                // 0 = hardware concurrency
  double epsilon = 0.2;           // nd only
};

// The learn bounds: a known learner, rank, ell and threads >= 0, radius
// >= -1 and epsilon in (0, 1). kUsage otherwise.
Status CheckLearnRequest(const LearnRequest& request);

// Runs the requested learner on a request that passed CheckLearnRequest
// and whose examples passed CheckExampleVertices. The hypothesis class
// (rank, radius, threads) comes from `request`; everything else — the
// governor, ball cache, per-worker cache budget, memory account and scan
// hooks — is the caller's `context`. Every learner interns the winning
// hypothesis into `registry` (nullptr = a fresh plain one), whose cap
// fixes the class: cap T > 1 is FO+C with thresholds ≤ T.
ErmResult RunLearn(const Graph& graph, const TrainingSet& examples,
                   const LearnRequest& request, ErmOptions context,
                   std::shared_ptr<TypeRegistry> registry = nullptr);

// Parses an FO sentence (kInvalidArgument on a parse error, a free
// variable or a free set variable).
StatusOr<FormulaRef> ParseSentence(std::string_view text);

// A formula with MSO set quantifiers enumerates all 2^n subsets of the
// graph, so on a graph above kMaxMsoOrder vertices it is refused
// (kInvalidArgument). `uses_set_variables`: folearnd passes
// plan.num_set_slots() > 0 on every request after plan resolution (a
// cached plan is checked against each graph it meets), folearn_cli
// !formula->IsFirstOrder().
Status CheckSetQuantifiersFit(const Graph& graph, bool uses_set_variables);

// Model checking through the FO-ERM oracle (mc --via-erm, Lemma 7) covers
// plain FO: a sentence with a counting quantifier or any MSO construct is
// refused (kInvalidArgument).
Status CheckPlainFo(const FormulaRef& sentence);

// A learned model in both of its delivered forms.
struct MaterializedModel {
  Hypothesis hypothesis;  // the explicit h_{φ,w̄}
  std::string text;       // HypothesisToText(hypothesis)
};

// Materialises a learner's type-set hypothesis into its explicit
// relativised-Hintikka form and model text. Hintikka formulas grow
// non-elementarily in the rank, and the text is their tree expansion, so a
// lower bound on the text size is computed from the type DAG first: a
// model whose bound (or, once built, whose text) exceeds kMaxFrameBytes —
// more than folearnd could send in one frame — is refused with
// kInvalidArgument before the tree is built.
StatusOr<MaterializedModel> MaterializeModel(const TypeSetHypothesis& model);

}  // namespace folearn

#endif  // FOLEARN_SERVICE_REQUEST_H_
