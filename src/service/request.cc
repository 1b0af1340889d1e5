#include "service/request.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <unordered_map>
#include <utility>

#include "fo/parser.h"
#include "learn/model_io.h"
#include "learn/nd_learner.h"
#include "learn/sublinear.h"
#include "server/protocol.h"
#include "types/type.h"
#include "util/governor.h"

namespace folearn {

namespace {

constexpr int64_t kSaturated = std::numeric_limits<int64_t>::max();

// Saturating arithmetic on non-negative byte counts.
int64_t SatAdd(int64_t a, int64_t b) {
  return a > kSaturated - b ? kSaturated : a + b;
}
int64_t SatMul(int64_t a, int64_t b) {
  return b != 0 && a > kSaturated / b ? kSaturated : a * b;
}

// Printed bytes of DistAtMost(a, b, d) (fo/transform.h) with one-character
// variable names and no parentheses: "a = b" for d = 0, "a = b | E(a, b)"
// for d = 1, and above "exists m. " + the two halves joined by " & ". The
// halving tree has d leaves of the d = 1 form and d − 1 inner nodes.
int64_t DistTextLowerBound(int d) {
  return d == 0 ? 5 : 15 * int64_t{d} + 13 * (int64_t{d} - 1);
}

// A lower bound on the bytes HypothesisToText prints for one relativised
// Hintikka formula, computed on the registry's type DAG (memoised per
// type) without building the formula tree. It mirrors HintikkaBuilder and
// RelativizeToBall:
//
//   φ_θ = atoms(θ) ∧ ⋀_{θ′} ∃z (guard(z) ∧ φ_θ′) ∧ ∀z (guard(z) → ⋁_{θ′} φ_θ′)
//
// with θ′ over the distinct children (over a cap > 1 registry the ∃ is
// an ∃^{≥c}, printed no shorter, and may come with a negated one), so
// every child's text appears at least twice, and each quantifier carries the
// guard dist(z, centres) ≤ r: one DistAtMost per centre variable. Only
// atoms and quantifiers are counted, at their shortest printed forms. The
// Hintikka variables (x1…, y1…, _h2…) have at least two characters, so a
// colour atom "R(x1)" takes |R| + 4 bytes, "x1 = x2" 7 and "E(x1, x2)" 9;
// a quantifier prefix "exists z. " takes at least 10.
class TextLowerBound {
 public:
  TextLowerBound(const TypeRegistry& registry, int centers, int radius)
      : registry_(registry),
        quantifier_bytes_(
            SatAdd(10, SatMul(centers, DistTextLowerBound(radius)))) {
    const Vocabulary& vocabulary = registry.vocabulary();
    for (ColorId c = 0; c < vocabulary.size(); ++c) {
      color_bytes_ += static_cast<int64_t>(vocabulary.Name(c).size()) + 4;
    }
  }

  int64_t Of(TypeId type) {
    auto found = memo_.find(type);
    if (found != memo_.end()) return found->second;
    const TypeNode& node = registry_.Node(type);
    const int64_t arity = node.arity;
    int64_t bytes = SatAdd(SatMul(arity, color_bytes_),
                           SatMul(arity * (arity - 1) / 2, 7 + 9));
    // A type with no children would fold to `false`; count nothing for it.
    if (node.rank > 0 && !node.children.empty()) {
      // One ∃ (or ∃^{≥c}) per distinct child, whatever the registry's cap.
      int64_t quantifiers = 1;
      for (size_t i = 0; i < node.children.size(); ++i) {
        if (i > 0 && node.children[i] == node.children[i - 1]) continue;
        ++quantifiers;
        bytes = SatAdd(bytes, SatMul(2, Of(node.children[i])));
      }
      bytes = SatAdd(bytes, SatMul(quantifiers, quantifier_bytes_));
    }
    memo_.emplace(type, bytes);
    return bytes;
  }

 private:
  const TypeRegistry& registry_;
  const int64_t quantifier_bytes_;
  int64_t color_bytes_ = 0;
  std::unordered_map<TypeId, int64_t> memo_;
};

Status ModelTooLarge(const TypeSetHypothesis& model, const char* measure,
                     int64_t bytes) {
  return InvalidArgumentError(
      "model text would take " + std::string(measure) +
      std::to_string(bytes) + " bytes, over the " +
      std::to_string(kMaxFrameBytes) + "-byte model limit (rank " +
      std::to_string(model.rank) + ", radius " +
      std::to_string(model.radius) + "); retry with a lower rank or radius");
}

}  // namespace

Status CheckExampleVertices(const Graph& graph,
                            std::span<const LabeledExample> examples) {
  for (const LabeledExample& example : examples) {
    for (Vertex v : example.tuple) {
      if (!graph.IsValidVertex(v)) {
        return DataLossError("example names vertex " + std::to_string(v) +
                             " outside the graph (order " +
                             std::to_string(graph.order()) + ")");
      }
    }
  }
  return OkStatus();
}

Status CheckModelFits(const Graph& graph, std::span<const Vertex> parameters,
                      int k, std::span<const LabeledExample> examples) {
  for (Vertex w : parameters) {
    if (!graph.IsValidVertex(w)) {
      return DataLossError("model parameter vertex " + std::to_string(w) +
                           " outside the graph (order " +
                           std::to_string(graph.order()) + ")");
    }
  }
  for (const LabeledExample& example : examples) {
    if (example.tuple.size() != static_cast<size_t>(k)) {
      return DataLossError("example arity " +
                           std::to_string(example.tuple.size()) +
                           " does not match the model's k=" +
                           std::to_string(k));
    }
  }
  return OkStatus();
}

Status CheckLimits(int64_t deadline_ms, int64_t max_work) {
  if (deadline_ms != kNoLimit && deadline_ms < 0) {
    return UsageError("deadline (--timeout-ms, deadline-ms) must be >= 0");
  }
  if (max_work != kNoLimit && max_work <= 0) {
    return UsageError("max-work must be positive");
  }
  return OkStatus();
}

Status CheckLearnRequest(const LearnRequest& request) {
  if (request.learner != "brute" && request.learner != "sublinear" &&
      request.learner != "nd") {
    return UsageError("unknown learner '" + request.learner +
                      "' (brute|sublinear|nd)");
  }
  if (request.rank < 0) return UsageError("rank must be >= 0");
  if (request.radius < -1) {
    return UsageError("radius must be >= 0 (or -1 for automatic)");
  }
  if (request.ell < 0) return UsageError("ell must be >= 0");
  if (request.threads < 0) {
    return UsageError("threads must be >= 0 (0 = all cores)");
  }
  if (!(request.epsilon > 0.0) || request.epsilon >= 1.0) {
    return UsageError("epsilon must be in (0, 1)");
  }
  return OkStatus();
}

ErmResult RunLearn(const Graph& graph, const TrainingSet& examples,
                   const LearnRequest& request, ErmOptions context,
                   std::shared_ptr<TypeRegistry> registry) {
  FOLEARN_CHECK(CheckLearnRequest(request).ok());
  context.rank = request.rank;
  context.radius = request.radius;
  context.threads = request.threads;
  if (request.learner == "brute") {
    return BruteForceErm(graph, examples, request.ell, context,
                         std::move(registry));
  }
  if (request.learner == "sublinear") {
    return SublinearErm(graph, examples, request.ell, context).erm;
  }
  NdLearnerOptions nd;
  nd.rank = context.rank;
  nd.radius = context.radius;
  nd.ell_star = std::max(request.ell, 1);
  nd.epsilon = request.epsilon;
  nd.governor = context.governor;
  nd.threads = context.threads;
  nd.cache_bytes = context.cache_bytes;
  nd.scan = context.scan;
  return LearnNowhereDense(graph, examples, nd).erm;
}

StatusOr<FormulaRef> ParseSentence(std::string_view text) {
  std::string error;
  std::optional<FormulaRef> sentence = ParseFormula(text, &error);
  if (!sentence.has_value()) {
    return InvalidArgumentError("cannot parse sentence: " + error);
  }
  if (!(*sentence)->free_variables().empty()) {
    return InvalidArgumentError("not a sentence: '" +
                                (*sentence)->free_variables().front() +
                                "' occurs free");
  }
  return *std::move(sentence);
}

StatusOr<MaterializedModel> MaterializeModel(const TypeSetHypothesis& model) {
  FOLEARN_CHECK(model.registry != nullptr);
  TextLowerBound bound(*model.registry, model.k + model.ell(), model.radius);
  int64_t at_least = 0;
  for (TypeId type : model.accepted) {
    at_least = SatAdd(at_least, bound.Of(type));
  }
  if (at_least > kMaxFrameBytes) {
    return ModelTooLarge(model, "at least ", at_least);
  }
  MaterializedModel materialized;
  materialized.hypothesis = model.ToExplicit();
  materialized.text = HypothesisToText(materialized.hypothesis);
  const int64_t bytes = static_cast<int64_t>(materialized.text.size());
  if (bytes > kMaxFrameBytes) return ModelTooLarge(model, "", bytes);
  return materialized;
}

}  // namespace folearn
