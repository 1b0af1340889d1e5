#ifndef FOLEARN_LEARN_MODEL_IO_H_
#define FOLEARN_LEARN_MODEL_IO_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "learn/dataset.h"
#include "learn/hypothesis.h"
#include "util/status.h"

namespace folearn {

// Text serialisation for training sets and learned hypotheses, so models
// can be saved, shipped, and re-evaluated (and so the CLI tool has a wire
// format). Deterministic, line-oriented, diff-friendly.

// Training set format:
//
//   examples <k>
//   + v1 v2 … vk        # one line per example, '+' positive / '-' negative
//   - v1 v2 … vk
std::string TrainingSetToText(const TrainingSet& examples);
std::optional<TrainingSet> TrainingSetFromText(std::string_view text,
                                               std::string* error = nullptr);

// Hypothesis format (the explicit h_{φ,w̄} form):
//
//   hypothesis k <k> ell <ℓ>
//   params v1 … vℓ       # omitted when ℓ = 0
//   formula <φ in the parser syntax, one line>
//
// Round-trips through the formula parser; the query/parameter variables are
// the canonical x1…xk / y1…yℓ.
std::string HypothesisToText(const Hypothesis& hypothesis);
std::optional<Hypothesis> HypothesisFromText(std::string_view text,
                                             std::string* error = nullptr);

// A hypothesis text split into its lines, with the formula left unparsed:
// enough to validate a model against a graph and a training set, and to key
// its compiled plan by source text, without paying for the formula parse.
struct HypothesisHeader {
  int k = 0;
  int ell = 0;
  std::vector<Vertex> parameters;  // exactly ell of them
  // The formula line after its keyword, whitespace-stripped. A view into
  // the text given to SplitHypothesisText; for a text HypothesisToText
  // wrote it is exactly ToString(formula).
  std::string_view formula;

  // The frame x1…xk · y1…yℓ the formula is compiled against.
  std::vector<std::string> AllVars() const;
};

// The one hypothesis-text reader: every header error HypothesisFromText
// reports comes from here (kInvalidArgument). A text with two `formula`
// lines is rejected.
StatusOr<HypothesisHeader> SplitHypothesisText(std::string_view text);

// Parses header.formula and checks that its free variables lie in
// header.AllVars(). HypothesisFromText is SplitHypothesisText followed by
// this call.
StatusOr<FormulaRef> ParseHypothesisFormula(const HypothesisHeader& header);

// Status-typed variants (recoverable errors for the CLI and other loaders):
// malformed text is kInvalidArgument with the parser diagnostic; the file
// loaders report a missing/unreadable path as kNotFound and prefix parse
// diagnostics with the path. Truncated or bit-flipped inputs come back as
// errors, never aborts (tests/corrupt_input_test.cc).
StatusOr<TrainingSet> ParseTrainingSet(std::string_view text);
StatusOr<TrainingSet> LoadTrainingSetFile(const std::string& path);
StatusOr<Hypothesis> ParseHypothesis(std::string_view text);
StatusOr<Hypothesis> LoadHypothesisFile(const std::string& path);

}  // namespace folearn

#endif  // FOLEARN_LEARN_MODEL_IO_H_
