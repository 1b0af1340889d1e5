#include "learn/model_io.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <sstream>
#include <utility>

#include "fo/parser.h"
#include "fo/printer.h"
#include "util/checkpoint.h"
#include "util/strings.h"

namespace folearn {

namespace {

// Decimal digits only, and no larger than a Vertex can hold: a value past
// the 32-bit range is malformed input, never a wrapped (or UB) vertex id.
bool ParseInt(std::string_view token, int* out) {
  if (token.empty()) return false;
  int64_t value = 0;
  for (char c : token) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + (c - '0');
    if (value > std::numeric_limits<Vertex>::max()) return false;
  }
  *out = static_cast<int>(value);
  return true;
}

bool Fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

std::vector<std::string_view> Tokens(std::string_view line) {
  std::vector<std::string_view> tokens;
  size_t start = 0;
  while (start <= line.size()) {
    size_t end = line.find(' ', start);
    if (end == std::string_view::npos) end = line.size();
    if (end > start) tokens.push_back(line.substr(start, end - start));
    start = end + 1;
  }
  return tokens;
}

// Calls visit(line) for every non-blank, non-comment line of `text`,
// whitespace-stripped; stops early when visit returns false.
template <typename Visit>
bool ForEachLine(std::string_view text, const Visit& visit) {
  while (true) {
    const size_t end = text.find('\n');
    std::string_view line = StripWhitespace(text.substr(0, end));
    if (!line.empty() && line[0] != '#' && !visit(line)) return false;
    if (end == std::string_view::npos) return true;
    text.remove_prefix(end + 1);
  }
}

}  // namespace

std::string TrainingSetToText(const TrainingSet& examples) {
  std::ostringstream out;
  int k = examples.empty() ? 0 : static_cast<int>(examples[0].tuple.size());
  out << "examples " << k << "\n";
  for (const LabeledExample& example : examples) {
    out << (example.label ? '+' : '-');
    for (Vertex v : example.tuple) out << ' ' << v;
    out << "\n";
  }
  return out.str();
}

std::optional<TrainingSet> TrainingSetFromText(std::string_view text,
                                               std::string* error) {
  TrainingSet examples;
  int k = -1;
  const bool ok = ForEachLine(text, [&](std::string_view line) {
    std::vector<std::string_view> tokens = Tokens(line);
    if (tokens[0] == "examples") {
      if (k != -1 || tokens.size() != 2 || !ParseInt(tokens[1], &k)) {
        return Fail(error,
                    "malformed 'examples' header: " + std::string(line));
      }
      return true;
    }
    if (tokens[0] != "+" && tokens[0] != "-") {
      return Fail(error, "example lines must start with '+' or '-': " +
                             std::string(line));
    }
    if (k == -1) return Fail(error, "'examples <k>' header must come first");
    if (static_cast<int>(tokens.size()) != k + 1) {
      return Fail(error, "expected " + std::to_string(k) +
                             " vertices: " + std::string(line));
    }
    LabeledExample example;
    example.label = tokens[0] == "+";
    for (int i = 1; i <= k; ++i) {
      int v = 0;
      if (!ParseInt(tokens[i], &v)) {
        return Fail(error, "bad vertex: " + std::string(tokens[i]));
      }
      example.tuple.push_back(v);
    }
    examples.push_back(std::move(example));
    return true;
  });
  if (!ok) return std::nullopt;
  if (k == -1) {
    Fail(error, "missing 'examples <k>' header");
    return std::nullopt;
  }
  return examples;
}

std::string HypothesisToText(const Hypothesis& hypothesis) {
  std::ostringstream out;
  out << "hypothesis k " << hypothesis.k() << " ell " << hypothesis.ell()
      << "\n";
  if (!hypothesis.parameters.empty()) {
    out << "params";
    for (Vertex v : hypothesis.parameters) out << ' ' << v;
    out << "\n";
  }
  out << "formula " << ToString(hypothesis.formula) << "\n";
  return out.str();
}

std::vector<std::string> HypothesisHeader::AllVars() const {
  std::vector<std::string> vars = QueryVars(k);
  std::vector<std::string> params = ParamVars(ell);
  vars.insert(vars.end(), params.begin(), params.end());
  return vars;
}

StatusOr<HypothesisHeader> SplitHypothesisText(std::string_view text) {
  HypothesisHeader header;
  header.k = -1;
  header.ell = -1;
  bool have_formula = false;
  std::string error;
  const bool ok = ForEachLine(text, [&](std::string_view line) {
    // Only the keyword is tokenised: the formula line is the bulk of a
    // model and stays an unsplit view.
    const std::string_view keyword = line.substr(0, line.find(' '));
    if (keyword == "formula") {
      if (have_formula) return Fail(&error, "duplicate 'formula' line");
      header.formula = StripWhitespace(line.substr(keyword.size()));
      have_formula = true;
      return true;
    }
    std::vector<std::string_view> tokens = Tokens(line);
    if (keyword == "hypothesis") {
      if (tokens.size() != 5 || tokens[1] != "k" || tokens[3] != "ell" ||
          !ParseInt(tokens[2], &header.k) ||
          !ParseInt(tokens[4], &header.ell)) {
        return Fail(&error,
                    "malformed 'hypothesis' header: " + std::string(line));
      }
      return true;
    }
    if (keyword == "params") {
      for (size_t i = 1; i < tokens.size(); ++i) {
        int v = 0;
        if (!ParseInt(tokens[i], &v)) {
          return Fail(&error,
                      "bad parameter vertex: " + std::string(tokens[i]));
        }
        header.parameters.push_back(v);
      }
      return true;
    }
    return Fail(&error, "unknown keyword: " + std::string(keyword));
  });
  if (!ok) return InvalidArgumentError(error);
  if (header.k < 0 || header.ell < 0 || !have_formula) {
    return InvalidArgumentError("hypothesis requires header and formula");
  }
  if (static_cast<int>(header.parameters.size()) != header.ell) {
    return InvalidArgumentError("parameter count does not match ell");
  }
  return header;
}

StatusOr<FormulaRef> ParseHypothesisFormula(const HypothesisHeader& header) {
  std::string parse_error;
  std::optional<FormulaRef> formula =
      ParseFormula(header.formula, &parse_error);
  if (!formula.has_value()) {
    return InvalidArgumentError("formula parse error: " + parse_error);
  }
  // The formula's free variables must be covered by x1..xk, y1..yℓ.
  const std::vector<std::string> frame = header.AllVars();
  for (const std::string& var : (*formula)->free_variables()) {
    if (std::find(frame.begin(), frame.end(), var) == frame.end()) {
      return InvalidArgumentError("formula uses unknown free variable '" +
                                  var + "'");
    }
  }
  return *std::move(formula);
}

std::optional<Hypothesis> HypothesisFromText(std::string_view text,
                                             std::string* error) {
  StatusOr<Hypothesis> parsed = ParseHypothesis(text);
  if (!parsed.ok()) {
    Fail(error, parsed.status().message());
    return std::nullopt;
  }
  return *std::move(parsed);
}

namespace {

// Shared shape of the Status-typed wrappers below: parse failures are
// kInvalidArgument; for files, read first (kNotFound on a missing path) and
// prefix diagnostics with the path.
template <typename T>
StatusOr<T> PrefixPath(StatusOr<T> parsed, const std::string& path) {
  if (parsed.ok()) return parsed;
  return Status(parsed.status().code(),
                path + ": " + parsed.status().message());
}

}  // namespace

StatusOr<TrainingSet> ParseTrainingSet(std::string_view text) {
  std::string error;
  std::optional<TrainingSet> parsed = TrainingSetFromText(text, &error);
  if (!parsed.has_value()) return InvalidArgumentError(error);
  return *std::move(parsed);
}

StatusOr<TrainingSet> LoadTrainingSetFile(const std::string& path) {
  StatusOr<std::string> text = ReadFileToString(path);
  if (!text.ok()) return text.status();
  return PrefixPath(ParseTrainingSet(*text), path);
}

StatusOr<Hypothesis> ParseHypothesis(std::string_view text) {
  StatusOr<HypothesisHeader> header = SplitHypothesisText(text);
  if (!header.ok()) return header.status();
  StatusOr<FormulaRef> formula = ParseHypothesisFormula(*header);
  if (!formula.ok()) return formula.status();
  Hypothesis hypothesis;
  hypothesis.formula = *std::move(formula);
  hypothesis.query_vars = QueryVars(header->k);
  hypothesis.param_vars = ParamVars(header->ell);
  hypothesis.parameters = std::move(header->parameters);
  return hypothesis;
}

StatusOr<Hypothesis> LoadHypothesisFile(const std::string& path) {
  StatusOr<std::string> text = ReadFileToString(path);
  if (!text.ok()) return text.status();
  return PrefixPath(ParseHypothesis(*text), path);
}

}  // namespace folearn
