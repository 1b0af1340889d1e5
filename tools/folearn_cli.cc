// folearn command-line tool: learn first-order queries over coloured
// graphs, evaluate saved models, model-check sentences (directly or
// through the Theorem 1 learning-oracle reduction), generate graphs, and
// profile nowhere-density.
//
//   folearn_cli generate --family tree --n 50 --seed 7 --color Red:0.3
//   folearn_cli learn    --graph g.txt --data d.txt --rank 1 --ell 1
//   folearn_cli eval     --graph g.txt --data d.txt --model m.txt
//   folearn_cli mc       --graph g.txt --sentence "exists x. Red(x)"
//   folearn_cli profile  --graph g.txt --radius 2
//
// Graph files use graph/io.h's text format, datasets/models learn/model_io.h.

#include <atomic>
#include <climits>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>

#include "graph/fog.h"
#include "graph/generators.h"
#include "graph/invariants.h"
#include "graph/io.h"
#include "learn/hardness.h"
#include "learn/model_io.h"
#include "learn/search_state.h"
#include "mc/evaluator.h"
#include "nd/splitter_game.h"
#include "nd/wcol.h"
#include "service/request.h"
#include "util/checkpoint.h"
#include "util/governor.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/strings.h"
#include "util/table.h"

namespace folearn {
namespace {

// Cooperative SIGINT/SIGTERM handling. The first signal requests governor
// cancellation, so a governed search loop unwinds through its normal
// best-so-far path — the partial model is emitted, a final checkpoint is
// written when --checkpoint is set, and the process exits 3 — instead of
// the default disposition discarding the whole frontier. A second signal
// (a stuck loop, an impatient operator), or any signal while no governed
// loop is running, falls through to the default disposition and kills the
// process the ordinary way.
std::atomic<bool> g_cancel_requested{false};
volatile std::sig_atomic_t g_governed_loop_active = 0;

extern "C" void HandleTerminationSignal(int sig) {
  // Only lock-free atomic stores and sig-safe libc calls in here.
  if (g_governed_loop_active != 0 &&
      !g_cancel_requested.load(std::memory_order_relaxed)) {
    g_cancel_requested.store(true, std::memory_order_relaxed);
    return;
  }
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

void InstallSignalHandlers() {
  std::signal(SIGINT, HandleTerminationSignal);
  std::signal(SIGTERM, HandleTerminationSignal);
}

// Minimal --flag value parser: flags may appear in any order, each at most
// once (a repeated flag is almost always a typo'd invocation, and silently
// keeping one of the two values hides it).
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i + 1 < argc; i += 2) {
      std::string key = argv[i];
      if (key.size() < 3 || key[0] != '-' || key[1] != '-') {
        error_ = "expected --flag, got '" + key + "'";
        return;
      }
      if (!values_.emplace(key.substr(2), argv[i + 1]).second) {
        error_ = "duplicate flag '" + key + "'";
        return;
      }
    }
    if ((argc - first) % 2 != 0) {
      error_ = "flags must come in --key value pairs";
    }
  }

  const std::string& error() const { return error_; }

  std::string Get(const std::string& key,
                  const std::string& fallback = "") const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  // Narrowing accessor: a syntactically valid integer outside int range
  // (e.g. --threads 4294967297, which a blind cast would silently truncate
  // to 1) is as much a usage error as garbage text, and exits 64 too.
  int GetInt(const std::string& key, int fallback) const {
    int64_t value = GetInt64(key, fallback);
    if (value < INT_MIN || value > INT_MAX) {
      DieInvalidValue(key, values_.find(key)->second);
    }
    return static_cast<int>(value);
  }

  // Strict decimal (util/strings.h): a sign other than '-', whitespace,
  // trailing garbage ("4x") and overflow are all rejected.
  int64_t GetInt64(const std::string& key, int64_t fallback) const {
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    int64_t value = 0;
    if (!ParseInt64(it->second, &value)) DieInvalidValue(key, it->second);
    return value;
  }

  double GetDouble(const std::string& key, double fallback) const {
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    try {
      size_t pos = 0;
      double value = std::stod(it->second, &pos);
      if (pos != it->second.size()) throw std::invalid_argument(key);
      return value;
    } catch (const std::exception&) {
      DieInvalidValue(key, it->second);
    }
  }

  bool Has(const std::string& key) const { return values_.count(key) > 0; }

  // First flag not in `allowed`, or "" if all are known.
  std::string FirstUnknown(std::initializer_list<const char*> allowed) const {
    for (const auto& [key, value] : values_) {
      bool known = false;
      for (const char* candidate : allowed) {
        if (key == candidate) {
          known = true;
          break;
        }
      }
      if (!known) return key;
    }
    return "";
  }

 private:
  // Malformed numeric flag values are usage errors, same as unknown
  // flags: report which flag and exit 64.
  [[noreturn]] static void DieInvalidValue(const std::string& key,
                                           const std::string& value) {
    std::fprintf(stderr, "invalid value '%s' for flag '--%s'\n",
                 value.c_str(), key.c_str());
    std::exit(64);
  }

  std::map<std::string, std::string> values_;
  std::string error_;
};

// Exit code for a command that hit a resource limit and produced a
// degraded (best-so-far or partial) result — distinct from hard failure
// (1) and from mc's "sentence is false" (2).
constexpr int kExitDegraded = 3;

// Exits with `status`'s message and StatusExitCode unless it is OK. Input
// files fail recoverably with sysexits-style codes: a missing/unreadable
// file exits 66 (EX_NOINPUT), malformed or corrupt contents exit 65
// (EX_DATAERR) — never a crash, never UB (the Status loaders validate
// before constructing anything). The request core's checks
// (service/request.h) exit through the same table, 64 for a flag out of
// range.
void Require(const Status& status) {
  if (status.ok()) return;
  std::fprintf(stderr, "%s\n", status.message().c_str());
  std::exit(StatusExitCode(status));
}

// Builds the optional governor from --timeout-ms / --max-work, wired to
// the signal-driven cancellation flag; exits 64 on invalid values. With
// `always` set a limitless governor is created even when neither flag is
// given, so Ctrl-C can still cancel the search cooperatively (learn uses
// this: its loops never route evaluation through the governed slow lane,
// so an idle governor costs nothing but checkpoint counting).
void MakeGovernor(const Args& args, std::optional<ResourceGovernor>& governor,
                  bool always) {
  int64_t timeout_ms = args.GetInt64("timeout-ms", kNoLimit);
  int64_t max_work = args.GetInt64("max-work", kNoLimit);
  Require(CheckLimits(timeout_ms, max_work));
  if (!always && timeout_ms == kNoLimit && max_work == kNoLimit) return;
  governor.emplace(GovernorLimits{timeout_ms, max_work},
                   &g_cancel_requested);
  g_governed_loop_active = 1;
}

// --cache-bytes must be a non-negative byte count; absent means unbounded.
// The historical "-1 = unbounded" sentinel is no longer accepted from the
// command line — a negative budget is always a typo, not a request.
int64_t GetCacheBytes(const Args& args) {
  if (!args.Has("cache-bytes")) return BallCache::kNoBudget;
  int64_t bytes = args.GetInt64("cache-bytes", BallCache::kNoBudget);
  if (bytes < 0) {
    std::fprintf(stderr, "--cache-bytes must be >= 0\n");
    std::exit(64);
  }
  return bytes;
}

// A non-negative small-int flag (degree, profile's radius): negative values
// would CHECK-fail deep inside the library — reject them at the boundary.
int GetNonNegativeInt(const Args& args, const char* key, int fallback) {
  int value = args.GetInt(key, fallback);
  if (value < 0) {
    std::fprintf(stderr, "--%s must be >= 0\n", key);
    std::exit(64);
  }
  return value;
}

// Evaluation options shared by eval and mc. --eval vm|interpreted
// (default vm) picks the engine: verdicts, stats, and governor cut points
// are identical in both modes; the bytecode VM is the default and the
// interpreter the slow reference oracle. Exits 64 on any other value. A
// colour missing from the graph's vocabulary denotes an empty class (as in
// folearnd), so a model or sentence naming one never reaches a CHECK.
EvalOptions GetEvalOptions(const Args& args, ResourceGovernor* governor) {
  std::string mode = args.Get("eval", "vm");
  std::optional<EvalEngine> engine = ParseEvalEngine(mode);
  if (!engine.has_value()) {
    std::fprintf(stderr, "--eval must be 'vm' or 'interpreted', got '%s'\n",
                 mode.c_str());
    std::exit(64);
  }
  EvalOptions options;
  options.engine = *engine;
  options.governor = governor;
  options.missing_color_is_false = true;
  return options;
}

void ReportInterruption(const ResourceGovernor& governor) {
  std::fprintf(stderr,
               "resource limit hit (%s) after %lld work units; result is "
               "best-so-far\n",
               RunStatusName(governor.status()),
               static_cast<long long>(governor.work_used()));
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) return false;
  out << content;
  return true;
}

// A required file flag that was not given is a usage error (64), in line
// with unknown/duplicate flags.
std::string GetRequiredPath(const Args& args, const char* key) {
  std::string path = args.Get(key);
  if (path.empty()) {
    std::fprintf(stderr, "missing --%s <file>\n", key);
    std::exit(64);
  }
  return path;
}

// Reads --graph in either format (text, or memory-mapped .fog binary —
// sniffed by magic, not extension); exits 64/65/66 on failure (see
// Require).
Graph LoadGraph(const Args& args) {
  StatusOr<Graph> graph = LoadGraphAuto(GetRequiredPath(args, "graph"));
  Require(graph.status());
  return *std::move(graph);
}

// graph-pack --graph g.txt --out g.fog: converts either input format to
// the versioned, checksummed `.fog` binary that loaders memory-map.
int CmdGraphPack(const Args& args) {
  Graph graph = LoadGraph(args);
  graph.Finalize();
  const std::string out = GetRequiredPath(args, "out");
  Require(WriteFogFile(out, graph));
  std::fprintf(stderr, "packed %d vertices / %lld edges into %s\n",
               graph.order(), static_cast<long long>(graph.EdgeCount()),
               out.c_str());
  return 0;
}

TrainingSet LoadData(const Args& args, const Graph& graph) {
  StatusOr<TrainingSet> data =
      LoadTrainingSetFile(GetRequiredPath(args, "data"));
  Require(data.status());
  Require(CheckExampleVertices(graph, *data));
  return *std::move(data);
}

// Above this order, generate switches the sparse families to the
// at-scale CSR builders (different RNG call sequence, so small-n outputs
// stay byte-stable across versions).
constexpr int kAtScaleThreshold = 100000;

int CmdGenerate(const Args& args) {
  Rng rng(args.GetInt("seed", 1));
  int n = args.GetInt("n", 50);
  if (n < 1) {
    std::fprintf(stderr, "--n must be >= 1\n");
    return 64;
  }
  std::string family = args.Get("family", "tree");
  Graph graph(0);
  if (family == "tree") {
    graph = MakeRandomTree(n, rng);
  } else if (family == "path") {
    graph = MakePath(n);
  } else if (family == "cycle") {
    graph = MakeCycle(std::max(n, 3));
  } else if (family == "grid") {
    int side = 1;
    while (side * side < n) ++side;
    // The at-scale builder packs straight into CSR; above the threshold
    // the per-vertex build-mode lists would dominate generation time.
    graph = n >= kAtScaleThreshold ? MakeGridAtScale(side, side)
                                   : MakeGrid(side, side);
  } else if (family == "bounded-degree") {
    const int degree = GetNonNegativeInt(args, "degree", 4);
    graph = n >= kAtScaleThreshold
                ? MakeBoundedDegreeAtScale(n, degree, 3ll * n / 2, rng)
                : MakeBoundedDegree(n, degree, 3 * n / 2, rng);
  } else if (family == "er") {
    double p = args.GetDouble("p", 2.0 / n);
    if (!(p >= 0.0) || p > 1.0) {
      std::fprintf(stderr, "--p must be a probability in [0, 1]\n");
      return 64;
    }
    graph = MakeErdosRenyi(n, p, rng);
  } else if (family == "star") {
    graph = MakeStar(std::max(n - 1, 1));
  } else if (family == "pa") {
    int attach = args.GetInt("attach", 1);
    if (attach < 1) {
      std::fprintf(stderr, "--attach must be >= 1\n");
      return 64;
    }
    graph = n >= kAtScaleThreshold
                ? MakePreferentialAttachmentAtScale(n, attach, rng)
                : MakePreferentialAttachment(n, attach, rng);
  } else {
    std::fprintf(stderr,
                 "unknown family '%s' (tree|path|cycle|grid|"
                 "bounded-degree|er|star|pa)\n",
                 family.c_str());
    return 64;
  }
  // --color Name:prob, repeatable via comma. The probability is parsed
  // with full validation (garbage like "Red:abc" or an out-of-range value
  // is a usage error, not an uncaught std::stod exception).
  if (args.Has("color")) {
    for (const std::string& spec : Split(args.Get("color"), ',')) {
      std::vector<std::string> parts = Split(spec, ':');
      if (parts.size() != 2 || parts[0].empty()) {
        std::fprintf(stderr, "bad --color spec '%s' (Name:prob)\n",
                     spec.c_str());
        return 64;
      }
      double prob = 0.0;
      try {
        size_t pos = 0;
        prob = std::stod(parts[1], &pos);
        if (pos != parts[1].size()) throw std::invalid_argument(spec);
      } catch (const std::exception&) {
        std::fprintf(stderr,
                     "bad --color probability '%s' in spec '%s'\n",
                     parts[1].c_str(), spec.c_str());
        return 64;
      }
      if (!(prob >= 0.0) || prob > 1.0) {
        std::fprintf(stderr,
                     "--color probability must be in [0, 1], got '%s'\n",
                     parts[1].c_str());
        return 64;
      }
      AddRandomColors(graph, {parts[0]}, prob, rng);
    }
  }
  std::string text = ToText(graph);
  std::string out_path = args.Get("out");
  if (out_path.empty()) {
    std::fputs(text.c_str(), stdout);
  } else if (!WriteFile(out_path, text)) {
    std::fprintf(stderr, "cannot write '%s'\n", out_path.c_str());
    return 1;
  }
  return 0;
}

// FNV-1a fingerprint of the learning problem: the input files plus every
// parameter that changes the candidate scan. Thread count, evaluation
// mode, and resource limits are deliberately excluded — they never change
// the scan's semantics, so a checkpoint written under one of them resumes
// under another (e.g. save with --threads 8, resume with --threads 1).
uint64_t ProblemFingerprint(uint64_t graph_fingerprint,
                            const std::string& data_text,
                            const LearnRequest& learn) {
  // For text graphs LoadGraphAuto's fingerprint is Fnv1a64 of the file
  // bytes — the value this function hashed directly before the binary
  // format existed — so problem fingerprints (and therefore resumable
  // checkpoints) are unchanged for text inputs.
  uint64_t fp = graph_fingerprint;
  fp = Fnv1a64(data_text, fp);
  char knobs[160];
  std::snprintf(knobs, sizeof(knobs),
                "learner=%s rank=%d radius=%d ell=%d epsilon=%.17g",
                learn.learner.c_str(), learn.rank, learn.radius, learn.ell,
                learn.epsilon);
  return Fnv1a64(knobs, fp);
}

int CmdLearn(const Args& args, ResourceGovernor* governor) {
  // learn loads through LoadGraphAuto (text or .fog, sniffed by content)
  // and keeps the returned fingerprint: it feeds the problem fingerprint
  // below. The data file is still read raw for the same reason.
  const std::string graph_path = GetRequiredPath(args, "graph");
  const std::string data_path = GetRequiredPath(args, "data");
  uint64_t graph_fingerprint = 0;
  StatusOr<Graph> graph = LoadGraphAuto(graph_path, &graph_fingerprint);
  StatusOr<std::string> data_text = ReadFileToString(data_path);
  Require(data_text.status());
  Require(graph.status());  // message already names the path
  StatusOr<TrainingSet> data = ParseTrainingSet(*data_text);
  if (!data.ok()) {
    Require(Status(data.status().code(),
                   data_path + ": " + data.status().message()));
  }
  LearnRequest learn;
  learn.learner = args.Get("learner", learn.learner);
  learn.rank = args.GetInt("rank", learn.rank);
  learn.radius = args.GetInt("radius", learn.radius);
  learn.ell = args.GetInt("ell", learn.ell);
  learn.threads = args.GetInt("threads", learn.threads);
  learn.epsilon = args.GetDouble("epsilon", learn.epsilon);
  Require(CheckLearnRequest(learn));
  Require(CheckExampleVertices(*graph, *data));
  ErmOptions context;
  context.governor = governor;
  context.cache_bytes = GetCacheBytes(args);

  // Checkpoint/resume wiring. --checkpoint-every-ms and --crash-at-save
  // modulate saving, so they require --checkpoint; --resume alone is fine
  // (finish an interrupted run without writing further checkpoints).
  std::string checkpoint_path = args.Get("checkpoint");
  if (checkpoint_path.empty() &&
      (args.Has("checkpoint-every-ms") || args.Has("crash-at-save"))) {
    std::fprintf(stderr,
                 "--checkpoint-every-ms/--crash-at-save require "
                 "--checkpoint <file>\n");
    return 64;
  }
  int64_t every_ms = args.GetInt64("checkpoint-every-ms", 0);
  if (every_ms < 0) {
    std::fprintf(stderr, "--checkpoint-every-ms must be >= 0\n");
    return 64;
  }
  const uint64_t fingerprint =
      ProblemFingerprint(graph_fingerprint, *data_text, learn);
  std::optional<SearchFrontier> frontier;
  if (args.Has("resume")) {
    StatusOr<SearchFrontier> loaded = LoadFrontier(args.Get("resume"));
    Require(loaded.status());
    Require(CheckFrontierCompatible(*loaded, learn.learner, fingerprint));
    frontier = *std::move(loaded);
  }
  std::optional<SearchCheckpointer> checkpointer;
  if (!checkpoint_path.empty()) {
    checkpointer.emplace(checkpoint_path,
                         static_cast<double>(every_ms));
    if (args.Has("crash-at-save")) {
      int64_t crash_at = args.GetInt64("crash-at-save", -1);
      if (crash_at <= 0) {
        std::fprintf(stderr, "--crash-at-save must be positive\n");
        return 64;
      }
      checkpointer->set_crash_after_saves(crash_at);
    }
  }
  context.scan.checkpointer =
      checkpointer.has_value() ? &*checkpointer : nullptr;
  context.scan.resume = frontier.has_value() ? &*frontier : nullptr;
  context.scan.fingerprint = fingerprint;

  ErmResult result = RunLearn(*graph, *data, learn, context);
  // An interrupted scan reports the error over the examples it saw
  // before the cut, which can be optimistic; `eval` gives the true one.
  std::fprintf(stderr, "training error%s: %.4f over %lld local types\n",
               IsInterrupted(result.status) ? " (partial)" : "",
               result.training_error,
               static_cast<long long>(result.distinct_types_seen));
  StatusOr<MaterializedModel> model = MaterializeModel(result.hypothesis);
  Require(model.status());
  const std::string& text = model->text;
  std::string out_path = args.Get("out");
  if (out_path.empty()) {
    std::fputs(text.c_str(), stdout);
  } else if (!WriteFile(out_path, text)) {
    std::fprintf(stderr, "cannot write '%s'\n", out_path.c_str());
    return 1;
  }
  if (IsInterrupted(result.status)) {
    FOLEARN_CHECK(governor != nullptr);
    ReportInterruption(*governor);
    return kExitDegraded;
  }
  return 0;
}

int CmdEval(const Args& args, ResourceGovernor* governor) {
  Graph graph = LoadGraph(args);
  TrainingSet data = LoadData(args, graph);
  StatusOr<Hypothesis> hypothesis =
      LoadHypothesisFile(GetRequiredPath(args, "model"));
  Require(hypothesis.status());
  Require(CheckModelFits(graph, hypothesis->parameters, hypothesis->k(),
                         data));
  Require(CheckSetQuantifiersFit(graph, !hypothesis->formula->IsFirstOrder()));
  double err = TrainingError(graph, *hypothesis, data,
                             GetEvalOptions(args, governor));
  std::printf("error: %.4f on %zu examples\n", err, data.size());
  if (GovernorInterrupted(governor)) {
    ReportInterruption(*governor);
    return kExitDegraded;
  }
  return 0;
}

void DeclareMissingColors(const FormulaRef& formula, Graph& graph) {
  if (formula->kind() == FormulaKind::kColor &&
      !graph.FindColor(formula->color_name()).has_value()) {
    graph.AddColor(formula->color_name());
  }
  for (const FormulaRef& child : formula->children()) {
    DeclareMissingColors(child, graph);
  }
}

int CmdMc(const Args& args, ResourceGovernor* governor) {
  Graph graph = LoadGraph(args);
  if (!args.Has("sentence")) {
    std::fprintf(stderr, "missing --sentence\n");
    return 64;
  }
  StatusOr<FormulaRef> sentence = ParseSentence(args.Get("sentence"));
  Require(sentence.status());
  bool value;
  if (args.Has("via-erm")) {
    Require(CheckPlainFo(*sentence));
    // The reduction reads colours off the graph: declare each colour the
    // sentence names but the graph lacks as an empty class, which is what
    // the evaluators' missing_color_is_false means for plain mc.
    DeclareMissingColors(*sentence, graph);
    TypeErmOracle oracle(/*relaxation_ell=*/0, governor);
    ModelCheckOptions mc_options;
    mc_options.governor = governor;
    HardnessStats stats;
    value = ModelCheckViaErm(graph, *sentence, oracle, mc_options, &stats);
    std::fprintf(stderr,
                 "via ERM oracle: %lld oracle calls, max |T| = %d, %lld "
                 "recursion nodes\n",
                 static_cast<long long>(stats.oracle_calls),
                 stats.max_representatives,
                 static_cast<long long>(stats.recursion_nodes));
  } else {
    Require(CheckSetQuantifiersFit(graph, !(*sentence)->IsFirstOrder()));
    value = EvaluateSentence(graph, *sentence, GetEvalOptions(args, governor));
  }
  if (GovernorInterrupted(governor)) {
    // The truth value is unspecified once the evaluation was cut short —
    // do not report one.
    std::printf("indeterminate\n");
    ReportInterruption(*governor);
    return kExitDegraded;
  }
  std::printf("%s\n", value ? "true" : "false");
  return value ? 0 : 2;
}

int CmdProfile(const Args& args) {
  Graph graph = LoadGraph(args);
  const int radius = GetNonNegativeInt(args, "radius", 2);
  Table table({"invariant", "value"});
  table.AddRow({"order", std::to_string(graph.order())});
  table.AddRow({"edges", std::to_string(graph.EdgeCount())});
  table.AddRow({"max degree", std::to_string(graph.MaxDegree())});
  table.AddRow({"degeneracy",
                std::to_string(ComputeDegeneracy(graph).degeneracy)});
  int girth = ComputeGirth(graph);
  table.AddRow({"girth", girth == kNoGirth ? "∞ (forest)"
                                           : std::to_string(girth)});
  table.AddRow({"diameter", std::to_string(ComputeDiameter(graph))});
  table.AddRow(
      {"wcol_" + std::to_string(radius),
       std::to_string(WeakColoringNumberDegeneracyOrder(graph, radius))});
  auto splitter = IsForest(graph) ? MakeTreeSplitter()
                                  : MakeGreedyDegreeSplitter();
  auto connector = MakeGreedyBallConnector();
  SplitterGameResult game =
      PlaySplitterGame(graph, radius, 3 * radius + 20, *splitter,
                       *connector);
  table.AddRow({"splitter rounds (r=" + std::to_string(radius) + ")",
                game.splitter_won ? std::to_string(game.rounds_used)
                                  : "> budget"});
  table.Print();
  return 0;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: folearn_cli <command> [--flag value]...\n"
      "  generate --family tree|path|cycle|grid|bounded-degree|er|star|pa\n"
      "           --n N [--seed S] [--color Name:prob[,Name:prob]]\n"
      "           [--out g.txt]\n"
      "  learn    --graph g.txt --data d.txt [--rank q] [--radius r]\n"
      "           [--ell l] [--learner brute|sublinear|nd] [--out m.txt]\n"
      "           [--checkpoint c.ckpt] [--checkpoint-every-ms T]\n"
      "           [--resume c.ckpt] [--cache-bytes B]\n"
      "  eval     --graph g.txt --data d.txt --model m.txt\n"
      "  mc       --graph g.txt --sentence \"...\" [--via-erm 1]\n"
      "  profile  --graph g.txt [--radius r]\n"
      "  graph-pack --graph g.txt --out g.fog   (pack into the mmap-able\n"
      "           binary graph format; --graph flags everywhere accept\n"
      "           either format, sniffed by content)\n"
      "every command accepts [--timeout-ms T] [--max-work W] and\n"
      "[--threads N] (0 = all cores; results are identical for any N);\n"
      "eval and mc also accept [--eval vm|interpreted] (default vm, the\n"
      "bytecode engine; results are identical, interpreted is the\n"
      "reference oracle; colours missing from the graph denote empty\n"
      "classes); a run cut short emits best-so-far\n"
      "and exits 3; SIGINT/SIGTERM take the same path (best-so-far model\n"
      "+ final checkpoint, exit 3). learn --checkpoint persists the\n"
      "search frontier so a killed run can be continued with --resume\n"
      "(byte-identical result to an uninterrupted run, for any\n"
      "--threads). exit codes: 64 usage,\n"
      "65 corrupt/malformed input, 66 missing input file, 70 injected\n"
      "crash (--crash-at-save, tests only)\n");
  return 64;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string command = argv[1];
  Args args(argc, argv, 2);
  if (!args.error().empty()) {
    std::fprintf(stderr, "%s\n", args.error().c_str());
    return 64;
  }

  std::string unknown;
  if (command == "generate") {
    unknown = args.FirstUnknown({"family", "n", "seed", "color", "degree",
                                 "p", "attach", "out", "timeout-ms",
                                 "max-work", "threads"});
  } else if (command == "learn") {
    unknown = args.FirstUnknown({"graph", "data", "rank", "radius", "ell",
                                 "learner", "epsilon", "out", "timeout-ms",
                                 "max-work", "threads", "checkpoint",
                                 "checkpoint-every-ms", "resume",
                                 "crash-at-save", "cache-bytes"});
  } else if (command == "eval") {
    unknown = args.FirstUnknown({"graph", "data", "model", "eval",
                                 "timeout-ms", "max-work", "threads"});
  } else if (command == "mc") {
    unknown = args.FirstUnknown({"graph", "sentence", "via-erm", "eval",
                                 "timeout-ms", "max-work", "threads"});
  } else if (command == "profile") {
    unknown = args.FirstUnknown({"graph", "radius", "timeout-ms",
                                 "max-work", "threads"});
  } else if (command == "graph-pack") {
    unknown = args.FirstUnknown({"graph", "out", "timeout-ms", "max-work",
                                 "threads"});
  } else {
    return Usage();
  }
  if (!unknown.empty()) {
    std::fprintf(stderr, "unknown flag '--%s' for command '%s'\n",
                 unknown.c_str(), command.c_str());
    return 64;
  }

  InstallSignalHandlers();

  // learn always runs governed (possibly limitless) so SIGINT/SIGTERM can
  // cancel the scan cooperatively — best-so-far model, final checkpoint,
  // exit 3. eval/mc attach the governor only when limits were requested,
  // because a governor's mere presence routes formula evaluation through
  // the slower mirrored lane; an ungoverned eval/mc dies on the signal's
  // default disposition instead.
  std::optional<ResourceGovernor> governor;
  MakeGovernor(args, governor, /*always=*/command == "learn");
  ResourceGovernor* gov = governor.has_value() ? &*governor : nullptr;

  // generate and profile run no governed search loops; the limits are
  // accepted for interface uniformity but cannot trip there.
  if (command == "generate" || command == "profile" ||
      command == "graph-pack") {
    g_governed_loop_active = 0;  // Ctrl-C kills these the normal way
    if (command == "generate") return CmdGenerate(args);
    return command == "profile" ? CmdProfile(args) : CmdGraphPack(args);
  }
  if (command == "learn") return CmdLearn(args, gov);
  if (command == "eval") return CmdEval(args, gov);
  return CmdMc(args, gov);
}

}  // namespace
}  // namespace folearn

int main(int argc, char** argv) { return folearn::Main(argc, argv); }
