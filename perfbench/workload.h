#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "learn/dataset.h"
#include "server/protocol.h"

namespace perfbench {

// The three workloads. Every input below is a pure function of the seed;
// the daemon only ever sees the graph, data and model bytes built here.
enum class Kind { kEvaluateBulk, kEvaluateText, kLearnShared };

std::optional<Kind> ParseKind(const std::string& name);

struct Batch {
  folearn::TrainingSet data;
  std::string text;
};

struct LearnInput {
  folearn::TrainingSet data;
  std::string text;
  std::string request_id;  // empty: the learn carries none
};

// One daemon session's inputs, plus the oracle's expectations for it.
struct SessionInputs {
  std::vector<LearnInput> setup_learns;  // the served models
  // Evaluate batches: the window cycles through those before
  // `prime_batch`; set-up primes every model with `prime_batch`.
  std::vector<Batch> batches;
  int prime_batch = 0;
  // Filled by ComputeSetupReference (evaluate-*): per served model its
  // text and training error, and per (model, batch) the expected error.
  std::vector<std::string> model_texts;
  std::vector<std::string> train_errors;
  std::vector<std::vector<std::string>> eval_errors;
};

struct Workload {
  Kind kind = Kind::kEvaluateBulk;
  uint64_t seed = 0;
  folearn::Graph graph;
  std::string graph_text;
  bool graph_as_fog = false;  // evaluate-bulk loads a .fog by path
  int rank = 1;
  int radius = 1;
  int ell = 0;
  bool ship_model_text = false;  // evaluate-text: model text per request
  // evaluate-*: one session per client. learn-shared: one session that a
  // writer (client 0) and a reader (client 1) share.
  std::vector<SessionInputs> sessions;
  // learn-shared writer: the fixed example tuples it relabels per learn.
  std::vector<folearn::Vertex> writer_tuples;
  // learn-shared daemon flags (0 = not passed).
  int max_session_models = 0;
  int dedup_window = 0;
};

Workload MakeWorkload(Kind kind, uint64_t seed);

// The writer's index-th learn (index 0 is the one setup runs): a fresh
// labelling of writer_tuples and a fresh request-id.
LearnInput WriterLearn(const Workload& workload, int64_t index);

// What a client asks for. Session and model ids are the daemon's; the
// replay reuses the same spec against its own ids.
enum class Op { kLoad, kLearn, kEvaluate };

struct RequestSpec {
  Op op = Op::kEvaluate;
  int client = 0;
  int session = 0;        // index into Workload::sessions
  int64_t learn = -1;     // setup_learns index, or the writer's index
  bool writer = false;    // learn-shared writer learn
  int model = -1;         // served-model index (evaluate-*)
  uint64_t model_id = 0;  // handle for by-handle evaluates
  int batch = 0;
};

folearn::Message BuildRequest(const Workload& workload,
                              const RequestSpec& spec, uint64_t session_id,
                              const std::string& fog_path);

// Examples in the request's data (evaluate batch or learn set).
int64_t RequestExamples(const Workload& workload, const RequestSpec& spec);

// The daemon's rendering of an error rate ("%.6f").
std::string FormatRate(double value);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
