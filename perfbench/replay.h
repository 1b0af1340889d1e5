#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "graph/algorithms.h"
#include "graph/graph.h"
#include "learn/hypothesis.h"
#include "mc/plan_cache.h"
#include "server/protocol.h"
#include "server/session_store.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {

// Daemon settings the replay mirrors (folearnd's defaults unless the
// workload passes a flag).
struct ReplayConfig {
  std::string journal_dir;  // scratch directory of this replay
  bool journal = false;     // journal sessions there, as --state-dir does
  int max_session_models = 0;  // 0 = no cap
  int dedup_window = 64;
};

// What one replayed learn produced, for the oracle and the layer metrics.
struct LearnRecord {
  folearn::TypeSetHypothesis hypothesis;
  std::string model_text;
  int64_t candidates = 0;
  int64_t distinct_types = 0;
  int64_t registry_growth = 0;
};

// The daemon's request path, rebuilt in-process from the layers' public
// functions: frame decode and encode (server), data and model parsing and
// the candidate sweep (learn), type interning (types), graph loading and
// the ball cache (graph), plan-cache lookup, VM binding and execution
// (mc), and the journal write (server). It follows src/server/server.cc's
// handlers step for step for the requests the benchmark sends, so its
// answers are the oracle the daemon's are checked against and its spans
// split a request's time by layer. Single-threaded.
class ReplayDaemon {
 public:
  explicit ReplayDaemon(ReplayConfig config);
  ~ReplayDaemon();
  ReplayDaemon(const ReplayDaemon&) = delete;
  ReplayDaemon& operator=(const ReplayDaemon&) = delete;

  // Decodes one request payload, runs it, and returns the encoded
  // response payload. Unsupported or failing requests answer
  // status=error, as the daemon would.
  std::string Handle(std::string_view payload, Tracer& tracer);

  // Every learn so far, in order.
  const std::vector<LearnRecord>& learns() const { return learns_; }

  // The hypothesis registered under a model id in a session (any learn,
  // including ones journal compaction dropped since).
  const LearnRecord* FindLearn(uint64_t session, uint64_t model_id) const;

  // Layer probes for calls a workload's request path skips (the handle
  // path parses no model; the evaluate workloads journal nothing): the
  // cost each would have on this workload's own data.
  double ProbeParseModelUs(uint64_t session);
  double ProbeJournalSaveMs(uint64_t session, int64_t* bytes);

  // Bytes of the session journals written so far (0 without journaling).
  int64_t JournalSize() const;

  // Counting-lane statistics of one evaluate, on a fresh evaluator (so
  // the counts do not depend on memo state): sums over the batch.
  struct Counts {
    int64_t examples = 0;
    int64_t quantifier_branches = 0;
    int64_t atom_evaluations = 0;
    int64_t vm_dispatches = 0;
  };
  Counts CountEvaluate(std::string_view payload);

  // Ball-cache hits and lookups over every session.
  int64_t ball_hits() const;
  int64_t ball_lookups() const;

 private:
  struct Session;

  folearn::Message Load(const folearn::Message& request, Tracer& tracer);
  folearn::Message Learn(const folearn::Message& request, Tracer& tracer);
  folearn::Message Evaluate(const folearn::Message& request,
                            Tracer& tracer);
  Session* FindSession(const folearn::Message& request);

  ReplayConfig config_;
  folearn::PlanCache plan_cache_;
  folearn::SessionStore store_;
  std::map<uint64_t, std::unique_ptr<Session>> sessions_;
  uint64_t next_session_id_ = 1;
  std::vector<LearnRecord> learns_;
  std::map<std::pair<uint64_t, uint64_t>, size_t> learn_by_model_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
