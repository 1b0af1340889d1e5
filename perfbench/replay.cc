#include "replay.h"

#include <algorithm>
#include <deque>
#include <filesystem>
#include <tuple>
#include <utility>

#include "graph/fog.h"
#include "graph/io.h"
#include "learn/erm.h"
#include "learn/model_io.h"
#include "mc/compiled_eval.h"
#include "mc/vm.h"
#include "types/type.h"

namespace perfbench {

using folearn::CachedPlan;
using folearn::Graph;
using folearn::Hypothesis;
using folearn::Message;
using folearn::StatusOr;
using folearn::TrainingSet;
using folearn::Vertex;

namespace {

Message Ok() {
  Message response;
  response.Set("status", folearn::kStatusOk);
  response.Set("code", "0");
  return response;
}

Message Error(const std::string& what) {
  Message response;
  response.Set("status", folearn::kStatusError);
  response.Set("code", "1");
  response.Set("error", what);
  return response;
}

// folearnd's defaults: per-session ball cache and shared plan cache budgets.
constexpr int64_t kBallCacheBytes = 32 << 20;
constexpr int64_t kPlanCacheBytes = 8 << 20;

folearn::EvalOptions DaemonEvalOptions() {
  folearn::EvalOptions options;
  options.missing_color_is_false = true;
  options.engine = folearn::EvalEngine::kVm;
  return options;
}

// Bytes of the session journals in `dir` (the meta file excluded).
int64_t JournalBytes(const std::string& dir) {
  int64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    if (entry.path().filename() == "meta.ckpt") continue;
    bytes += static_cast<int64_t>(entry.file_size(ec));
  }
  return bytes;
}

}  // namespace

// One warm evaluator, as the daemon keeps it per session and plan: the VM
// when the plan lowered to bytecode, the tree engine otherwise.
struct WarmEvaluator {
  CachedPlan cached;
  std::unique_ptr<folearn::VmEvaluator> vm;
  std::unique_ptr<folearn::CompiledEvaluator> tree;

  WarmEvaluator(const CachedPlan& entry, const Graph& graph,
                const folearn::EvalOptions& options)
      : cached(entry) {
    if (cached.bytecode != nullptr) {
      vm = std::make_unique<folearn::VmEvaluator>(
          *cached.plan, *cached.bytecode, graph, options);
    } else {
      tree = std::make_unique<folearn::CompiledEvaluator>(*cached.plan,
                                                          graph, options);
    }
  }

  bool Eval(std::span<const Vertex> tuple,
            folearn::EvalStats* stats = nullptr) {
    return vm != nullptr ? vm->Eval(tuple, stats) : tree->Eval(tuple, stats);
  }
};

struct ReplayDaemon::Session {
  Session(Graph g, std::string text, int64_t ball_cache_bytes)
      : graph(std::move(g)),
        graph_text(std::move(text)),
        registry(std::make_shared<folearn::TypeRegistry>(
            folearn::Vocabulary(graph.vocabulary()))),
        ball_cache(graph, ball_cache_bytes) {}

  uint64_t id = 0;
  Graph graph;
  std::string graph_text;
  std::string graph_file;
  uint64_t graph_fingerprint = 0;
  std::shared_ptr<folearn::TypeRegistry> registry;
  folearn::BallCache ball_cache;
  std::map<uint64_t, std::pair<std::string, Hypothesis>> models;
  uint64_t next_model_id = 1;
  std::deque<std::pair<std::string, std::string>> learn_dedup;
  std::unordered_map<const folearn::CompiledFormula*, WarmEvaluator>
      evaluators;

  folearn::SessionRecord ToRecord() const {
    folearn::SessionRecord record;
    record.id = id;
    record.graph_text = graph_text;
    record.graph_file = graph_file;
    record.graph_fingerprint = graph_fingerprint;
    record.next_model_id = next_model_id;
    for (const auto& [model_id, entry] : models) {
      record.models.emplace_back(model_id, entry.first);
    }
    record.learns.assign(learn_dedup.begin(), learn_dedup.end());
    return record;
  }
};

ReplayDaemon::ReplayDaemon(ReplayConfig config)
    : config_(std::move(config)),
      plan_cache_(kPlanCacheBytes),
      store_(config_.journal ? config_.journal_dir : std::string()) {
  if (store_.enabled()) (void)store_.Init();
}

ReplayDaemon::~ReplayDaemon() = default;

std::string ReplayDaemon::Handle(std::string_view payload, Tracer& tracer) {
  ScopedSpan root(tracer, "server.request");
  StatusOr<Message> request = [&] {
    ScopedSpan span(tracer, "server.decode");
    return folearn::DecodeMessage(payload);
  }();
  Message response;
  if (!request.ok()) {
    response = Error(request.status().message());
  } else {
    const std::string op = request->Get("op");
    if (op == "load-graph") {
      response = Load(*request, tracer);
    } else if (op == "learn") {
      response = Learn(*request, tracer);
    } else if (op == "evaluate") {
      response = Evaluate(*request, tracer);
    } else {
      response = Error("replay does not implement op '" + op + "'");
    }
  }
  ScopedSpan span(tracer, "server.encode");
  return folearn::EncodeMessage(response);
}

ReplayDaemon::Session* ReplayDaemon::FindSession(const Message& request) {
  uint64_t id = 0;
  try {
    id = std::stoull(request.Get("session"));
  } catch (const std::exception&) {
    return nullptr;
  }
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second.get();
}

Message ReplayDaemon::Load(const Message& request, Tracer& tracer) {
  const std::string* text = request.Find("graph");
  const std::string* file = request.Find("graph-file");
  uint64_t fingerprint = 0;
  StatusOr<Graph> graph = [&]() -> StatusOr<Graph> {
    ScopedSpan span(tracer, "graph.load");
    if (file != nullptr) return folearn::LoadGraphAuto(*file, &fingerprint);
    if (text != nullptr) return folearn::ParseGraph(*text);
    return folearn::InvalidArgumentError("load-graph without a graph");
  }();
  if (!graph.ok()) return Error(graph.status().message());
  const uint64_t id = next_session_id_++;
  auto session = std::make_unique<Session>(
      *std::move(graph), text != nullptr ? *text : std::string(),
      kBallCacheBytes);
  session->id = id;
  if (file != nullptr) {
    session->graph_file = *file;
    session->graph_fingerprint = fingerprint;
  }
  if (store_.enabled()) {
    ScopedSpan span(tracer, "server.journal_save");
    (void)store_.SaveNextSessionId(next_session_id_);
    (void)store_.Save(session->ToRecord());
  }
  Message response = Ok();
  response.Set("session", std::to_string(id));
  response.Set("order", std::to_string(session->graph.order()));
  sessions_.emplace(id, std::move(session));
  return response;
}

Message ReplayDaemon::Learn(const Message& request, Tracer& tracer) {
  Session* session = FindSession(request);
  if (session == nullptr) return Error("unknown session");
  const std::string request_id = request.Get("request-id");
  StatusOr<TrainingSet> data = [&] {
    ScopedSpan span(tracer, "learn.parse_data");
    return folearn::ParseTrainingSet(request.Get("data"));
  }();
  if (!data.ok()) return Error(data.status().message());
  folearn::ErmOptions options;
  options.rank = std::stoi(request.Get("rank", "1"));
  options.radius = std::stoi(request.Get("radius", "-1"));
  const int ell = std::stoi(request.Get("ell", "0"));
  options.threads = 1;
  options.ball_cache = &session->ball_cache;
  options.cache_bytes = kBallCacheBytes;
  for (const auto& [seen_id, payload] : session->learn_dedup) {
    if (seen_id == request_id) return Error("replayed request-id");
  }
  for (const folearn::LabeledExample& example : *data) {
    for (Vertex v : example.tuple) {
      if (!session->graph.IsValidVertex(v)) return Error("bad vertex");
    }
  }

  const int64_t registry_before = session->registry->size();
  folearn::ErmResult result = [&] {
    ScopedSpan span(tracer, "learn.erm");
    return folearn::BruteForceErm(session->graph, *data, ell, options,
                                  session->registry);
  }();
  LearnRecord record;
  record.registry_growth = session->registry->size() - registry_before;
  record.candidates = result.parameter_tuples_tried;
  record.distinct_types = result.distinct_types_seen;
  Hypothesis hypothesis;
  {
    ScopedSpan span(tracer, "learn.explicit");
    hypothesis = result.hypothesis.ToExplicit();
    record.model_text = folearn::HypothesisToText(hypothesis);
  }
  Message response = Ok();
  response.Set("model", record.model_text);
  response.Set("training-error", FormatRate(result.training_error));
  response.Set("types-seen", std::to_string(result.distinct_types_seen));
  response.Set("tuples-tried",
               std::to_string(result.parameter_tuples_tried));

  // Model registration and journaling, as HandleLearn does them: identical
  // text reuses its handle; the candidate record (with compaction) is
  // saved before memory changes.
  uint64_t model_id = session->next_model_id;
  bool new_model = true;
  for (const auto& [existing_id, entry] : session->models) {
    if (entry.first == record.model_text) {
      model_id = existing_id;
      new_model = false;
      break;
    }
  }
  response.Set("model-id", std::to_string(model_id));
  const bool new_dedup_entry = !request_id.empty();
  if (new_model || new_dedup_entry) {
    folearn::SessionRecord candidate = session->ToRecord();
    if (new_model) {
      candidate.next_model_id = model_id + 1;
      candidate.models.emplace_back(model_id, record.model_text);
    }
    if (new_dedup_entry) {
      while (static_cast<int>(candidate.learns.size()) >=
             config_.dedup_window) {
        candidate.learns.erase(candidate.learns.begin());
      }
      candidate.learns.emplace_back(request_id,
                                    folearn::EncodeMessage(response));
    }
    std::vector<uint64_t> compacted;
    if (config_.max_session_models > 0) {
      size_t scan = 0;
      while (static_cast<int64_t>(candidate.models.size()) >
                 config_.max_session_models &&
             scan < candidate.models.size()) {
        if (candidate.models[scan].first == model_id) {
          ++scan;
          continue;
        }
        compacted.push_back(candidate.models[scan].first);
        candidate.models.erase(candidate.models.begin() +
                               static_cast<ptrdiff_t>(scan));
      }
    }
    if (store_.enabled()) {
      ScopedSpan span(tracer, "server.journal_save");
      folearn::Status saved = store_.Save(candidate);
      if (!saved.ok()) return Error(saved.message());
    }
    for (uint64_t dropped : compacted) session->models.erase(dropped);
    if (new_model) {
      session->next_model_id = model_id + 1;
      session->models.emplace(
          model_id, std::make_pair(record.model_text, std::move(hypothesis)));
    }
    if (new_dedup_entry) {
      while (static_cast<int>(session->learn_dedup.size()) >=
             config_.dedup_window) {
        session->learn_dedup.pop_front();
      }
      session->learn_dedup.emplace_back(request_id,
                                        folearn::EncodeMessage(response));
    }
  }
  record.hypothesis = std::move(result.hypothesis);
  learn_by_model_[{session->id, model_id}] = learns_.size();
  learns_.push_back(std::move(record));
  return response;
}

Message ReplayDaemon::Evaluate(const Message& request, Tracer& tracer) {
  Session* session = FindSession(request);
  if (session == nullptr) return Error("unknown session");
  StatusOr<TrainingSet> data = [&] {
    ScopedSpan span(tracer, "learn.parse_data");
    return folearn::ParseTrainingSet(request.Get("data"));
  }();
  if (!data.ok()) return Error(data.status().message());
  for (const folearn::LabeledExample& example : *data) {
    for (Vertex v : example.tuple) {
      if (!session->graph.IsValidVertex(v)) return Error("bad vertex");
    }
  }
  std::optional<Hypothesis> from_text;
  const Hypothesis* hypothesis = nullptr;
  const std::string* model_text = request.Find("model");
  uint64_t model_id = 0;
  if (model_text != nullptr) {
    StatusOr<Hypothesis> parsed = [&] {
      ScopedSpan span(tracer, "learn.parse_model");
      return folearn::ParseHypothesis(*model_text);
    }();
    if (!parsed.ok()) return Error(parsed.status().message());
    from_text = *std::move(parsed);
    hypothesis = &*from_text;
  } else {
    model_id = std::stoull(request.Get("model-id"));
    auto it = session->models.find(model_id);
    if (it == session->models.end()) return Error("unknown model-id");
    hypothesis = &it->second.second;
  }
  for (Vertex w : hypothesis->parameters) {
    if (!session->graph.IsValidVertex(w)) return Error("bad parameter");
  }
  const int k = hypothesis->k();
  for (const folearn::LabeledExample& example : *data) {
    if (static_cast<int>(example.tuple.size()) != k) {
      return Error("arity mismatch");
    }
  }

  const std::vector<std::string> frame = hypothesis->AllVars();
  const folearn::EvalOptions options = DaemonEvalOptions();
  CachedPlan cached;
  {
    ScopedSpan span(tracer, "mc.plan_lookup");
    const int64_t misses_before = plan_cache_.misses();
    cached = plan_cache_.GetOrCompile(hypothesis->formula, frame, options);
    if (plan_cache_.misses() != misses_before) span.Rename("mc.compile");
  }
  WarmEvaluator* evaluator = nullptr;
  auto it = session->evaluators.find(cached.plan.get());
  if (it != session->evaluators.end()) {
    evaluator = &it->second;
  } else {
    ScopedSpan span(tracer, "mc.vm_bind");
    if (session->evaluators.size() >= 64) session->evaluators.clear();
    evaluator = &session->evaluators
                     .emplace(std::piecewise_construct,
                              std::forward_as_tuple(cached.plan.get()),
                              std::forward_as_tuple(cached, session->graph,
                                                    options))
                     .first->second;
  }

  std::vector<Vertex> env(frame.size());
  int64_t wrong = 0;
  {
    ScopedSpan span(tracer, "mc.vm_exec");
    for (const folearn::LabeledExample& example : *data) {
      std::copy(example.tuple.begin(), example.tuple.end(), env.begin());
      std::copy(hypothesis->parameters.begin(),
                hypothesis->parameters.end(), env.begin() + k);
      if (evaluator->Eval(env) != example.label) ++wrong;
    }
  }
  const int64_t seen = static_cast<int64_t>(data->size());
  Message response = Ok();
  response.Set("error",
               FormatRate(seen == 0 ? 1.0
                                    : static_cast<double>(wrong) /
                                          static_cast<double>(seen)));
  response.Set("examples-seen", std::to_string(seen));
  if (model_text == nullptr) {
    response.Set("model-id", std::to_string(model_id));
  }
  if (from_text.has_value()) {
    // Freeing a parsed model is part of what shipping its text costs.
    ScopedSpan span(tracer, "learn.release_model");
    from_text.reset();
  }
  return response;
}

const LearnRecord* ReplayDaemon::FindLearn(uint64_t session,
                                           uint64_t model_id) const {
  auto it = learn_by_model_.find({session, model_id});
  return it == learn_by_model_.end() ? nullptr : &learns_[it->second];
}

double ReplayDaemon::ProbeParseModelUs(uint64_t session_id) {
  auto it = sessions_.find(session_id);
  if (it == sessions_.end() || it->second->models.empty()) return 0.0;
  std::vector<double> us;
  for (int rep = 0; rep < 3; ++rep) {
    for (const auto& [model_id, entry] : it->second->models) {
      const int64_t start = NowNs();
      StatusOr<Hypothesis> parsed = folearn::ParseHypothesis(entry.first);
      us.push_back(static_cast<double>(NowNs() - start) / 1e3);
      if (!parsed.ok()) return 0.0;
    }
  }
  std::sort(us.begin(), us.end());
  return us[us.size() / 2];
}

double ReplayDaemon::ProbeJournalSaveMs(uint64_t session_id,
                                        int64_t* bytes) {
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) return 0.0;
  const std::string dir = config_.journal_dir + "/probe";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  folearn::SessionStore probe(dir);
  if (!probe.Init().ok()) return 0.0;
  const folearn::SessionRecord record = it->second->ToRecord();
  std::vector<double> ms;
  for (int rep = 0; rep < 5; ++rep) {
    const int64_t start = NowNs();
    if (!probe.Save(record).ok()) return 0.0;
    ms.push_back(static_cast<double>(NowNs() - start) / 1e6);
  }
  *bytes = JournalBytes(dir);
  std::sort(ms.begin(), ms.end());
  return ms[ms.size() / 2];
}

int64_t ReplayDaemon::JournalSize() const {
  return store_.enabled() ? JournalBytes(config_.journal_dir) : 0;
}

ReplayDaemon::Counts ReplayDaemon::CountEvaluate(std::string_view payload) {
  Counts counts;
  StatusOr<Message> request = folearn::DecodeMessage(payload);
  if (!request.ok()) return counts;
  Session* session = FindSession(*request);
  StatusOr<TrainingSet> data =
      folearn::ParseTrainingSet(request->Get("data"));
  if (session == nullptr || !data.ok()) return counts;
  std::optional<Hypothesis> from_text;
  const Hypothesis* hypothesis = nullptr;
  if (const std::string* text = request->Find("model")) {
    StatusOr<Hypothesis> parsed = folearn::ParseHypothesis(*text);
    if (!parsed.ok()) return counts;
    from_text = *std::move(parsed);
    hypothesis = &*from_text;
  } else {
    auto it = session->models.find(std::stoull(request->Get("model-id")));
    if (it == session->models.end()) return counts;
    hypothesis = &it->second.second;
  }
  const std::vector<std::string> frame = hypothesis->AllVars();
  const folearn::EvalOptions options = DaemonEvalOptions();
  WarmEvaluator fresh(
      plan_cache_.GetOrCompile(hypothesis->formula, frame, options),
      session->graph, options);
  folearn::EvalStats stats;
  std::vector<Vertex> env(frame.size());
  const int k = hypothesis->k();
  for (const folearn::LabeledExample& example : *data) {
    std::copy(example.tuple.begin(), example.tuple.end(), env.begin());
    std::copy(hypothesis->parameters.begin(), hypothesis->parameters.end(),
              env.begin() + k);
    fresh.Eval(env, &stats);
    ++counts.examples;
  }
  counts.quantifier_branches = stats.quantifier_branches;
  counts.atom_evaluations = stats.atom_evaluations;
  for (int64_t n : stats.vm_op_dispatches) counts.vm_dispatches += n;
  return counts;
}

int64_t ReplayDaemon::ball_hits() const {
  int64_t hits = 0;
  for (const auto& [id, session] : sessions_) {
    hits += session->ball_cache.hits();
  }
  return hits;
}

int64_t ReplayDaemon::ball_lookups() const {
  int64_t lookups = 0;
  for (const auto& [id, session] : sessions_) {
    lookups += session->ball_cache.hits() + session->ball_cache.misses();
  }
  return lookups;
}

}  // namespace perfbench
