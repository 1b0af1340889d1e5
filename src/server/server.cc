#include "server/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <limits>
#include <map>
#include <optional>
#include <tuple>
#include <utility>

#include "graph/algorithms.h"
#include "graph/fog.h"
#include "graph/io.h"
#include "learn/erm.h"
#include "learn/hypothesis.h"
#include "learn/model_io.h"
#include "mc/bytecode.h"
#include "mc/vm.h"
#include "service/request.h"
#include "types/type.h"
#include "util/strings.h"

namespace folearn {

namespace {

// listen(2) backlog.
constexpr int kListenBacklog = 64;
// Tier thresholds as fractions of ServerOptions::mem_budget_bytes.
constexpr PressureThresholds kPressure;

// Substantive operations count against max_inflight; control-plane ops
// (ping, stats, get-model, list-models, close-session, shutdown) are
// always admitted so a loaded server stays observable and stoppable.
bool IsSubstantive(const std::string& op) {
  return op == "learn" || op == "evaluate" || op == "query" ||
         op == "load-graph";
}

Message MakeError(int code, std::string_view message) {
  Message response;
  response.Set("status", kStatusError);
  response.Set("code", std::to_string(code));
  response.Set("error", message);
  return response;
}

Message MakeErrorFromStatus(const Status& status) {
  return MakeError(StatusExitCode(status), status.message());
}

Message MakeOk() {
  Message response;
  response.Set("status", kStatusOk);
  response.Set("code", "0");
  return response;
}

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Parses an optional decimal request field into *value, which keeps its
// default when the field is absent. kUsage, naming the field, on anything
// ParseInt64 refuses or a value out of Int's range — the protocol mirror
// of the CLI's exit-64 flag validation.
template <typename Int>
Status ParseIntField(const Message& request, const char* key, Int* value) {
  const std::string* raw = request.Find(key);
  if (raw == nullptr) return OkStatus();
  int64_t wide = 0;
  if (!ParseInt64(*raw, &wide) || wide < std::numeric_limits<Int>::min() ||
      wide > std::numeric_limits<Int>::max()) {
    return UsageError("invalid value '" + *raw + "' for field '" + key + "'");
  }
  *value = static_cast<Int>(wide);
  return OkStatus();
}

// Models and sentences on the wire are external input: a colour the
// session graph lacks denotes an empty class. Plans are cached under these
// options.
EvalOptions WireEvalOptions() {
  EvalOptions options;
  options.missing_color_is_false = true;
  return options;
}

std::string FormatDouble(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6f", value);
  return buffer;
}

// One VM evaluator bound to one graph. Holds the plan-cache entry so the
// plan and bytecode stay alive even after the shared cache evicts them.
struct EngineEvaluator {
  CachedPlan cached;
  VmEvaluator vm;

  EngineEvaluator(const CachedPlan& entry, const Graph& graph,
                  const EvalOptions& options)
      : cached(entry), vm(*cached.plan, *cached.bytecode, graph, options) {}
};

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// Approximate serialised footprint of a session record: what journal
// compaction compares against ServerOptions::journal_compact_bytes and
// what a session's journal share charges to its memory account. An
// estimate (string payloads + small per-entry headers) — both consumers
// only need monotonicity in the payload sizes.
int64_t ApproxRecordBytes(const SessionRecord& record) {
  int64_t bytes = 64 + static_cast<int64_t>(record.graph_text.size()) +
                  static_cast<int64_t>(record.graph_file.size());
  for (const auto& [model_id, text] : record.models) {
    bytes += 24 + static_cast<int64_t>(text.size());
  }
  for (const auto& [request_id, payload] : record.learns) {
    bytes += 16 + static_cast<int64_t>(request_id.size()) +
             static_cast<int64_t>(payload.size());
  }
  return bytes;
}

}  // namespace

// Per-session state kept warm across requests. All fields are guarded by
// `mu` — requests touching one session serialise; different sessions run
// in parallel. The exception is `graph`, which is never modified after
// construction and may be read without the lock.
struct Server::Session {
  // Declared first so it is destroyed last: registry and ball_cache
  // release their charges through this child budget on the way down, and
  // the budget's own destructor then returns any residual (the journal
  // share) to the process root.
  std::unique_ptr<MemBudget> mem;

  Session(Graph g, std::string text, int64_t ball_cache_bytes)
      : graph(std::move(g)),
        graph_text(std::move(text)),
        registry(std::make_shared<TypeRegistry>(
            Vocabulary(graph.vocabulary()))),
        ball_cache(graph, ball_cache_bytes) {}

  uint64_t id = 0;
  Graph graph;
  // The verbatim graph text, kept so journal writes never re-serialise
  // (byte-stable journals across saves). Empty for file-backed sessions,
  // which journal `graph_file` + `graph_fingerprint` instead and re-warm
  // by (memory-mapped, for .fog) reload.
  std::string graph_text;
  std::string graph_file;
  uint64_t graph_fingerprint = 0;
  std::shared_ptr<TypeRegistry> registry;
  BallCache ball_cache;

  // Registered model handles. On the learn path the already-built formula
  // is stored with the text; after a re-warm `formula` stays null until a
  // plan-cache miss needs it parsed (a hit by source text never does).
  struct ModelEntry {
    std::string text;
    FormulaRef formula;
    // Per-model evaluation telemetry, surfaced by get-model. Wall-clock
    // only: attaching an EvalStats sink would route the hot path through
    // the VM's slow counting lane.
    int64_t evals = 0;             // example/tuple evaluations so far
    double exec_ms = 0.0;          // cumulative evaluation wall time
    double lower_ms = 0.0;         // bytecode lowering cost (once)
    int64_t vm_instructions = 0;   // fast-lane program size
    int64_t vm_superinstructions = 0;
  };
  std::map<uint64_t, ModelEntry> models;  // ordered: stable listing/journal
  uint64_t next_model_id = 1;

  // Bounded learn dedup window, oldest first: request-id → the encoded
  // response payload that was acknowledged for it.
  std::deque<std::pair<std::string, std::string>> learn_dedup;

  // Set by close-session while an in-flight request still holds the
  // object: suppresses journal writes that would resurrect the file.
  bool closed = false;

  // Bytes of the last journaled record charged against `mem` (the durable
  // state is part of the session's footprint; re-charged on every save).
  int64_t journal_charged = 0;

  // Warm per-graph evaluators, keyed by plan identity (the plan cache
  // hands out stable shared_ptrs; a recompiled plan gets a fresh
  // evaluator). The EngineEvaluator holds the whole cache entry, so plan
  // and bytecode stay alive even if the plan cache evicts them. Bounded:
  // cleared wholesale when it outgrows kMaxWarmEvaluators — per-graph
  // memos are cheap to rebuild.
  static constexpr size_t kMaxWarmEvaluators = 64;
  std::unordered_map<const CompiledFormula*, EngineEvaluator> evaluators;

  EngineEvaluator* WarmEvaluator(const CachedPlan& cached,
                                 const EvalOptions& options) {
    auto it = evaluators.find(cached.plan.get());
    if (it != evaluators.end()) return &it->second;
    if (evaluators.size() >= kMaxWarmEvaluators) evaluators.clear();
    auto [pos, inserted] = evaluators.emplace(
        std::piecewise_construct,
        std::forward_as_tuple(cached.plan.get()),
        std::forward_as_tuple(cached, graph, options));
    (void)inserted;
    return &pos->second;
  }

  // The handle named by the request's "model-id" field, looked up with
  // `mu` held. Null with *error set for a malformed or unknown id.
  ModelEntry* FindModel(const Message& request, uint64_t* model_id,
                        Message* error) {
    const std::string raw = request.Get("model-id");
    if (!ParseUint64(raw, model_id)) {
      *error = MakeError(kExitUsage, "invalid model id '" + raw + "'");
      return nullptr;
    }
    auto it = models.find(*model_id);
    if (it == models.end()) {
      *error = MakeError(kExitUsage, "unknown model-id " +
                                         std::to_string(*model_id) +
                                         " in session " + std::to_string(id));
      return nullptr;
    }
    return &it->second;
  }

  // The one plan run behind evaluate and query, with `mu` held. A plan
  // that does not fit this session's graph (CheckSetQuantifiersFit) is
  // refused first, cache hit or not. Ungoverned (`limits` empty), `run`
  // gets the warm evaluator for `cached`, whose per-graph memo persists
  // across requests; otherwise a scratch evaluator on the governed slow
  // lane, so the warm one never observes a trip.
  // `run(vm, governor, response)` evaluates, fills in the payload and
  // returns how many evaluations it made; the response is then stamped
  // partial / run-status / work-used, and the evaluations and their wall
  // time go into `entry`'s telemetry when the plan is a model handle's.
  template <typename Run>
  Message RunPlan(const CachedPlan& cached,
                  const std::optional<GovernorLimits>& limits,
                  ModelEntry* entry, Run&& run) {
    Status fits =
        CheckSetQuantifiersFit(graph, cached.plan->num_set_slots() > 0);
    if (!fits.ok()) return MakeErrorFromStatus(fits);
    std::optional<ResourceGovernor> governor;
    std::optional<EngineEvaluator> scratch;
    EngineEvaluator* evaluator;
    if (limits.has_value()) {
      governor.emplace(*limits);
      EvalOptions options = WireEvalOptions();
      options.governor = &*governor;
      scratch.emplace(cached, graph, options);
      evaluator = &*scratch;
    } else {
      evaluator = WarmEvaluator(cached, WireEvalOptions());
    }
    Message response = MakeOk();
    const auto start = std::chrono::steady_clock::now();
    const int64_t evals = run(evaluator->vm,
                              governor.has_value() ? &*governor : nullptr,
                              response);
    if (entry != nullptr) {
      entry->evals += evals;
      entry->exec_ms += MsSince(start);
      entry->lower_ms = cached.lower_ms;
      if (cached.bytecode->supported) {
        entry->vm_instructions =
            static_cast<int64_t>(cached.bytecode->fast.code.size());
        entry->vm_superinstructions = cached.bytecode->superinstructions;
      }
    }
    if (governor.has_value()) {
      if (governor->Interrupted()) {
        response.Set("status", kStatusPartial);
        response.Set("code", "3");
        response.Set("run-status", RunStatusName(governor->status()));
      }
      response.Set("work-used", std::to_string(governor->work_used()));
    }
    return response;
  }

  // The durable view of this session, in journal layout.
  SessionRecord ToRecord() const {
    SessionRecord record;
    record.id = id;
    record.graph_text = graph_text;
    record.graph_file = graph_file;
    record.graph_fingerprint = graph_fingerprint;
    record.next_model_id = next_model_id;
    record.models.reserve(models.size());
    for (const auto& [model_id, entry] : models) {
      record.models.emplace_back(model_id, entry.text);
    }
    record.learns.assign(learn_dedup.begin(), learn_dedup.end());
    return record;
  }

  std::mutex mu;
};

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      mem_budget_(options_.mem_budget_bytes),
      plan_cache_(options_.plan_cache_bytes),
      store_(options_.state_dir) {
  FOLEARN_CHECK_GE(options_.max_inflight, 1)
      << "max_inflight must admit at least one request";
  FOLEARN_CHECK_GE(options_.dedup_window, 1)
      << "dedup_window must hold at least one entry";
  FOLEARN_CHECK_GE(options_.mem_watchdog_ms, 1)
      << "mem_watchdog_ms must be positive";
  store_.set_crash_at_journal_write(options_.crash_at_journal_write);
  plan_cache_.set_mem_account(&mem_budget_);
  plan_cache_.set_read_through(&cache_read_through_);
  // A pinned tier gates requests from the very first dispatch, before the
  // watchdog's first tick.
  if (options_.force_tier >= 0) {
    tier_.store(std::min(options_.force_tier,
                         static_cast<int>(PressureTier::kBlack)),
                std::memory_order_relaxed);
    cache_read_through_.store(
        CurrentTier() >= PressureTier::kYellow, std::memory_order_relaxed);
  }
}

Server::~Server() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_pipe_[0] >= 0) ::close(wake_pipe_[0]);
  if (wake_pipe_[1] >= 0) ::close(wake_pipe_[1]);
}

Status Server::Start() {
  Status path_ok = ValidateSocketPath(options_.socket_path);
  if (!path_ok.ok()) return path_ok;
  Status store_ok = store_.Init();
  if (!store_ok.ok()) return store_ok;
  if (store_.enabled()) {
    // Recovery: index every journaled session as a cold slot. Graphs are
    // parsed lazily on first use, so a daemon with thousands of journaled
    // sessions still restarts instantly.
    StatusOr<std::vector<uint64_t>> ids = store_.ListSessions();
    if (!ids.ok()) return ids.status();
    StatusOr<uint64_t> next = store_.LoadNextSessionId();
    if (!next.ok()) return next.status();
    const int64_t now = NowMs();
    uint64_t max_id = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (uint64_t id : *ids) {
        auto slot = std::make_shared<SessionSlot>();
        slot->journaled = true;
        slot->last_used_ms.store(now, std::memory_order_relaxed);
        sessions_.emplace(id, std::move(slot));
        max_id = std::max(max_id, id);
      }
      // Ids must never be reused across restarts — a stale client id
      // must map to "unknown session", never to someone else's graph.
      next_session_id_ = std::max(*next, max_id + 1);
    }
    if (!ids->empty()) {
      BumpStat(&ServerStats::sessions_recovered,
               static_cast<int64_t>(ids->size()));
    }
  }
  sockaddr_un addr{};
  if (::pipe(wake_pipe_) != 0) {
    return UnavailableError(std::string("pipe failed: ") +
                            std::strerror(errno));
  }
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return UnavailableError(std::string("socket failed: ") +
                            std::strerror(errno));
  }
  ::unlink(options_.socket_path.c_str());  // stale socket from a past run
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, options_.socket_path.c_str(),
              options_.socket_path.size() + 1);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return UnavailableError("bind failed on " + options_.socket_path + ": " +
                            std::strerror(errno));
  }
  if (::listen(listen_fd_, kListenBacklog) != 0) {
    return UnavailableError(std::string("listen failed: ") +
                            std::strerror(errno));
  }
  return OkStatus();
}

void Server::Shutdown() {
  stopping_.store(true, std::memory_order_release);
  // Wake every poller. The byte is never drained, so the pipe stays
  // readable and all current and future polls return immediately. One
  // write(2) — async-signal-safe.
  if (wake_pipe_[1] >= 0) {
    const char byte = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_pipe_[1], &byte, 1);
  }
}

void Server::Serve() {
  FOLEARN_CHECK_GE(listen_fd_, 0) << "Serve() before Start()";
  // The memory watchdog runs for the lifetime of the serve loop. It is
  // started even when ungoverned: it then only refreshes the RSS gauge.
  watchdog_ = std::thread([this] { WatchdogLoop(); });
  // With a session TTL, the accept loop doubles as the eviction sweeper:
  // poll wakes at a fraction of the TTL so idle sessions are demoted
  // promptly even when no connection arrives.
  int poll_timeout_ms = -1;
  if (options_.session_ttl_ms != kNoLimit) {
    poll_timeout_ms = static_cast<int>(std::clamp<int64_t>(
        options_.session_ttl_ms / 2, 10, 1000));
  }
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
    int ready = ::poll(fds, 2, poll_timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if ((fds[1].revents & POLLIN) != 0 ||
        stopping_.load(std::memory_order_acquire)) {
      break;
    }
    if (options_.session_ttl_ms != kNoLimit) EvictIdleSessions();
    if ((fds[0].revents & POLLIN) == 0) continue;
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    // Reap connections that have ended, so a long-running daemon holds
    // threads (and their stacks) only for connections still open.
    for (auto it = connections_.begin(); it != connections_.end();) {
      if (it->done.load(std::memory_order_acquire)) {
        it->thread.join();
        it = connections_.erase(it);
      } else {
        ++it;
      }
    }
    Connection& connection = connections_.emplace_back();
    connection.thread = std::thread([this, fd, &connection] {
      ConnectionLoop(fd);
      connection.done.store(true, std::memory_order_release);
    });
  }
  // Drain: no new connections; unblock in-flight reads; join everything.
  ::close(listen_fd_);
  listen_fd_ = -1;
  ::unlink(options_.socket_path.c_str());
  for (Connection& connection : connections_) connection.thread.join();
  connections_.clear();
  stopping_.store(true, std::memory_order_release);
  if (watchdog_.joinable()) watchdog_.join();
}

void Server::WatchdogLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    UpdatePressure();
    // Sleep in small slices so Shutdown() is prompt at any cadence.
    int64_t slept = 0;
    while (slept < options_.mem_watchdog_ms &&
           !stopping_.load(std::memory_order_acquire)) {
      const int64_t slice = std::min<int64_t>(
          20, options_.mem_watchdog_ms - slept);
      std::this_thread::sleep_for(std::chrono::milliseconds(slice));
      slept += slice;
    }
  }
}

void Server::UpdatePressure() {
  const int64_t accounted = mem_budget_.used();
  const int64_t rss = ReadRssBytes();
  // Classify the *worse* of what we account and what the kernel charges
  // us for: accounted bytes catch growth RSS hasn't paged in yet, RSS
  // catches everything the accounts cannot see (mmap'd graphs aside —
  // their pages are reclaimable, which is exactly why mmap-backed
  // load-graph stays admitted under pressure).
  const int64_t used = std::max(accounted, rss);
  PressureTier tier;
  if (options_.force_tier >= 0) {
    tier = static_cast<PressureTier>(std::min(
        options_.force_tier, static_cast<int>(PressureTier::kBlack)));
  } else {
    tier = ClassifyPressure(used, options_.mem_budget_bytes, kPressure);
  }
  const auto previous = static_cast<PressureTier>(tier_.exchange(
      static_cast<int>(tier), std::memory_order_relaxed));
  // Yellow and above: caches serve hits but stop growing.
  cache_read_through_.store(tier >= PressureTier::kYellow,
                            std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.rss_bytes = rss;
    stats_.mem_used_bytes = accounted;
    stats_.mem_tier = static_cast<int64_t>(tier);
    if (tier != previous) ++stats_.tier_transitions;
  }
  if (tier >= PressureTier::kRed) {
    // Reclaim: shrink the shared plan cache to a floor and demote idle
    // warm state. Both are idempotent, so re-running them every tick at
    // red costs nothing once the state is drained.
    plan_cache_.Trim(options_.plan_cache_bytes >= 0
                         ? options_.plan_cache_bytes / 4
                         : 0);
    EvictWarmStateUnderPressure();
  }
}

void Server::EvictWarmStateUnderPressure() {
  // Oldest-idle first. The red threshold is the reclamation target; with
  // a pinned tier (tests) or no budget there is no target and every idle
  // session is swept.
  const int64_t target =
      options_.mem_budget_bytes != kNoLimit && options_.force_tier < 0
          ? static_cast<int64_t>(static_cast<double>(
                                     options_.mem_budget_bytes) *
                                 kPressure.red)
          : 0;
  std::vector<std::pair<int64_t, std::shared_ptr<SessionSlot>>> idle;
  {
    std::lock_guard<std::mutex> lock(mu_);
    idle.reserve(sessions_.size());
    for (auto& [id, slot] : sessions_) {
      idle.emplace_back(
          slot->last_used_ms.load(std::memory_order_relaxed), slot);
    }
  }
  std::sort(idle.begin(), idle.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  int64_t evicted = 0;
  for (auto& [last_used, slot] : idle) {
    if (target > 0 && mem_budget_.used() <= target) break;
    std::unique_lock<std::mutex> slot_lock(slot->mu, std::try_to_lock);
    if (!slot_lock.owns_lock()) continue;  // busy: next tick
    if (slot->live == nullptr) continue;   // already cold
    // Same safety argument as EvictIdleSessions: use_count == 1 under the
    // slot lock means no request holds the session.
    if (slot->live.use_count() != 1) continue;
    if (slot->journaled) {
      // Demote to cold; re-warms lazily from the journal on next use.
      slot->live.reset();
    } else {
      // Memory-only sessions must keep graph + models (dropping them is
      // data loss, which red never inflicts); shed the rebuildable warm
      // state instead.
      std::lock_guard<std::mutex> session_lock(slot->live->mu);
      slot->live->evaluators.clear();
      slot->live->ball_cache.Clear();
    }
    ++evicted;
  }
  if (evicted > 0) BumpStat(&ServerStats::warm_evictions, evicted);
}

void Server::AttachSessionMemory(Session* session) {
  session->mem = std::make_unique<MemBudget>(
      options_.session_mem_bytes == kNoLimit ? kNoMemLimit
                                             : options_.session_mem_bytes,
      &mem_budget_);
  // Correctness state (interned types) charges forcibly; the governor
  // turns overshoot into a kResourceExhausted cut. The ball cache is pure
  // cache: refused charges serve uncached, and the read-through flag
  // freezes growth at yellow.
  session->registry->set_mem_account(session->mem.get());
  session->ball_cache.set_mem_account(session->mem.get());
  session->ball_cache.set_read_through(&cache_read_through_);
  // The graph itself: text graphs own their parse; .fog graphs are mmap'd
  // and reclaimable, so only the text share is charged.
  const int64_t graph_share =
      static_cast<int64_t>(session->graph_text.size());
  if (graph_share > 0) session->mem->Charge(graph_share);
}

void Server::ConnectionLoop(int fd) {
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd fds[2] = {{fd, POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
    int ready = ::poll(fds, 2, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if ((fds[1].revents & POLLIN) != 0) break;  // graceful stop
    if ((fds[0].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    StatusOr<Message> request = ReadFrame(fd);
    if (!request.ok()) {
      // Clean close (kNotFound) ends the connection silently; a corrupt
      // or torn frame gets one last diagnostic — the stream position is
      // untrusted afterwards, so the connection closes either way. Only
      // the connection dies: sessions and admission slots are unharmed.
      if (request.status().code() != StatusCode::kNotFound) {
        if (request.status().code() == StatusCode::kDataLoss) {
          (void)WriteFrame(fd, MakeErrorFromStatus(request.status()));
        }
        BumpStat(&ServerStats::disconnects);
      }
      break;
    }
    const bool is_shutdown = request->Get("op") == "shutdown";
    Message response = Dispatch(*request);
    if (!WriteFrame(fd, response).ok()) {
      // Peer vanished between request and response (EPIPE via
      // MSG_NOSIGNAL, never SIGPIPE). Drop the connection only.
      BumpStat(&ServerStats::disconnects);
      break;
    }
    if (is_shutdown) {
      Shutdown();
      break;
    }
  }
  ::close(fd);
}

Message Server::Dispatch(const Message& request) {
  const std::string op = request.Get("op");
  const bool substantive = IsSubstantive(op);
  // Black tier: memory is critically scarce, so every substantive request
  // is shed retry-safe (status=shed, the client's existing retry
  // classification) while heartbeats, stats, close-session and shutdown —
  // the ops that observe, relieve, or end the pressure — stay admitted.
  if (substantive && CurrentTier() == PressureTier::kBlack) {
    Message response;
    response.Set("status", kStatusShed);
    response.Set("code", std::to_string(kExitTempFail));
    response.Set("tier", PressureTierName(PressureTier::kBlack));
    response.Set("error",
                 "memory pressure (black): serving heartbeats only; "
                 "retry the request");
    BumpStat(&ServerStats::mem_shed);
    RecordOutcome(response);
    return response;
  }
  if (substantive) {
    int current = inflight_.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (current > options_.max_inflight) {
      inflight_.fetch_sub(1, std::memory_order_acq_rel);
      Message response;
      response.Set("status", kStatusShed);
      response.Set("code", "3");
      response.Set("error",
                   "server at max-inflight capacity; retry the request");
      RecordOutcome(response);
      return response;
    }
  }
  Message response;
  if (op == "ping") {
    response = HandlePing(request);
  } else if (op == "load-graph") {
    response = HandleLoadGraph(request);
  } else if (op == "close-session") {
    response = HandleCloseSession(request);
  } else if (op == "learn") {
    response = HandleLearn(request);
  } else if (op == "evaluate") {
    response = HandleEvaluate(request);
  } else if (op == "query") {
    response = HandleQuery(request);
  } else if (op == "get-model") {
    response = HandleGetModel(request);
  } else if (op == "list-models") {
    response = HandleListModels(request);
  } else if (op == "stats") {
    response = HandleStats(request);
  } else if (op == "shutdown") {
    response = MakeOk();
  } else {
    response = MakeError(kExitUsage, "unknown op '" + op + "'");
  }
  if (substantive) inflight_.fetch_sub(1, std::memory_order_acq_rel);
  RecordOutcome(response);
  return response;
}

void Server::RecordOutcome(const Message& response) {
  const std::string status = response.Get("status");
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.requests;
  if (status == kStatusOk) {
    ++stats_.ok;
  } else if (status == kStatusPartial) {
    ++stats_.partial;
  } else if (status == kStatusShed) {
    ++stats_.shed;
  } else {
    ++stats_.errors;
  }
}

void Server::BumpStat(int64_t ServerStats::*counter, int64_t delta) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_.*counter += delta;
}

Message Server::HandlePing(const Message& request) {
  Message response = MakeOk();
  response.Set("payload", request.Get("payload"));
  // Heartbeat: a ping naming a session refreshes its idle clock without
  // re-warming a cold slot (no graph parse on the control plane).
  const std::string* raw = request.Find("session");
  if (raw != nullptr) {
    uint64_t id = 0;
    bool known = false;
    if (ParseUint64(*raw, &id)) {
      std::shared_ptr<SessionSlot> slot = FindSlot(id);
      if (slot != nullptr) {
        slot->last_used_ms.store(NowMs(), std::memory_order_relaxed);
        known = true;
      }
    }
    response.Set("session-known", known ? "1" : "0");
  }
  return response;
}

std::shared_ptr<Server::SessionSlot> Server::FindSlot(uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second;
}

StatusOr<std::shared_ptr<Server::Session>> Server::AcquireSession(
    uint64_t id) {
  std::shared_ptr<SessionSlot> slot = FindSlot(id);
  if (slot == nullptr) {
    return NotFoundError("unknown session " + std::to_string(id));
  }
  slot->last_used_ms.store(NowMs(), std::memory_order_relaxed);
  std::lock_guard<std::mutex> slot_lock(slot->mu);
  if (slot->live != nullptr) return slot->live;
  if (!slot->journaled) {
    return NotFoundError("unknown session " + std::to_string(id));
  }
  // Cold journaled slot: re-warm from the store. The journal is our own
  // acknowledged output, so corruption here is real data loss and is
  // reported as such, not masked as "unknown session".
  StatusOr<SessionRecord> record = store_.Load(id);
  if (!record.ok()) {
    if (record.status().code() == StatusCode::kNotFound) {
      return NotFoundError("unknown session " + std::to_string(id));
    }
    return record.status();
  }
  StatusOr<Graph> graph = [&]() -> StatusOr<Graph> {
    if (record->graph_file.empty()) return ParseGraph(record->graph_text);
    // File-backed session: reload (mmap for .fog) and verify the
    // fingerprint — a swapped file must not silently answer for the graph
    // the client registered.
    uint64_t fingerprint = 0;
    StatusOr<Graph> loaded = LoadGraphAuto(record->graph_file, &fingerprint);
    if (loaded.ok() && fingerprint != record->graph_fingerprint) {
      return DataLossError(
          "graph file '" + record->graph_file + "' for session " +
          std::to_string(id) + " has fingerprint " +
          std::to_string(fingerprint) + ", journal recorded " +
          std::to_string(record->graph_fingerprint));
    }
    return loaded;
  }();
  if (!graph.ok()) {
    return DataLossError("journaled graph for session " + std::to_string(id) +
                         " does not load: " + graph.status().message());
  }
  const int64_t record_bytes = ApproxRecordBytes(*record);
  auto session = std::make_shared<Session>(*std::move(graph),
                                           std::move(record->graph_text),
                                           options_.ball_cache_bytes);
  session->id = id;
  session->graph_file = std::move(record->graph_file);
  session->graph_fingerprint = record->graph_fingerprint;
  session->next_model_id = record->next_model_id;
  for (auto& [model_id, text] : record->models) {
    session->models.emplace(model_id,
                            Session::ModelEntry{std::move(text), {}});
  }
  for (auto& entry : record->learns) {
    session->learn_dedup.push_back(std::move(entry));
  }
  AttachSessionMemory(session.get());
  session->journal_charged = record_bytes;
  session->mem->Charge(record_bytes);
  slot->live = session;
  BumpStat(&ServerStats::sessions_rewarmed);
  return session;
}

void Server::EvictIdleSessions() {
  const int64_t now = NowMs();
  std::vector<uint64_t> to_erase;
  int64_t evicted = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [id, slot] : sessions_) {
      std::unique_lock<std::mutex> slot_lock(slot->mu, std::try_to_lock);
      if (!slot_lock.owns_lock()) continue;  // busy: try next sweep
      if (slot->live == nullptr) continue;   // already cold
      if (now - slot->last_used_ms.load(std::memory_order_relaxed) <=
          options_.session_ttl_ms) {
        continue;
      }
      // use_count == 1 under the slot lock means no handler holds the
      // session and none can acquire it while we hold the lock — the
      // eviction cannot yank state from under an in-flight request.
      if (slot->live.use_count() != 1) continue;
      slot->live.reset();
      ++evicted;
      if (!slot->journaled) to_erase.push_back(id);
    }
    for (uint64_t id : to_erase) sessions_.erase(id);
  }
  if (evicted > 0) BumpStat(&ServerStats::sessions_evicted, evicted);
}

Message Server::HandleLoadGraph(const Message& request) {
  const std::string* text = request.Find("graph");
  const std::string* file = request.Find("graph-file");
  if (text == nullptr && file == nullptr) {
    return MakeError(kExitUsage,
                     "load-graph requires a 'graph' or 'graph-file' field");
  }
  if (text != nullptr && file != nullptr) {
    return MakeError(kExitUsage,
                     "load-graph takes 'graph' or 'graph-file', not both");
  }
  // Yellow and above: refuse new *heap-resident* graphs retry-safe. A
  // .fog file is memory-mapped — its pages are shared and reclaimable —
  // so mmap-backed loads stay admitted until black.
  const PressureTier tier = CurrentTier();
  if (tier >= PressureTier::kYellow) {
    bool mmap_backed = false;
    if (file != nullptr) {
      char magic[8] = {};
      FILE* probe = std::fopen(file->c_str(), "rb");
      if (probe != nullptr) {
        const size_t got = std::fread(magic, 1, sizeof(magic), probe);
        std::fclose(probe);
        mmap_backed = LooksLikeFog(std::string_view(magic, got));
      }
    }
    if (!mmap_backed) {
      Message response;
      response.Set("status", kStatusShed);
      response.Set("code", std::to_string(kExitTempFail));
      response.Set("tier", PressureTierName(tier));
      response.Set("error",
                   std::string("memory pressure (") +
                       PressureTierName(tier) +
                       "): non-mmap load-graph shed; retry later or load "
                       "a .fog file");
      BumpStat(&ServerStats::mem_shed);
      return response;
    }
  }
  uint64_t fingerprint = 0;
  StatusOr<Graph> graph =
      file != nullptr ? LoadGraphAuto(*file, &fingerprint)
                      : ParseGraph(*text);
  if (!graph.ok()) return MakeErrorFromStatus(graph.status());
  uint64_t id = 0;
  {
    // Allocation and the meta write stay under the table lock so the
    // journaled next-session-id is monotone even under concurrent loads.
    std::lock_guard<std::mutex> lock(mu_);
    id = next_session_id_++;
    Status meta = store_.SaveNextSessionId(next_session_id_);
    if (!meta.ok()) return MakeErrorFromStatus(meta);
  }
  auto session = std::make_shared<Session>(
      *std::move(graph), text != nullptr ? *text : std::string(),
      options_.ball_cache_bytes);
  session->id = id;
  if (file != nullptr) {
    session->graph_file = *file;
    session->graph_fingerprint = fingerprint;
  }
  AttachSessionMemory(session.get());
  // Journal before acknowledging: once the client sees the id, a restart
  // must be able to serve it.
  Status saved = OkStatus();
  if (store_.enabled()) {
    SessionRecord record = session->ToRecord();
    saved = store_.Save(record);
    if (saved.ok()) {
      session->journal_charged = ApproxRecordBytes(record);
      session->mem->Charge(session->journal_charged);
    }
  }
  if (!saved.ok()) return MakeErrorFromStatus(saved);
  auto slot = std::make_shared<SessionSlot>();
  slot->live = session;
  slot->journaled = store_.enabled();
  slot->last_used_ms.store(NowMs(), std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    sessions_.emplace(id, std::move(slot));
  }
  BumpStat(&ServerStats::sessions_opened);
  Message response = MakeOk();
  response.Set("session", std::to_string(id));
  response.Set("order", std::to_string(session->graph.order()));
  return response;
}

namespace {

// Resolves the "session" field to an id; false + error response on a
// missing or malformed field.
bool ParseSessionId(const Message& request, uint64_t* id,
                    Message* error_response) {
  const std::string* raw = request.Find("session");
  if (raw == nullptr) {
    *error_response =
        MakeError(kExitUsage, "request requires a 'session' field");
    return false;
  }
  if (!ParseUint64(*raw, id)) {
    *error_response =
        MakeError(kExitUsage, "invalid session id '" + *raw + "'");
    return false;
  }
  return true;
}

}  // namespace

std::shared_ptr<Server::Session> Server::RequestSession(
    const Message& request, Message* error) {
  uint64_t id = 0;
  if (!ParseSessionId(request, &id, error)) return nullptr;
  StatusOr<std::shared_ptr<Session>> acquired = AcquireSession(id);
  if (acquired.ok()) return *std::move(acquired);
  // An id that is neither live nor journaled is a usage error (the
  // CLI-exit-64 analogue); a corrupt or unreadable journal keeps its own
  // status semantics (65 / 1).
  *error = acquired.status().code() == StatusCode::kNotFound
               ? MakeError(kExitUsage, "unknown session " + std::to_string(id))
               : MakeErrorFromStatus(acquired.status());
  return nullptr;
}

Message Server::HandleCloseSession(const Message& request) {
  uint64_t id = 0;
  Message error;
  if (!ParseSessionId(request, &id, &error)) return error;
  std::shared_ptr<SessionSlot> slot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(id);
    if (it == sessions_.end()) {
      return MakeError(kExitUsage, "unknown session " + std::to_string(id));
    }
    slot = it->second;
    sessions_.erase(it);
  }
  std::shared_ptr<Session> live;
  {
    std::lock_guard<std::mutex> slot_lock(slot->mu);
    live = std::move(slot->live);
  }
  Status removed;
  if (live != nullptr) {
    // Mark closed under the session lock so an in-flight learn that
    // still holds the object cannot resurrect the journal file after the
    // remove below.
    std::lock_guard<std::mutex> session_lock(live->mu);
    live->closed = true;
    removed = store_.Remove(id);
  } else {
    removed = store_.Remove(id);
  }
  if (!removed.ok()) return MakeErrorFromStatus(removed);
  BumpStat(&ServerStats::sessions_closed);
  return MakeOk();
}

Status Server::RequestLimits(const Message& request,
                             std::optional<GovernorLimits>* limits) const {
  int64_t deadline_ms = kNoLimit;
  int64_t max_work = kNoLimit;
  Status parsed = ParseIntField(request, "deadline-ms", &deadline_ms);
  if (parsed.ok()) parsed = ParseIntField(request, "max-work", &max_work);
  if (parsed.ok()) parsed = CheckLimits(deadline_ms, max_work);
  if (!parsed.ok()) return parsed;
  // Server caps clamp the request; with a cap set, a request asking for
  // nothing still runs capped — the caps are the operator's protection
  // against a tenant monopolising the daemon.
  if (options_.max_deadline_ms != kNoLimit &&
      (deadline_ms == kNoLimit || deadline_ms > options_.max_deadline_ms)) {
    deadline_ms = options_.max_deadline_ms;
  }
  if (options_.max_work != kNoLimit &&
      (max_work == kNoLimit || max_work > options_.max_work)) {
    max_work = options_.max_work;
  }
  limits->reset();
  if (deadline_ms != kNoLimit || max_work != kNoLimit) {
    limits->emplace(GovernorLimits{deadline_ms, max_work});
  }
  return OkStatus();
}

Message Server::HandleLearn(const Message& request) {
  Message error;
  std::shared_ptr<Session> held = RequestSession(request, &error);
  if (held == nullptr) return error;
  Session& session = *held;
  const std::string* data_text = request.Find("data");
  if (data_text == nullptr) {
    return MakeError(kExitUsage, "learn requires a 'data' field");
  }
  const std::string request_id = request.Get("request-id");
  if (request_id.size() > 256) {
    return MakeError(kExitUsage, "field 'request-id' exceeds 256 bytes");
  }
  StatusOr<TrainingSet> data = ParseTrainingSet(*data_text);
  if (!data.ok()) return MakeErrorFromStatus(data.status());

  LearnRequest learn;
  learn.learner = request.Get("learner", learn.learner);
  Status valid = ParseIntField(request, "rank", &learn.rank);
  if (valid.ok()) valid = ParseIntField(request, "radius", &learn.radius);
  if (valid.ok()) valid = ParseIntField(request, "ell", &learn.ell);
  if (valid.ok()) valid = ParseIntField(request, "threads", &learn.threads);
  if (valid.ok()) valid = CheckLearnRequest(learn);
  if (!valid.ok()) return MakeErrorFromStatus(valid);
  if (learn.learner != "brute") {
    return MakeError(kExitUsage,
                     "unsupported learner '" + learn.learner +
                         "' (the server implements 'brute')");
  }
  std::optional<GovernorLimits> limits;
  Status limits_ok = RequestLimits(request, &limits);
  if (!limits_ok.ok()) return MakeErrorFromStatus(limits_ok);
  // Memory governance: with a session or process byte budget the learn
  // runs governed against the session's account — an overflowing sweep is
  // cut at its next checkpoint with run-status=resource-exhausted and the
  // best hypothesis so far, the same anytime contract as deadline/work.
  if (session.mem != nullptr &&
      (options_.session_mem_bytes != kNoLimit ||
       options_.mem_budget_bytes != kNoLimit)) {
    if (!limits.has_value()) limits.emplace();
    limits->mem_budget = session.mem.get();
  }

  std::lock_guard<std::mutex> session_lock(session.mu);
  // Idempotent retries: a request-id the session has already acknowledged
  // replays the original response byte-identically — the learn (and its
  // model registration) must not run twice.
  if (!request_id.empty()) {
    for (const auto& [seen_id, payload] : session.learn_dedup) {
      if (seen_id != request_id) continue;
      StatusOr<Message> replay = DecodeMessage(payload);
      if (!replay.ok()) {
        return MakeErrorFromStatus(DataLossError(
            "journaled response for request-id '" + request_id +
            "' is corrupt: " + replay.status().message()));
      }
      BumpStat(&ServerStats::dedup_hits);
      replay->Set("deduped", "1");
      return *std::move(replay);
    }
  }
  Status vertices = CheckExampleVertices(session.graph, *data);
  if (!vertices.ok()) return MakeErrorFromStatus(vertices);

  std::optional<ResourceGovernor> governor;
  if (limits.has_value()) governor.emplace(*limits);
  ErmOptions context;
  context.governor = governor.has_value() ? &*governor : nullptr;
  // The session ball cache is single-threaded state. A one-thread sweep
  // runs on this thread and uses it for every candidate and for the
  // winner's re-evaluation; a parallel sweep builds per-worker caches, so
  // it is attached exactly when threads = 1.
  if (learn.threads == 1) context.ball_cache = &session.ball_cache;
  context.cache_bytes = options_.ball_cache_bytes;
  // Per-worker registry shards and ball caches of a parallel sweep charge
  // the session account too (released when the sweep returns).
  context.mem_budget = session.mem != nullptr ? session.mem.get() : nullptr;

  ErmResult result =
      RunLearn(session.graph, *data, learn, context, session.registry);
  StatusOr<MaterializedModel> model = MaterializeModel(result.hypothesis);
  if (!model.ok()) return MakeErrorFromStatus(model.status());
  const std::string& model_text = model->text;

  Message response = MakeOk();
  if (IsInterrupted(result.status)) {
    response.Set("status", kStatusPartial);
    response.Set("code", "3");
    response.Set("run-status", RunStatusName(result.status));
  }
  response.Set("model", model_text);
  response.Set("training-error", FormatDouble(result.training_error));
  response.Set("types-seen", std::to_string(result.distinct_types_seen));
  response.Set("tuples-tried",
               std::to_string(result.parameter_tuples_tried));
  if (governor.has_value()) {
    response.Set("work-used", std::to_string(governor->work_used()));
  }

  // Model registration. Identical model text reuses its handle, so
  // repeated learns (warm benches, retried workloads) neither bloat the
  // table nor grow the journal.
  uint64_t model_id = 0;
  bool new_model = true;
  for (const auto& [existing_id, entry] : session.models) {
    if (entry.text == model_text) {
      model_id = existing_id;
      new_model = false;
      break;
    }
  }
  if (new_model) model_id = session.next_model_id;
  response.Set("model-id", std::to_string(model_id));

  // Durability: journal the candidate state (current + this mutation)
  // *before* mutating memory or acknowledging, so a journal failure
  // leaves both the file and the in-memory session unchanged.
  const bool new_dedup_entry = !request_id.empty();
  if (new_model || new_dedup_entry) {
    SessionRecord candidate = session.ToRecord();
    if (new_model) {
      candidate.next_model_id = model_id + 1;
      candidate.models.emplace_back(model_id, model_text);
    }
    if (new_dedup_entry) {
      while (static_cast<int>(candidate.learns.size()) >=
             options_.dedup_window) {
        candidate.learns.erase(candidate.learns.begin());
      }
      candidate.learns.emplace_back(request_id, EncodeMessage(response));
    }
    // Journal compaction: a record over either cap sheds its oldest model
    // handles — never the one this response references — before the
    // atomic rewrite below. Session journals otherwise grow without
    // bound under long-lived learn workloads; this keeps both the file
    // and the re-warm cost flat. The memory table mirrors the drop after
    // a successful save, so handles and journal never diverge.
    std::vector<uint64_t> compacted;
    if (options_.max_session_models != kNoLimit ||
        options_.journal_compact_bytes != kNoLimit) {
      const auto over_caps = [&]() {
        return (options_.max_session_models != kNoLimit &&
                static_cast<int64_t>(candidate.models.size()) >
                    options_.max_session_models) ||
               (options_.journal_compact_bytes != kNoLimit &&
                ApproxRecordBytes(candidate) >
                    options_.journal_compact_bytes);
      };
      size_t scan = 0;  // candidate.models is id-ordered: oldest first
      while (over_caps() && scan < candidate.models.size()) {
        if (candidate.models[scan].first == model_id) {
          ++scan;
          continue;
        }
        compacted.push_back(candidate.models[scan].first);
        candidate.models.erase(candidate.models.begin() +
                               static_cast<ptrdiff_t>(scan));
      }
    }
    if (store_.enabled() && !session.closed) {
      Status journaled = store_.Save(candidate);
      if (!journaled.ok()) return MakeErrorFromStatus(journaled);
      if (session.mem != nullptr) {
        // Re-charge the session's journal share at its new size.
        session.mem->Release(session.journal_charged);
        session.journal_charged = ApproxRecordBytes(candidate);
        session.mem->Charge(session.journal_charged);
      }
    }
    for (uint64_t dropped : compacted) session.models.erase(dropped);
    if (!compacted.empty()) {
      BumpStat(&ServerStats::models_compacted,
               static_cast<int64_t>(compacted.size()));
      BumpStat(&ServerStats::journal_compactions);
    }
    if (new_model) {
      session.next_model_id = model_id + 1;
      session.models.emplace(
          model_id, Session::ModelEntry{model_text,
                                        std::move(model->hypothesis.formula)});
      BumpStat(&ServerStats::models_registered);
    }
    if (new_dedup_entry) {
      while (static_cast<int>(session.learn_dedup.size()) >=
             options_.dedup_window) {
        session.learn_dedup.pop_front();
      }
      session.learn_dedup.emplace_back(request_id,
                                       EncodeMessage(response));
    }
  }
  return response;
}

namespace {

// Parses a whitespace-separated vertex tuple ("3 17 4").
bool ParseTupleField(const std::string& text, std::vector<Vertex>* tuple,
                     std::string* error) {
  tuple->clear();
  size_t pos = 0;
  while (pos < text.size()) {
    while (pos < text.size() && (text[pos] == ' ' || text[pos] == '\t')) {
      ++pos;
    }
    if (pos >= text.size()) break;
    size_t end = pos;
    while (end < text.size() && text[end] != ' ' && text[end] != '\t') {
      ++end;
    }
    const std::string_view token(text.data() + pos, end - pos);
    uint64_t value = 0;
    if (!ParseUint64(token, &value) ||
        value > static_cast<uint64_t>(std::numeric_limits<Vertex>::max())) {
      *error = "invalid vertex '" + std::string(token) + "' in field 'tuple'";
      return false;
    }
    tuple->push_back(static_cast<Vertex>(value));
    pos = end;
  }
  if (tuple->empty()) {
    *error = "field 'tuple' names no vertices";
    return false;
  }
  return true;
}

// A registered model whose text no longer splits or parses: the journal
// (or the learner that wrote it) is at fault, not the request.
Message JournaledModelError(uint64_t model_id, const Status& status) {
  return MakeErrorFromStatus(DataLossError("journaled model " +
                                           std::to_string(model_id) +
                                           " does not parse: " +
                                           status.message()));
}

}  // namespace

StatusOr<CachedPlan> Server::ResolveModelPlan(
    const HypothesisHeader& header, std::span<const std::string> frame,
    FormulaRef* known) {
  return plan_cache_.GetOrCompileSource(
      header.formula, frame, WireEvalOptions(), [&]() -> StatusOr<FormulaRef> {
        if (known != nullptr && *known != nullptr) return *known;
        BumpStat(&ServerStats::model_parses);
        StatusOr<FormulaRef> parsed = ParseHypothesisFormula(header);
        if (parsed.ok() && known != nullptr) *known = *parsed;
        return parsed;
      });
}

Message Server::HandleEvaluate(const Message& request) {
  Message error;
  std::shared_ptr<Session> held = RequestSession(request, &error);
  if (held == nullptr) return error;
  Session& session = *held;
  const std::string* model_text = request.Find("model");
  const bool by_handle = request.Has("model-id");
  if ((model_text == nullptr) == !by_handle) {
    return MakeError(kExitUsage,
                     "evaluate requires exactly one of 'model' and "
                     "'model-id', plus 'data'");
  }
  const std::string* data_text = request.Find("data");
  if (data_text == nullptr) {
    return MakeError(kExitUsage, "evaluate requires a 'data' field");
  }
  StatusOr<TrainingSet> data = ParseTrainingSet(*data_text);
  if (!data.ok()) return MakeErrorFromStatus(data.status());
  std::optional<GovernorLimits> limits;
  Status limits_ok = RequestLimits(request, &limits);
  if (!limits_ok.ok()) return MakeErrorFromStatus(limits_ok);

  // The graph is immutable once the session exists, so everything up to
  // plan resolution runs outside the session lock for a shipped model
  // text, the way HandleQuery treats a sentence. A handle's text is read
  // under the lock: a concurrent learn may compact the handle away.
  const Graph& graph = session.graph;
  Status vertices = CheckExampleVertices(graph, *data);
  if (!vertices.ok()) return MakeErrorFromStatus(vertices);
  std::unique_lock<std::mutex> session_lock(session.mu, std::defer_lock);
  Session::ModelEntry* entry = nullptr;
  uint64_t model_id = 0;
  if (by_handle) {
    session_lock.lock();
    entry = session.FindModel(request, &model_id, &error);
    if (entry == nullptr) return error;
  }
  // Both paths split the header on every request (parameters and arity
  // are checked against it each time) and resolve the plan by the formula
  // line's source text: a cache hit never parses the formula.
  StatusOr<HypothesisHeader> header =
      SplitHypothesisText(by_handle ? entry->text : *model_text);
  if (!header.ok()) {
    return by_handle ? JournaledModelError(model_id, header.status())
                     : MakeErrorFromStatus(header.status());
  }
  Status fits = CheckModelFits(graph, header->parameters, header->k, *data);
  if (!fits.ok()) return MakeErrorFromStatus(fits);
  const std::vector<std::string> frame = header->AllVars();
  StatusOr<CachedPlan> resolved = ResolveModelPlan(
      *header, frame, by_handle ? &entry->formula : nullptr);
  if (!resolved.ok()) {
    return by_handle ? JournaledModelError(model_id, resolved.status())
                     : MakeErrorFromStatus(resolved.status());
  }
  if (!session_lock.owns_lock()) session_lock.lock();
  return session.RunPlan(
      *resolved, limits, entry,
      [&](VmEvaluator& vm, const ResourceGovernor* governor,
          Message& response) {
        const int k = header->k;
        std::vector<Vertex> env(frame.size());
        std::copy(header->parameters.begin(), header->parameters.end(),
                  env.begin() + k);
        int64_t wrong = 0;
        int64_t seen = 0;
        for (const LabeledExample& example : *data) {
          std::copy(example.tuple.begin(), example.tuple.end(), env.begin());
          bool verdict = vm.Eval(env);
          if (governor != nullptr && governor->Interrupted()) break;
          if (verdict != example.label) ++wrong;
          ++seen;
        }
        const double error_rate =
            seen == 0 ? 1.0
                      : static_cast<double>(wrong) / static_cast<double>(seen);
        response.Set("error", FormatDouble(error_rate));
        response.Set("examples-seen", std::to_string(seen));
        if (by_handle) response.Set("model-id", std::to_string(model_id));
        return seen;
      });
}

Message Server::HandleQuery(const Message& request) {
  Message error;
  std::shared_ptr<Session> held = RequestSession(request, &error);
  if (held == nullptr) return error;
  Session& session = *held;
  const std::string* sentence_text = request.Find("sentence");
  const bool by_handle = request.Has("model-id");
  if ((sentence_text == nullptr) == !by_handle) {
    return MakeError(kExitUsage,
                     "query requires exactly one of 'sentence' and "
                     "'model-id'");
  }
  std::optional<GovernorLimits> limits;
  Status limits_ok = RequestLimits(request, &limits);
  if (!limits_ok.ok()) return MakeErrorFromStatus(limits_ok);
  // The model's (or sentence's) verdict on `env`: indeterminate once a
  // governor cut the run short.
  std::vector<Vertex> env;
  const auto answer = [&env](VmEvaluator& vm,
                             const ResourceGovernor* governor,
                             Message& response) -> int64_t {
    const bool verdict = vm.Eval(env);
    response.Set("result", governor != nullptr && governor->Interrupted()
                               ? "indeterminate"
                           : verdict ? "true"
                                     : "false");
    return 1;
  };

  if (by_handle) {
    // Handle form: result = the registered model's classification of the
    // request tuple (h_{φ,w̄}(v̄)), with zero per-request parsing.
    const std::string* tuple_text = request.Find("tuple");
    if (tuple_text == nullptr) {
      return MakeError(kExitUsage,
                       "query by model-id requires a 'tuple' field");
    }
    std::vector<Vertex> tuple;
    std::string field_error;
    if (!ParseTupleField(*tuple_text, &tuple, &field_error)) {
      return MakeError(kExitUsage, field_error);
    }
    const LabeledExample example{tuple, false};
    Status vertices = CheckExampleVertices(session.graph, {&example, 1});
    if (!vertices.ok()) return MakeErrorFromStatus(vertices);
    std::lock_guard<std::mutex> session_lock(session.mu);
    uint64_t model_id = 0;
    Session::ModelEntry* entry = session.FindModel(request, &model_id, &error);
    if (entry == nullptr) return error;
    StatusOr<HypothesisHeader> header = SplitHypothesisText(entry->text);
    if (!header.ok()) return JournaledModelError(model_id, header.status());
    Status fits = CheckModelFits(session.graph, header->parameters,
                                 header->k, {&example, 1});
    if (!fits.ok()) return MakeErrorFromStatus(fits);
    StatusOr<CachedPlan> resolved =
        ResolveModelPlan(*header, header->AllVars(), &entry->formula);
    if (!resolved.ok()) return JournaledModelError(model_id, resolved.status());
    env = std::move(tuple);
    env.insert(env.end(), header->parameters.begin(),
               header->parameters.end());
    Message response = session.RunPlan(*resolved, limits, entry, answer);
    response.Set("model-id", std::to_string(model_id));
    return response;
  }

  // Keyed by the sentence text: a repeated sentence is a plan-cache hit
  // without a parse. The closed-sentence check runs with the parse, before
  // any entry exists, so a hit implies it passed.
  StatusOr<CachedPlan> resolved = plan_cache_.GetOrCompileSource(
      *sentence_text, {}, WireEvalOptions(), [&]() -> StatusOr<FormulaRef> {
        BumpStat(&ServerStats::model_parses);
        return ParseSentence(*sentence_text);
      });
  if (!resolved.ok()) return MakeErrorFromStatus(resolved.status());
  std::lock_guard<std::mutex> session_lock(session.mu);
  return session.RunPlan(*resolved, limits, nullptr, answer);
}

Message Server::HandleGetModel(const Message& request) {
  Message error;
  std::shared_ptr<Session> held = RequestSession(request, &error);
  if (held == nullptr) return error;
  Session& session = *held;
  if (!request.Has("model-id")) {
    return MakeError(kExitUsage, "get-model requires a 'model-id' field");
  }
  std::lock_guard<std::mutex> session_lock(session.mu);
  uint64_t model_id = 0;
  const Session::ModelEntry* entry =
      session.FindModel(request, &model_id, &error);
  if (entry == nullptr) return error;
  Message response = MakeOk();
  response.Set("model-id", std::to_string(model_id));
  response.Set("model", entry->text);
  // Evaluation telemetry accumulated by evaluate/query on this handle
  // (`engine` is always the VM; lower-ms and the vm-* fields stay 0 until
  // the handle's first evaluation).
  response.Set("engine", EvalEngineName(EvalEngine::kVm));
  response.Set("evals", std::to_string(entry->evals));
  response.Set("exec-ms", FormatDouble(entry->exec_ms));
  response.Set("lower-ms", FormatDouble(entry->lower_ms));
  response.Set("vm-instructions", std::to_string(entry->vm_instructions));
  response.Set("vm-superinstructions",
               std::to_string(entry->vm_superinstructions));
  return response;
}

Message Server::HandleListModels(const Message& request) {
  Message error;
  std::shared_ptr<Session> held = RequestSession(request, &error);
  if (held == nullptr) return error;
  Session& session = *held;
  std::lock_guard<std::mutex> session_lock(session.mu);
  std::string ids;
  for (const auto& [model_id, entry] : session.models) {
    if (!ids.empty()) ids += ' ';
    ids += std::to_string(model_id);
  }
  Message response = MakeOk();
  response.Set("models", ids);
  response.Set("count", std::to_string(session.models.size()));
  return response;
}

Message Server::HandleStats(const Message& request) {
  (void)request;
  ServerStats stats = Snapshot();
  Message response = MakeOk();
  response.Set("requests", std::to_string(stats.requests));
  response.Set("ok", std::to_string(stats.ok));
  response.Set("partial", std::to_string(stats.partial));
  response.Set("shed", std::to_string(stats.shed));
  response.Set("errors", std::to_string(stats.errors));
  response.Set("sessions-opened", std::to_string(stats.sessions_opened));
  response.Set("sessions-closed", std::to_string(stats.sessions_closed));
  response.Set("sessions-recovered",
               std::to_string(stats.sessions_recovered));
  response.Set("sessions-rewarmed",
               std::to_string(stats.sessions_rewarmed));
  response.Set("sessions-evicted", std::to_string(stats.sessions_evicted));
  response.Set("models-registered",
               std::to_string(stats.models_registered));
  response.Set("dedup-hits", std::to_string(stats.dedup_hits));
  response.Set("disconnects", std::to_string(stats.disconnects));
  response.Set("journal-writes", std::to_string(stats.journal_writes));
  response.Set("durable", store_.enabled() ? "1" : "0");
  response.Set("plan-hits", std::to_string(stats.plan_hits));
  response.Set("plan-misses", std::to_string(stats.plan_misses));
  response.Set("model-parses", std::to_string(stats.model_parses));
  response.Set("plan-bytes", std::to_string(plan_cache_.bytes()));
  response.Set("inflight", std::to_string(stats.inflight));
  response.Set("eval-engine", EvalEngineName(EvalEngine::kVm));
  // Memory governance: the current tier, its counters, and the gauges the
  // watchdog published at its last tick (rss/mem-used are refreshed here
  // so `stats` is accurate even between ticks).
  response.Set("mem-tier",
               PressureTierName(static_cast<PressureTier>(stats.mem_tier)));
  response.Set("mem-shed", std::to_string(stats.mem_shed));
  response.Set("tier-transitions", std::to_string(stats.tier_transitions));
  response.Set("warm-evictions", std::to_string(stats.warm_evictions));
  response.Set("models-compacted", std::to_string(stats.models_compacted));
  response.Set("journal-compactions",
               std::to_string(stats.journal_compactions));
  response.Set("mem-budget-bytes",
               std::to_string(options_.mem_budget_bytes));
  response.Set("mem-used-bytes", std::to_string(stats.mem_used_bytes));
  response.Set("mem-peak-bytes", std::to_string(mem_budget_.peak()));
  response.Set("rss-bytes", std::to_string(stats.rss_bytes));
  return response;
}

ServerStats Server::Snapshot() const {
  ServerStats stats;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats = stats_;
  }
  stats.journal_writes = store_.journal_writes();
  stats.plan_hits = plan_cache_.hits();
  stats.plan_misses = plan_cache_.misses();
  stats.inflight = inflight_.load(std::memory_order_acquire);
  stats.mem_tier = tier_.load(std::memory_order_relaxed);
  stats.mem_used_bytes = mem_budget_.used();
  stats.rss_bytes = ReadRssBytes();
  return stats;
}

}  // namespace folearn
