#ifndef FOLEARN_SERVER_SERVER_H_
#define FOLEARN_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "mc/plan_cache.h"
#include "server/protocol.h"
#include "server/session_store.h"
#include "util/governor.h"
#include "util/mem_budget.h"
#include "util/status.h"

namespace folearn {

struct HypothesisHeader;

// folearnd: a long-lived learn/evaluate/query server.
//
// The batch CLI pays the full setup cost — graph parsing, type-registry
// population, ball materialisation, formula compilation — on every
// invocation. The server loads a graph once per *session* and keeps the
// derived state warm across requests:
//
//   * the session's TypeRegistry (canonical TypeIds across learns),
//   * a byte-budgeted BallCache bound to the session graph,
//   * per-session warm evaluators (per-graph memo tables, bytecode VM or
//     compiled tree per ServerOptions::eval_engine),
//   * a process-wide PlanCache of compiled plans and lowered bytecode
//     (shared across sessions — both are graph-independent; entries are
//     keyed by engine + options so tree and VM plans never collide), and
//   * registered *model handles*: every learn registers its hypothesis
//     under a session-scoped model-id, so evaluate/query can reference
//     the already-parsed model instead of shipping its text every time.
//
// Durability: with ServerOptions::state_dir set, every acknowledged
// session mutation (creation, learned model registration, close) is
// journaled through the checkpoint envelope *before* the response frame
// is written (src/server/session_store.h). A restarted daemon pointed at
// the same state dir recovers every journaled session and model handle;
// graphs are re-parsed lazily on first use, so restart is instant and an
// idle-evicted session re-warms transparently. Learn requests may carry a
// client-supplied "request-id": the acknowledged response is recorded in
// a bounded per-session dedup window (journaled with the session), so a
// client that retries a dropped learn — including across a daemon
// restart — gets the byte-identical original response instead of a
// duplicate side effect.
//
// Concurrency model: one thread per connection; requests on one
// connection are sequential (frame in → frame out), requests on
// different connections run in parallel. Requests touching the same
// session serialise on the session mutex; cross-session requests share
// nothing mutable but the plan cache (internally locked). A client that
// disconnects mid-request (or sends a torn frame) costs exactly its
// connection: the session, its admission slot, and the daemon survive
// (writes use MSG_NOSIGNAL, so a dead peer yields EPIPE, never SIGPIPE).
//
// Admission control and overload behaviour: at most
// ServerOptions::max_inflight substantive requests (learn / evaluate /
// query / load-graph) execute at once. Excess requests are *shed* — they
// receive an immediate status=shed response on a healthy connection
// instead of queueing without bound or having the connection dropped.
// Per-request deadline-ms / max-work fields become a ResourceGovernor
// (clamped by the server-wide caps), so an admitted request that runs
// too long degrades to status=partial with best-so-far payload — the
// same anytime semantics as the CLI, exit-code analogue 3.
//
// Protocol operations (see protocol.h for framing and retry semantics):
//
//   ping           echoes "payload"; with session=<id>, also refreshes
//                  that session's idle clock (heartbeat) and reports
//                  session-known=0|1
//   load-graph     graph=<graph text> → session=<id>
//   close-session  session=<id> (also removes the session's journal)
//   learn          session, data=<training set text>, rank, radius, ell,
//                  threads, deadline-ms, max-work, [request-id] →
//                  model=<hypothesis text>, model-id, training-error,
//                  work-used; a repeated request-id replays the original
//                  response with deduped=1
//   evaluate       session, model=<hypothesis text> | model-id=<id>,
//                  data=<training set text> → error=<fraction>
//   query          session, sentence=<FO sentence> → result=true|false
//                  (partial → result=indeterminate); or model-id=<id>,
//                  tuple=<v1 v2 …> → result=true|false (the model's
//                  classification of the tuple)
//   get-model      session, model-id → model=<hypothesis text>
//   list-models    session → models=<space-separated ids>
//   stats          → request/session/cache/journal counters
//   shutdown       stops the serve loop after responding
struct ServerOptions {
  std::string socket_path;
  // Durable session journal directory; empty = sessions are memory-only.
  std::string state_dir;
  // Concurrent substantive requests admitted before shedding; must be >= 1.
  int max_inflight = 8;
  // Server-wide caps on per-request governor limits (kNoLimit = uncapped).
  // A request asking for more than the cap is clamped to the cap; with a
  // cap set, requests that ask for nothing still run under it.
  int64_t max_deadline_ms = kNoLimit;
  int64_t max_work = kNoLimit;
  // Idle-session TTL (kNoLimit = never evict). A session untouched for
  // this long is evicted from memory: journaled sessions demote to cold
  // entries that lazily re-warm on next use, memory-only sessions close.
  int64_t session_ttl_ms = kNoLimit;
  // Byte budget of each session's BallCache (BallCache::kNoBudget = off).
  int64_t ball_cache_bytes = 32 << 20;
  // Byte budget of the shared compiled-plan cache.
  int64_t plan_cache_bytes = 8 << 20;
  // Evaluation engine for evaluate/query requests (learn goes through the
  // type-majority path and never touches it). Every engine produces
  // identical verdicts; kVm is the fast default, kCompiled the tree
  // engine, kInterpreted the reference oracle.
  EvalEngine eval_engine = EvalEngine::kVm;
  // Bound of the per-session learn dedup window (journaled with it).
  int dedup_window = 64;
  // listen(2) backlog.
  int backlog = 64;
  // Test hook (chaos harness): die with kCrashExitCode right after the
  // Nth completed journal write; < 0 disables.
  int64_t crash_at_journal_write = -1;

  // ---- Memory governance (tentpole: pressure-aware degradation). ----
  //
  // Process-wide byte budget. kNoLimit = ungoverned: the watchdog still
  // publishes RSS/accounted gauges but the tier stays green. With a
  // budget, the watchdog classifies max(RSS, accounted bytes) against it
  // every mem_watchdog_ms and the server *degrades* instead of dying:
  //   yellow  caches flip to read-through; non-mmap load-graph is shed
  //   red     + idle warm state evicted LRU-first, plan cache trimmed to
  //             a floor
  //   black   every substantive request is shed (code 75, retry-safe);
  //             heartbeats, stats, close-session and shutdown still work
  // The daemon never aborts on memory pressure.
  int64_t mem_budget_bytes = kNoLimit;
  // Per-session byte cap (child account of the process budget; kNoLimit =
  // only the process budget governs). A session whose registry + caches +
  // journal footprint exceed it has its learns cut with
  // status=partial run-status=resource-exhausted at the next governor
  // checkpoint — best-so-far results, never an abort.
  int64_t session_mem_bytes = kNoLimit;
  // Watchdog poll cadence.
  int64_t mem_watchdog_ms = 200;
  // Tier thresholds as fractions of mem_budget_bytes.
  PressureThresholds pressure;
  // Test hook: pin the pressure tier (0=green 1=yellow 2=red 3=black)
  // regardless of measured memory; < 0 disables. The pinned tier drives
  // the same degradation paths as a measured one.
  int force_tier = -1;
  // Journal compaction: a session whose journaled record would exceed
  // either cap drops its oldest model handles (never the one being
  // registered) before the atomic rewrite. kNoLimit = unbounded.
  int64_t max_session_models = kNoLimit;
  int64_t journal_compact_bytes = kNoLimit;
};

// Monotonic counters, snapshot under the stats lock.
struct ServerStats {
  int64_t requests = 0;         // frames dispatched (all ops)
  int64_t ok = 0;
  int64_t partial = 0;
  int64_t shed = 0;
  int64_t errors = 0;
  int64_t sessions_opened = 0;
  int64_t sessions_closed = 0;
  int64_t sessions_recovered = 0;  // journal entries indexed at Start()
  int64_t sessions_rewarmed = 0;   // lazy journal loads on first use
  int64_t sessions_evicted = 0;    // idle-TTL evictions (either kind)
  int64_t models_registered = 0;
  int64_t dedup_hits = 0;          // learn request-id replays
  int64_t disconnects = 0;         // connections dropped mid-request
  int64_t journal_writes = 0;      // SessionStore counter at snapshot time
  int64_t plan_hits = 0;           // PlanCache hits/misses at snapshot time
  int64_t plan_misses = 0;
  int64_t model_parses = 0;        // formula parses run on request paths
  int64_t inflight = 0;            // gauge: substantive requests in flight
  // Memory governance.
  int64_t mem_shed = 0;            // requests shed for memory pressure
  int64_t tier_transitions = 0;    // watchdog tier changes
  int64_t warm_evictions = 0;      // red-tier warm-state demotions
  int64_t models_compacted = 0;    // model handles dropped by compaction
  int64_t journal_compactions = 0; // journal rewrites that dropped handles
  int64_t mem_tier = 0;            // gauge: current pressure tier
  int64_t rss_bytes = 0;           // gauge: RSS at snapshot time
  int64_t mem_used_bytes = 0;      // gauge: accounted bytes at snapshot
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Initialises the session journal (creating state_dir if needed),
  // indexes every journaled session for lazy re-warm, then binds and
  // listens on options.socket_path (removing a stale socket file first).
  // kUnavailable on any socket-layer failure; kInvalidArgument on an
  // over-long socket path; journal corruption of the meta file is
  // kDataLoss.
  Status Start();

  // Accepts and serves connections until Shutdown() (or a "shutdown"
  // request) is observed, then drains: stops accepting, waits for every
  // connection thread, removes the socket file. Call Start() first.
  // With session_ttl_ms set, also sweeps idle sessions.
  void Serve();

  // Requests a graceful stop of Serve(). Safe from any thread and from
  // signal handlers (one write(2) on a pre-opened pipe).
  void Shutdown();

  const std::string& socket_path() const { return options_.socket_path; }

  ServerStats Snapshot() const;

 private:
  struct Session;

  // One entry in the session table. `live` is the warm in-memory state;
  // a journaled slot with live == nullptr is *cold* and re-warms from the
  // store on first use. `mu` guards `live`; the idle clock is atomic so
  // heartbeats never take the slot lock.
  struct SessionSlot {
    std::mutex mu;
    std::shared_ptr<Session> live;
    bool journaled = false;
    std::atomic<int64_t> last_used_ms{0};
  };

  // Dispatches one decoded request to its handler; never throws, always
  // returns a response message.
  Message Dispatch(const Message& request);

  Message HandlePing(const Message& request);
  Message HandleLoadGraph(const Message& request);
  Message HandleCloseSession(const Message& request);
  Message HandleLearn(const Message& request);
  Message HandleEvaluate(const Message& request);
  Message HandleQuery(const Message& request);
  Message HandleGetModel(const Message& request);
  Message HandleListModels(const Message& request);
  Message HandleStats(const Message& request);

  // The plan for a hypothesis, looked up by its formula's source text
  // (header.formula) in `frame`: a hit parses nothing. On a miss the
  // formula comes from *known when that is set (a learned handle) and is
  // otherwise parsed and validated, counted in model-parses, and stored in
  // *known for a handle. `known` is null for a shipped model text.
  StatusOr<CachedPlan> ResolveModelPlan(const HypothesisHeader& header,
                                        std::span<const std::string> frame,
                                        const EvalOptions& options,
                                        FormulaRef* known);

  // Resolves a session id to its warm state, lazily re-warming a cold
  // journaled slot (parse graph, reinstall models and dedup window).
  // NotFound for an id that is neither live nor journaled; kDataLoss for
  // a corrupt journal file.
  StatusOr<std::shared_ptr<Session>> AcquireSession(uint64_t id);

  std::shared_ptr<SessionSlot> FindSlot(uint64_t id);

  // Journals the session's current durable state; on failure the caller
  // must roll back the in-memory mutation and fail the request.
  Status JournalSession(uint64_t id, const Session& session);

  // Demotes (journaled) or closes (memory-only) sessions idle longer
  // than session_ttl_ms. Called from the accept loop's poll cadence.
  void EvictIdleSessions();

  // Red-tier back-pressure: demotes idle journaled sessions (LRU-first)
  // and drops memory-only sessions' warm evaluators/ball entries until
  // accounted bytes fall back under the red threshold. Never touches a
  // session a request currently holds. Data is never lost — journaled
  // sessions re-warm lazily, memory-only sessions keep graph and models.
  void EvictWarmStateUnderPressure();

  // Watchdog body: classifies pressure every mem_watchdog_ms until
  // Shutdown(). Runs for the lifetime of Serve().
  void WatchdogLoop();

  // One watchdog tick: measure, classify (or honour force_tier), publish
  // the tier, flip caches to read-through at >= yellow, run red-tier
  // reclamation. Also called once from Start() so a pinned force_tier
  // gates requests before the first tick.
  void UpdatePressure();

  PressureTier CurrentTier() const {
    return static_cast<PressureTier>(
        tier_.load(std::memory_order_relaxed));
  }

  // Attaches a freshly built session to the memory-governance tree
  // (child budget, registry/ball-cache accounts, read-through flag).
  void AttachSessionMemory(Session* session);

  // Builds the per-request governor limits from the request fields and
  // the server caps. Returns false (with *error filled) on malformed
  // values. *governed is false when neither the request nor the server
  // imposes a limit.
  bool RequestLimits(const Message& request, GovernorLimits* limits,
                     bool* governed, std::string* error) const;

  void ConnectionLoop(int fd);
  void RecordOutcome(const Message& response);
  void BumpStat(int64_t ServerStats::*counter, int64_t delta = 1);

  ServerOptions options_;
  // Root of the memory-governance tree; session budgets are children.
  // Declared before plan_cache_ and the session table so every account
  // that charges it is destroyed first.
  MemBudget mem_budget_;
  PlanCache plan_cache_;
  SessionStore store_;

  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};  // self-pipe: Shutdown() → poll wakeup
  std::atomic<bool> stopping_{false};
  std::atomic<int> inflight_{0};

  // Published by the watchdog, read lock-free on every dispatch.
  std::atomic<int> tier_{0};
  std::atomic<bool> cache_read_through_{false};
  std::thread watchdog_;

  // Lock order: mu_ (session table) → SessionSlot::mu → Session::mu →
  // stats_mu_ / the store's internal mutex. Never the reverse.
  mutable std::mutex mu_;
  std::unordered_map<uint64_t, std::shared_ptr<SessionSlot>> sessions_;
  uint64_t next_session_id_ = 1;
  mutable std::mutex stats_mu_;
  ServerStats stats_;
  std::vector<std::thread> connections_;
};

}  // namespace folearn

#endif  // FOLEARN_SERVER_SERVER_H_
