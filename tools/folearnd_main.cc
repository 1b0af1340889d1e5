// folearnd: the long-lived folearn daemon. Loads graphs once per session
// and serves learn / evaluate / query requests over a local stream socket
// with warm type registries, ball caches, and compiled-plan memos (see
// src/server/server.h for the protocol and concurrency model).
//
//   folearnd --socket /tmp/folearnd.sock [--max-inflight 8]
//            [--max-deadline-ms N] [--max-work N]
//            [--cache-bytes N] [--plan-cache-bytes N]
//            [--state-dir DIR] [--session-ttl-ms N]
//            [--dedup-window N] [--crash-at-journal-write N]
//
// With --state-dir, sessions and learned-model handles are journaled
// through the checkpoint envelope and recovered on restart; see
// src/server/session_store.h. --session-ttl-ms evicts idle sessions
// (journaled ones re-warm lazily on next use). --crash-at-journal-write
// is the chaos-test hook: die after the Nth completed journal write.
//
// SIGINT/SIGTERM stop the daemon gracefully: in-flight requests finish,
// connections drain, the socket file is removed. Exit codes follow the
// CLI conventions: 0 clean, 64 usage, 1 environment failure.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <optional>
#include <string>

#include "server/server.h"
#include "util/status.h"
#include "util/strings.h"

namespace folearn {
namespace {

Server* g_server = nullptr;

extern "C" void HandleTerminationSignal(int sig) {
  (void)sig;
  if (g_server != nullptr) g_server->Shutdown();  // one write(2): safe
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: folearnd --socket <path> [--max-inflight N]\n"
      "                [--max-deadline-ms N] [--max-work N]\n"
      "                [--cache-bytes N] [--plan-cache-bytes N]\n"
      "                [--state-dir DIR]\n"
      "                [--session-ttl-ms N] [--dedup-window N]\n"
      "                [--crash-at-journal-write N]\n"
      "                [--mem-budget-bytes N] [--session-mem-bytes N]\n"
      "                [--mem-watchdog-ms N] [--max-session-models N]\n"
      "                [--journal-compact-bytes N] [--force-tier 0..3]\n"
      "\n"
      "Serves folearn learn/evaluate/query requests on a local socket.\n"
      "evaluate/query run on the bytecode VM (compiled plans lowered to\n"
      "bytecode, cached across sessions).\n"
      "--max-inflight caps concurrently executing requests (excess is\n"
      "shed, not queued); --max-deadline-ms/--max-work cap per-request\n"
      "governor limits; --cache-bytes budgets each session's ball cache\n"
      "and --plan-cache-bytes the shared compiled-plan cache.\n"
      "--state-dir journals sessions/models for crash recovery;\n"
      "--session-ttl-ms evicts idle sessions (journaled ones re-warm\n"
      "lazily); --dedup-window bounds the per-session learn request-id\n"
      "window; --crash-at-journal-write is a fault-injection test hook.\n"
      "--mem-budget-bytes caps the daemon's memory: an RSS watchdog\n"
      "(--mem-watchdog-ms cadence) degrades service through pressure\n"
      "tiers (yellow: caches stop growing; red: idle warm state evicted;\n"
      "black: substantive requests shed retry-safe) instead of dying.\n"
      "--session-mem-bytes caps each session; an over-budget learn\n"
      "returns partial with run-status=resource-exhausted.\n"
      "--max-session-models/--journal-compact-bytes compact a session's\n"
      "journal by dropping its oldest model handles. --force-tier pins\n"
      "the pressure tier (testing).\n");
  return 64;
}

// Numeric flags follow folearn_cli's conventions: strict decimal
// (util/strings.h), and a malformed or out-of-range value exits 64 naming
// the flag. Sets *out only when --key was given.
template <typename Int>
void ReadFlag(const std::map<std::string, std::string>& flags,
              const char* key, int64_t min, Int* out,
              int64_t max = std::numeric_limits<Int>::max()) {
  auto it = flags.find(key);
  if (it == flags.end()) return;
  int64_t value = 0;
  if (!ParseInt64(it->second, &value)) {
    std::fprintf(stderr, "invalid value '%s' for flag '--%s'\n",
                 it->second.c_str(), key);
    std::exit(64);
  }
  if (value < min || value > max) {
    std::fprintf(stderr, "--%s must be in [%lld, %lld]\n", key,
                 static_cast<long long>(min), static_cast<long long>(max));
    std::exit(64);
  }
  *out = static_cast<Int>(value);
}

int Main(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.size() < 3 || key[0] != '-' || key[1] != '-') return Usage();
    if (!flags.emplace(key.substr(2), argv[i + 1]).second) {
      std::fprintf(stderr, "duplicate flag '%s'\n", key.c_str());
      return 64;
    }
  }
  if ((argc - 1) % 2 != 0) return Usage();
  for (const auto& [key, value] : flags) {
    (void)value;
    if (key != "socket" && key != "max-inflight" &&
        key != "max-deadline-ms" && key != "max-work" &&
        key != "cache-bytes" && key != "plan-cache-bytes" &&
        key != "state-dir" && key != "session-ttl-ms" &&
        key != "dedup-window" && key != "crash-at-journal-write" &&
        key != "mem-budget-bytes" && key != "session-mem-bytes" &&
        key != "mem-watchdog-ms" && key != "max-session-models" &&
        key != "journal-compact-bytes" && key != "force-tier") {
      std::fprintf(stderr, "unknown flag '--%s'\n", key.c_str());
      return 64;
    }
  }
  if (flags.count("socket") == 0) return Usage();

  ServerOptions options;
  options.socket_path = flags["socket"];
  {
    // Catch over-long paths before they reach bind(2): sun_path would
    // silently truncate them.
    Status path_ok = ValidateSocketPath(options.socket_path);
    if (!path_ok.ok()) {
      std::fprintf(stderr, "folearnd: %s\n", path_ok.message().c_str());
      return 64;
    }
  }
  if (flags.count("state-dir") != 0) options.state_dir = flags["state-dir"];
  constexpr int64_t kAny = std::numeric_limits<int64_t>::min();
  ReadFlag(flags, "max-inflight", 1, &options.max_inflight);
  ReadFlag(flags, "max-deadline-ms", 0, &options.max_deadline_ms);
  ReadFlag(flags, "max-work", 1, &options.max_work);
  ReadFlag(flags, "cache-bytes", 0, &options.ball_cache_bytes);
  ReadFlag(flags, "plan-cache-bytes", 0, &options.plan_cache_bytes);
  ReadFlag(flags, "session-ttl-ms", 1, &options.session_ttl_ms);
  ReadFlag(flags, "dedup-window", 1, &options.dedup_window);
  ReadFlag(flags, "crash-at-journal-write", kAny,
           &options.crash_at_journal_write);
  ReadFlag(flags, "mem-budget-bytes", 1, &options.mem_budget_bytes);
  ReadFlag(flags, "session-mem-bytes", 1, &options.session_mem_bytes);
  ReadFlag(flags, "mem-watchdog-ms", 1, &options.mem_watchdog_ms);
  ReadFlag(flags, "max-session-models", 1, &options.max_session_models);
  ReadFlag(flags, "journal-compact-bytes", 1, &options.journal_compact_bytes);
  ReadFlag(flags, "force-tier", 0, &options.force_tier,
           static_cast<int>(PressureTier::kBlack));

  Server server(std::move(options));
  // Handlers go in before Start(): the socket file becomes visible (and
  // connectable) during Start(), so a supervisor may signal us the moment
  // it appears. Shutdown() before Serve() just makes Serve() return
  // immediately.
  g_server = &server;
  std::signal(SIGINT, HandleTerminationSignal);
  std::signal(SIGTERM, HandleTerminationSignal);
  std::signal(SIGPIPE, SIG_IGN);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "folearnd: %s\n", started.message().c_str());
    return 1;
  }
  std::fprintf(stderr, "folearnd: listening on %s\n",
               server.socket_path().c_str());
  server.Serve();
  g_server = nullptr;
  std::fprintf(stderr, "folearnd: shut down cleanly\n");
  return 0;
}

}  // namespace
}  // namespace folearn

int main(int argc, char** argv) { return folearn::Main(argc, argv); }
