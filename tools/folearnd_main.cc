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
#include <map>
#include <optional>
#include <string>

#include "server/server.h"
#include "util/status.h"

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

// Minimal --key value parser (same conventions as folearn_cli: each flag
// at most once, malformed numbers exit 64).
int64_t ParseInt64(const std::string& key, const std::string& value) {
  try {
    size_t pos = 0;
    int64_t parsed = std::stoll(value, &pos);
    if (pos != value.size()) throw std::invalid_argument(value);
    return parsed;
  } catch (const std::exception&) {
    std::fprintf(stderr, "invalid value '%s' for flag '--%s'\n",
                 value.c_str(), key.c_str());
    std::exit(64);
  }
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
  if (flags.count("max-inflight") != 0) {
    int64_t n = ParseInt64("max-inflight", flags["max-inflight"]);
    if (n < 1) {
      std::fprintf(stderr, "--max-inflight must be >= 1\n");
      return 64;
    }
    options.max_inflight = static_cast<int>(n);
  }
  if (flags.count("max-deadline-ms") != 0) {
    options.max_deadline_ms =
        ParseInt64("max-deadline-ms", flags["max-deadline-ms"]);
    if (options.max_deadline_ms < 0) {
      std::fprintf(stderr, "--max-deadline-ms must be >= 0\n");
      return 64;
    }
  }
  if (flags.count("max-work") != 0) {
    options.max_work = ParseInt64("max-work", flags["max-work"]);
    if (options.max_work <= 0) {
      std::fprintf(stderr, "--max-work must be positive\n");
      return 64;
    }
  }
  if (flags.count("cache-bytes") != 0) {
    options.ball_cache_bytes = ParseInt64("cache-bytes", flags["cache-bytes"]);
    if (options.ball_cache_bytes < 0) {
      std::fprintf(stderr, "--cache-bytes must be >= 0\n");
      return 64;
    }
  }
  if (flags.count("plan-cache-bytes") != 0) {
    options.plan_cache_bytes =
        ParseInt64("plan-cache-bytes", flags["plan-cache-bytes"]);
    if (options.plan_cache_bytes < 0) {
      std::fprintf(stderr, "--plan-cache-bytes must be >= 0\n");
      return 64;
    }
  }
  if (flags.count("session-ttl-ms") != 0) {
    options.session_ttl_ms =
        ParseInt64("session-ttl-ms", flags["session-ttl-ms"]);
    if (options.session_ttl_ms <= 0) {
      std::fprintf(stderr, "--session-ttl-ms must be positive\n");
      return 64;
    }
  }
  if (flags.count("dedup-window") != 0) {
    int64_t n = ParseInt64("dedup-window", flags["dedup-window"]);
    if (n < 1) {
      std::fprintf(stderr, "--dedup-window must be >= 1\n");
      return 64;
    }
    options.dedup_window = static_cast<int>(n);
  }
  if (flags.count("crash-at-journal-write") != 0) {
    options.crash_at_journal_write =
        ParseInt64("crash-at-journal-write", flags["crash-at-journal-write"]);
  }
  if (flags.count("mem-budget-bytes") != 0) {
    options.mem_budget_bytes =
        ParseInt64("mem-budget-bytes", flags["mem-budget-bytes"]);
    if (options.mem_budget_bytes <= 0) {
      std::fprintf(stderr, "--mem-budget-bytes must be positive\n");
      return 64;
    }
  }
  if (flags.count("session-mem-bytes") != 0) {
    options.session_mem_bytes =
        ParseInt64("session-mem-bytes", flags["session-mem-bytes"]);
    if (options.session_mem_bytes <= 0) {
      std::fprintf(stderr, "--session-mem-bytes must be positive\n");
      return 64;
    }
  }
  if (flags.count("mem-watchdog-ms") != 0) {
    options.mem_watchdog_ms =
        ParseInt64("mem-watchdog-ms", flags["mem-watchdog-ms"]);
    if (options.mem_watchdog_ms < 1) {
      std::fprintf(stderr, "--mem-watchdog-ms must be >= 1\n");
      return 64;
    }
  }
  if (flags.count("max-session-models") != 0) {
    options.max_session_models =
        ParseInt64("max-session-models", flags["max-session-models"]);
    if (options.max_session_models < 1) {
      std::fprintf(stderr, "--max-session-models must be >= 1\n");
      return 64;
    }
  }
  if (flags.count("journal-compact-bytes") != 0) {
    options.journal_compact_bytes =
        ParseInt64("journal-compact-bytes", flags["journal-compact-bytes"]);
    if (options.journal_compact_bytes <= 0) {
      std::fprintf(stderr, "--journal-compact-bytes must be positive\n");
      return 64;
    }
  }
  if (flags.count("force-tier") != 0) {
    int64_t tier = ParseInt64("force-tier", flags["force-tier"]);
    if (tier < 0 || tier > 3) {
      std::fprintf(stderr,
                   "--force-tier must be 0 (green) .. 3 (black)\n");
      return 64;
    }
    options.force_tier = static_cast<int>(tier);
  }

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
