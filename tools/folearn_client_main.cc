// folearn_client: command-line client for the folearnd daemon.
//
//   folearn_client --socket <path> <op> [--field value]... [--*-file path]...
//
// The op becomes the request's "op" field and every --key value pair a
// request field. Flags ending in "-file" read the named file and send its
// contents under the key without the suffix, so the existing text formats
// flow straight from disk to the daemon:
//
//   folearn_client --socket S load-graph --graph-file g.txt
//   folearn_client --socket S load-graph --graph-path g.fog   # daemon-side
//                                                             # open + mmap
//   folearn_client --socket S learn --session 1 --data-file d.txt --rank 1
//   folearn_client --socket S query --session 1 --sentence "exists x. Red(x)"
//   folearn_client --socket S stats
//   folearn_client --socket S shutdown
//
// Response fields print one per line as "key: value" (large payload
// fields — model, graph — print to stdout verbatim with --out -, or are
// written to the path given by --out). Exit code: 0 for status=ok, 3 for
// partial/shed, the response "code" (64/65/66) for errors, 1 for
// transport failures (65 when the transport failure is data loss).
//
// Fault tolerance: --retries N re-sends retry-safe failures (shed
// responses, daemon down or restarting) with capped exponential backoff
// (--backoff-ms, jittered); --reconnect 0 disables re-dialing the socket.
// A learn sent with retries and no explicit --request-id gets a generated
// one, so a retry that crosses a daemon restart is deduplicated
// server-side instead of learning twice.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "server/client.h"
#include "util/checkpoint.h"
#include "util/status.h"
#include "util/strings.h"

namespace folearn {
namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: folearn_client --socket <path> <op> [--field value]...\n"
      "  ops: ping load-graph close-session learn evaluate query\n"
      "       get-model list-models stats shutdown\n"
      "  --<key>-file <path> sends the file contents as field <key>;\n"
      "  --graph-path <path> sends the path itself (the daemon opens it:\n"
      "  .fog files are memory-mapped and journaled by path);\n"
      "  --out <path> writes the response's model/payload field there\n"
      "  (default: print all fields).\n"
      "  --retries N retries shed/unavailable failures with capped\n"
      "  exponential backoff (--backoff-ms, default 50) and jitter;\n"
      "  --reconnect 0 disables re-dialing after a transport failure;\n"
      "  --io-timeout-ms N bounds every socket receive (default 0 = wait\n"
      "  forever); a timeout is retry-safe kUnavailable.\n");
  return 64;
}

// Parses a decimal int64 flag value; exits 64 on malformed input, the
// same convention as the daemon's flag parser.
int64_t ParseInt64Flag(const std::string& key, const std::string& value) {
  int64_t parsed = 0;
  if (!ParseInt64(value, &parsed)) {
    std::fprintf(stderr, "invalid value '%s' for flag '--%s'\n",
                 value.c_str(), key.c_str());
    std::exit(64);
  }
  return parsed;
}

// A request-id unique enough for the dedup window: wall-clock nanos plus
// entropy, generated only when the user asked for retries but supplied no
// id of their own.
std::string GenerateRequestId() {
  const auto now = std::chrono::system_clock::now().time_since_epoch();
  const uint64_t nanos =
      std::chrono::duration_cast<std::chrono::nanoseconds>(now).count();
  std::random_device entropy;
  return "auto-" + std::to_string(nanos) + "-" +
         std::to_string(static_cast<uint64_t>(entropy()));
}

int Main(int argc, char** argv) {
  std::string socket_path;
  std::string op;
  std::string out_path;
  RetryPolicy policy;
  Message request;
  std::vector<std::pair<std::string, std::string>> raw_flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "flag '%s' is missing its value\n", arg.c_str());
        return 64;
      }
      raw_flags.emplace_back(arg.substr(2), argv[i + 1]);
      ++i;
    } else if (op.empty()) {
      op = arg;
    } else {
      std::fprintf(stderr, "unexpected argument '%s'\n", arg.c_str());
      return 64;
    }
  }
  if (op.empty()) return Usage();
  request.Set("op", op);
  bool retries_requested = false;
  for (const auto& [key, value] : raw_flags) {
    if (key == "socket") {
      socket_path = value;
    } else if (key == "out") {
      out_path = value;
    } else if (key == "retries") {
      int64_t n = ParseInt64Flag(key, value);
      if (n < 0) {
        std::fprintf(stderr, "--retries must be >= 0\n");
        return 64;
      }
      policy.max_retries = static_cast<int>(n);
      retries_requested = true;
    } else if (key == "backoff-ms") {
      policy.backoff_ms = ParseInt64Flag(key, value);
      if (policy.backoff_ms < 0) {
        std::fprintf(stderr, "--backoff-ms must be >= 0\n");
        return 64;
      }
    } else if (key == "reconnect") {
      if (value != "0" && value != "1") {
        std::fprintf(stderr, "--reconnect takes 0 or 1\n");
        return 64;
      }
      policy.reconnect = value == "1";
    } else if (key == "io-timeout-ms") {
      policy.io_timeout_ms = ParseInt64Flag(key, value);
      if (policy.io_timeout_ms < 0) {
        std::fprintf(stderr, "--io-timeout-ms must be >= 0\n");
        return 64;
      }
    } else if (key == "graph-path") {
      // The path itself, not the contents: the daemon memory-maps .fog
      // files and journals file-backed sessions by path + fingerprint,
      // which only works if it opens the file on its side of the socket.
      request.Set("graph-file", value);
    } else if (key.size() > 5 && key.rfind("-file") == key.size() - 5) {
      StatusOr<std::string> contents = ReadFileToString(value);
      if (!contents.ok()) {
        std::fprintf(stderr, "%s\n", contents.status().message().c_str());
        return StatusExitCode(contents.status());
      }
      request.Set(key.substr(0, key.size() - 5), *contents);
    } else {
      request.Set(key, value);
    }
  }
  if (socket_path.empty()) {
    std::fprintf(stderr, "missing --socket <path>\n");
    return 64;
  }
  Status path_ok = ValidateSocketPath(socket_path);
  if (!path_ok.ok()) {
    std::fprintf(stderr, "%s\n", path_ok.message().c_str());
    return 64;
  }
  // Retried learns need a request-id to be idempotent across a daemon
  // restart; generate one when the user didn't supply their own.
  if (retries_requested && op == "learn" && !request.Has("request-id")) {
    request.Set("request-id", GenerateRequestId());
  }

  RetryingClient client(socket_path, policy);
  StatusOr<Message> response = client.Call(request);
  if (!response.ok()) {
    std::fprintf(stderr, "%s\n", response.status().message().c_str());
    // Terminal data loss keeps its sysexits analogue; every other
    // transport failure is the generic environment failure.
    return response.status().code() == StatusCode::kDataLoss ? 65 : 1;
  }

  // Large payloads (model text) go to --out; everything else prints as
  // key: value lines, status metadata to stderr so pipelines stay clean.
  // "error" is the diagnostic message on status=error, but a payload (the
  // evaluated error fraction) on ok/partial responses — route accordingly.
  const bool failed = response->Get("status") == kStatusError;
  for (const auto& [key, value] : response->fields) {
    if (key == "model" && !out_path.empty()) {
      if (out_path == "-") {
        std::fputs(value.c_str(), stdout);
      } else {
        std::ofstream out(out_path);
        if (!out || !(out << value)) {
          std::fprintf(stderr, "cannot write '%s'\n", out_path.c_str());
          return 1;
        }
      }
      continue;
    }
    if (key == "status" || key == "code" || key == "run-status" ||
        (key == "error" && failed)) {
      std::fprintf(stderr, "%s: %s\n", key.c_str(), value.c_str());
    } else {
      std::printf("%s: %s\n", key.c_str(), value.c_str());
    }
  }
  return ResponseExitCode(*response);
}

}  // namespace
}  // namespace folearn

int main(int argc, char** argv) { return folearn::Main(argc, argv); }
