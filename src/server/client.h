#ifndef FOLEARN_SERVER_CLIENT_H_
#define FOLEARN_SERVER_CLIENT_H_

#include <cstdint>
#include <optional>
#include <string>

#include "server/protocol.h"
#include "util/rng.h"
#include "util/status.h"

namespace folearn {

// Blocking client for the folearnd socket protocol. One connection per
// Client; requests on one client are sequential (the protocol is strict
// request/response). Not thread-safe — use one Client per thread; the
// server multiplexes connections, not frames.
class Client {
 public:
  // Connects to a folearnd socket. kUnavailable if the daemon is not
  // listening there. With io_timeout_ms > 0 every socket receive (and
  // send) is bounded by SO_RCVTIMEO/SO_SNDTIMEO: a server that accepted
  // the connection but never answers turns into a retry-safe kUnavailable
  // ("socket read timed out") instead of blocking the caller forever.
  // 0 = no timeout (the historical behaviour).
  static StatusOr<Client> Connect(const std::string& socket_path,
                                  int64_t io_timeout_ms = 0);

  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  ~Client();

  // One request/response round trip. Transport failures (daemon died,
  // corrupt frame) are kUnavailable/kDataLoss; a response frame with
  // status=error/shed/partial is still an OK Call — interpret the
  // "status"/"code" fields (or use ResponseExitCode below).
  StatusOr<Message> Call(const Message& request);

  // Convenience wrappers over Call.
  Status Ping();
  StatusOr<uint64_t> LoadGraph(const std::string& graph_text);
  Status CloseSession(uint64_t session);
  Status RequestShutdown();

 private:
  explicit Client(int fd) : fd_(fd) {}

  int fd_ = -1;
};

// Maps a response's status/code fields onto the CLI exit-code
// convention: ok → 0, partial/shed → 3, error → its "code" field
// (64/65/66, defaulting to 1 when absent or unparsable).
int ResponseExitCode(const Message& response);

// Retry classification.
//
// Retry-safe — nothing committed, or the commit is idempotent to repeat:
//   * a status=shed response (admission control refused before any work),
//   * a kUnavailable transport failure (daemon down, restarting, or the
//     connection died mid-request — learns carry a request-id, so the
//     server's dedup window absorbs the replay of a request that did
//     commit before the connection died).
// Terminal — retrying cannot help, or could mask corruption:
//   * a status=error response (the request itself is at fault),
//   * kDataLoss (torn or corrupt frame: the stream is untrusted),
//   * kInvalidArgument (bad socket path or request).
bool IsRetryableResponse(const Message& response);

struct RetryPolicy {
  // Additional attempts after the first; 0 = plain single-shot Call.
  int max_retries = 0;
  // Base backoff; attempt n sleeps backoff_ms·2ⁿ, capped, plus jitter
  // uniform in [0, current backoff) to de-synchronise retrying clients.
  int64_t backoff_ms = 50;
  int64_t max_backoff_ms = 2000;
  // Re-dial the socket after a transport failure (daemon restart).
  bool reconnect = true;
  // Per-receive socket timeout for every dialed connection (see
  // Client::Connect); 0 = wait forever. A timeout is a retry-safe
  // transport failure, so it composes with max_retries: a hung server
  // costs io_timeout_ms per attempt instead of hanging the workload.
  int64_t io_timeout_ms = 0;
  // Jitter seed — deterministic for reproducible tests.
  uint64_t jitter_seed = 0x5eed5eed;
};

// A Client plus a retry loop: transparently re-dials and re-sends through
// shed responses and daemon restarts, with capped exponential backoff and
// jitter. Terminal failures surface immediately. Like Client, one
// instance per thread.
class RetryingClient {
 public:
  RetryingClient(std::string socket_path, RetryPolicy policy);

  // Round trip with retries. Returns the final response (which may still
  // be shed, if the budget ran out) or the last transport failure.
  StatusOr<Message> Call(const Message& request);

  // Attempts spent on the last Call (1 = no retries were needed).
  int last_attempts() const { return last_attempts_; }

 private:
  Status EnsureConnected();

  std::string socket_path_;
  RetryPolicy policy_;
  std::optional<Client> client_;
  Rng rng_;
  int last_attempts_ = 0;
};

}  // namespace folearn

#endif  // FOLEARN_SERVER_CLIENT_H_
