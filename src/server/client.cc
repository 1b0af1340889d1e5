#include "server/client.h"

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <limits>
#include <thread>
#include <utility>

#include "util/strings.h"

namespace folearn {

StatusOr<Client> Client::Connect(const std::string& socket_path,
                                 int64_t io_timeout_ms) {
  Status path_ok = ValidateSocketPath(socket_path);
  if (!path_ok.ok()) return path_ok;
  if (io_timeout_ms < 0) {
    return InvalidArgumentError("io-timeout-ms must be >= 0");
  }
  sockaddr_un addr{};
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return UnavailableError(std::string("socket failed: ") +
                            std::strerror(errno));
  }
  if (io_timeout_ms > 0) {
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(io_timeout_ms / 1000);
    tv.tv_usec = static_cast<suseconds_t>((io_timeout_ms % 1000) * 1000);
    // Receive timeout turns a hung server into a retry-safe kUnavailable
    // (protocol.cc names the EAGAIN); the send timeout bounds the
    // symmetric hazard of a peer that stops draining its socket buffer.
    if (::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0 ||
        ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv)) != 0) {
      int saved = errno;
      ::close(fd);
      return UnavailableError(std::string("setsockopt failed: ") +
                              std::strerror(saved));
    }
  }
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    int saved = errno;
    ::close(fd);
    return UnavailableError("cannot connect to " + socket_path + ": " +
                            std::strerror(saved));
  }
  return Client(fd);
}

Client::Client(Client&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

StatusOr<Message> Client::Call(const Message& request) {
  if (fd_ < 0) return UnavailableError("client is not connected");
  Status written = WriteFrame(fd_, request);
  if (!written.ok()) return written;
  StatusOr<Message> response = ReadFrame(fd_);
  if (!response.ok() &&
      response.status().code() == StatusCode::kNotFound) {
    // A clean close where a response was due means the daemon went away
    // mid-request — surface it as a transport failure, not "no message".
    return UnavailableError("server closed the connection mid-request");
  }
  return response;
}

Status Client::Ping() {
  Message request;
  request.Set("op", "ping");
  StatusOr<Message> response = Call(request);
  if (!response.ok()) return response.status();
  if (response->Get("status") != kStatusOk) {
    return UnavailableError("ping failed: " + response->Get("error"));
  }
  return OkStatus();
}

StatusOr<uint64_t> Client::LoadGraph(const std::string& graph_text) {
  Message request;
  request.Set("op", "load-graph");
  request.Set("graph", graph_text);
  StatusOr<Message> response = Call(request);
  if (!response.ok()) return response.status();
  if (response->Get("status") != kStatusOk) {
    return Status(StatusCode::kInvalidArgument,
                  "load-graph failed: " + response->Get("error"));
  }
  uint64_t session = 0;
  if (!ParseUint64(response->Get("session"), &session)) {
    return DataLossError("load-graph response carries no session id");
  }
  return session;
}

Status Client::CloseSession(uint64_t session) {
  Message request;
  request.Set("op", "close-session");
  request.Set("session", std::to_string(session));
  StatusOr<Message> response = Call(request);
  if (!response.ok()) return response.status();
  if (response->Get("status") != kStatusOk) {
    return InvalidArgumentError("close-session failed: " +
                                response->Get("error"));
  }
  return OkStatus();
}

Status Client::RequestShutdown() {
  Message request;
  request.Set("op", "shutdown");
  StatusOr<Message> response = Call(request);
  if (!response.ok()) return response.status();
  return OkStatus();
}

bool IsRetryableTransportFailure(const Status& status) {
  return status.code() == StatusCode::kUnavailable;
}

bool IsRetryableResponse(const Message& response) {
  return response.Get("status") == kStatusShed;
}

RetryingClient::RetryingClient(std::string socket_path, RetryPolicy policy)
    : socket_path_(std::move(socket_path)),
      policy_(policy),
      rng_(policy.jitter_seed) {}

Status RetryingClient::EnsureConnected() {
  if (client_.has_value()) return OkStatus();
  StatusOr<Client> connected =
      Client::Connect(socket_path_, policy_.io_timeout_ms);
  if (!connected.ok()) return connected.status();
  client_.emplace(*std::move(connected));
  return OkStatus();
}

StatusOr<Message> RetryingClient::Call(const Message& request) {
  Status last = OkStatus();
  last_attempts_ = 0;
  for (int attempt = 0; attempt <= policy_.max_retries; ++attempt) {
    if (attempt > 0) {
      // Capped exponential backoff with uniform jitter on top.
      int64_t backoff = policy_.backoff_ms;
      for (int i = 1; i < attempt; ++i) {
        backoff = std::min(backoff * 2, policy_.max_backoff_ms);
      }
      backoff = std::min(backoff, policy_.max_backoff_ms);
      if (backoff > 0) backoff += rng_.UniformInt(0, backoff - 1);
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
    }
    ++last_attempts_;
    Status connected = EnsureConnected();
    if (!connected.ok()) {
      last = connected;
      if (!IsRetryableTransportFailure(last) || !policy_.reconnect) {
        return last;
      }
      continue;
    }
    StatusOr<Message> response = client_->Call(request);
    if (response.ok()) {
      if (!IsRetryableResponse(*response) ||
          attempt == policy_.max_retries) {
        return response;
      }
      last = UnavailableError("request shed by the server");
      continue;  // shed: same healthy connection, just backed off
    }
    last = response.status();
    if (!IsRetryableTransportFailure(last)) return last;
    // Transport died mid-request: the connection is unusable either way;
    // drop it, and re-dial on the next attempt if the policy allows.
    client_.reset();
    if (!policy_.reconnect) return last;
  }
  return last;
}

int ResponseExitCode(const Message& response) {
  const std::string status = response.Get("status");
  if (status == kStatusOk) return 0;
  if (status == kStatusPartial || status == kStatusShed) return 3;
  int64_t code = 0;
  if (!ParseInt64(response.Get("code", "1"), &code) || code <= 0 ||
      code > std::numeric_limits<int>::max()) {
    return 1;
  }
  return static_cast<int>(code);
}

}  // namespace folearn
