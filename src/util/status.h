#ifndef FOLEARN_UTIL_STATUS_H_
#define FOLEARN_UTIL_STATUS_H_

#include <optional>
#include <string>
#include <utility>

#include "util/check.h"

namespace folearn {

// Recoverable-error model for everything that touches external input.
//
// The library's internal contract is CHECK-based: a violated invariant is a
// programming error and aborts. External input — graph/data/model files,
// checkpoint files, anything a user or another process can hand us — must
// never be able to reach those CHECKs. Loaders for such input return a
// `Status` (or `StatusOr<T>`) instead: corrupt, truncated, or
// version-skewed bytes yield a diagnostic the CLI can print and map to a
// sysexits-style exit code, never UB and never an abort.

enum class StatusCode {
  kOk = 0,
  // The input is structurally readable but semantically wrong (a value out
  // of range, a flag mismatch, an incompatible resume request).
  kInvalidArgument = 1,
  // The input source does not exist / cannot be opened.
  kNotFound = 2,
  // The input bytes are corrupt: parse failure, truncation, checksum or
  // version mismatch.
  kDataLoss = 3,
  // The environment refused an operation (e.g. a file write failed).
  kUnavailable = 4,
  // A byte budget or memory-pressure tier refused the operation. Always
  // retry-safe: nothing was acknowledged, and a retry after pressure
  // subsides (or against a bigger budget) can succeed.
  kResourceExhausted = 5,
  // The invocation itself is wrong: a flag or request field out of range,
  // an unknown learner, a missing required argument.
  kUsage = 6,
};

// sysexits(3)-style process exit codes used by the CLI for input errors.
inline constexpr int kExitUsage = 64;      // EX_USAGE: bad invocation
inline constexpr int kExitDataError = 65;  // EX_DATAERR: corrupt input
inline constexpr int kExitNoInput = 66;    // EX_NOINPUT: missing input
inline constexpr int kExitTempFail = 75;   // EX_TEMPFAIL: retry later

class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {
    FOLEARN_CHECK(code != StatusCode::kOk || message_.empty())
        << "OK status must not carry a message";
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  std::string ToString() const {
    if (ok()) return "OK";
    return message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

inline Status OkStatus() { return Status(); }
inline Status InvalidArgumentError(std::string message) {
  return Status(StatusCode::kInvalidArgument, std::move(message));
}
inline Status NotFoundError(std::string message) {
  return Status(StatusCode::kNotFound, std::move(message));
}
inline Status DataLossError(std::string message) {
  return Status(StatusCode::kDataLoss, std::move(message));
}
inline Status UnavailableError(std::string message) {
  return Status(StatusCode::kUnavailable, std::move(message));
}
inline Status ResourceExhaustedError(std::string message) {
  return Status(StatusCode::kResourceExhausted, std::move(message));
}
inline Status UsageError(std::string message) {
  return Status(StatusCode::kUsage, std::move(message));
}

// Maps a non-OK status onto the exit-code convention shared by the CLI and
// folearnd's wire codes: a bad invocation is EX_USAGE, missing input is
// EX_NOINPUT, everything malformed or mismatched is EX_DATAERR, and a
// refused-by-budget operation is EX_TEMPFAIL (75) — the classic "try
// again later" code, distinct from every data-error code so retry loops
// can key on it.
inline int StatusExitCode(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return 0;
    case StatusCode::kUsage:
      return kExitUsage;
    case StatusCode::kNotFound:
      return kExitNoInput;
    case StatusCode::kInvalidArgument:
    case StatusCode::kDataLoss:
      return kExitDataError;
    case StatusCode::kResourceExhausted:
      return kExitTempFail;
    case StatusCode::kUnavailable:
      return 1;
  }
  return 1;
}

// A Status or a value. Dereferencing a non-OK StatusOr is a programming
// error (CHECK): callers must test ok() first.
template <typename T>
class StatusOr {
 public:
  StatusOr(Status status)  // NOLINT: implicit from error statuses
      : status_(std::move(status)) {
    FOLEARN_CHECK(!status_.ok())
        << "StatusOr constructed from OK status without a value";
  }
  StatusOr(T value)  // NOLINT: implicit from values
      : value_(std::move(value)) {}

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    FOLEARN_CHECK(ok()) << "value() on error status: " << status_.message();
    return *value_;
  }
  T& value() & {
    FOLEARN_CHECK(ok()) << "value() on error status: " << status_.message();
    return *value_;
  }
  T&& value() && {
    FOLEARN_CHECK(ok()) << "value() on error status: " << status_.message();
    return *std::move(value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  T&& operator*() && { return std::move(*this).value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace folearn

#endif  // FOLEARN_UTIL_STATUS_H_
