// util::Status / util::StatusOr — error propagation for the fallible
// layers (today: the durable store's IO path).
//
// The library's historical contract is PNN_CHECK: an invariant violation
// aborts, because a wrong answer is worse than no process. That is right
// for logic errors and disk corruption, but wrong for *environmental*
// failures — a transient ENOSPC during an op-log append must not kill a
// process that can still answer every read it has. Status is how such a
// failure travels up from the syscall to the layer that can decide
// (store::ShardedStore degrades a shard to read-only; serve answers
// kUnavailable).
//
// Deliberately tiny: a code, a message, and the errno when one exists.
// Not a general-purpose absl::Status clone — only what the store needs.

#ifndef PNN_UTIL_STATUS_H_
#define PNN_UTIL_STATUS_H_

#include <cstring>
#include <optional>
#include <string>
#include <utility>

#include "src/util/check.h"

namespace pnn {
namespace util {

enum class StatusCode : uint8_t {
  kOk = 0,
  /// A syscall failed (write, fdatasync, rename, ...). Usually transient
  /// (ENOSPC, EIO) — the store degrades and re-probes rather than aborts.
  kIoError = 1,
  /// Data that exists but cannot be trusted (CRC mismatch beyond a torn
  /// tail). Recovery treats this as fatal, not degradable.
  kCorruption = 2,
  /// The operation cannot run in the current state (a degraded store
  /// refusing mutations). Maps to api::StatusCode::kUnavailable.
  kUnavailable = 3,
};

class Status {
 public:
  Status() = default;

  static Status Ok() { return Status(); }
  /// `sys_errno` 0 = no errno context (a logical failure on the IO path,
  /// e.g. write(2) returning 0).
  static Status IoError(std::string message, int sys_errno = 0) {
    return Status(StatusCode::kIoError, std::move(message), sys_errno);
  }
  static Status Corruption(std::string message) {
    return Status(StatusCode::kCorruption, std::move(message), 0);
  }
  static Status Unavailable(std::string message) {
    return Status(StatusCode::kUnavailable, std::move(message), 0);
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }
  int sys_errno() const { return errno_; }

  std::string ToString() const {
    if (ok()) return "OK";
    std::string out;
    switch (code_) {
      case StatusCode::kOk: break;
      case StatusCode::kIoError: out = "IO_ERROR: "; break;
      case StatusCode::kCorruption: out = "CORRUPTION: "; break;
      case StatusCode::kUnavailable: out = "UNAVAILABLE: "; break;
    }
    out += message_;
    if (errno_ != 0) {
      out += " (";
      out += std::strerror(errno_);
      out += ")";
    }
    return out;
  }

 private:
  Status(StatusCode code, std::string message, int sys_errno)
      : code_(code), message_(std::move(message)), errno_(sys_errno) {}

  StatusCode code_ = StatusCode::kOk;
  std::string message_;
  int errno_ = 0;
};

/// A value or the Status explaining its absence. value() asserts ok() —
/// use it where failure is a programming error (tests, startup paths that
/// abort anyway), and status()/ok() where failure is handled.
template <typename T>
class StatusOr {
 public:
  StatusOr(T value) : value_(std::move(value)) {}       // NOLINT: implicit by design,
  StatusOr(Status status) : status_(std::move(status)) {  // NOLINT: mirrors absl.
    PNN_CHECK_MSG(!status_.ok(), "StatusOr constructed from an OK status");
  }

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  T& value() {
    PNN_CHECK_MSG(ok(), "StatusOr::value() on an error status");
    return *value_;
  }
  const T& value() const {
    PNN_CHECK_MSG(ok(), "StatusOr::value() on an error status");
    return *value_;
  }
  T& operator*() { return value(); }
  const T& operator*() const { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

 private:
  Status status_;
  std::optional<T> value_;
};

/// Early-return plumbing for Status-returning functions.
#define PNN_RETURN_IF_ERROR(expr)                     \
  do {                                                \
    ::pnn::util::Status pnn_status_ = (expr);         \
    if (!pnn_status_.ok()) return pnn_status_;        \
  } while (0)

}  // namespace util
}  // namespace pnn

#endif  // PNN_UTIL_STATUS_H_
