#ifndef PCPDA_COMMON_STATUS_H_
#define PCPDA_COMMON_STATUS_H_

#include <optional>
#include <string>
#include <utility>

#include "common/check.h"

namespace pcpda {

/// Error category for recoverable failures (configuration and input
/// validation). Invariant violations use PCPDA_CHECK instead.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kFailedPrecondition,
  kOutOfRange,
  kAlreadyExists,
  kInternal,
  /// A time or tick budget ran out before the operation finished (the
  /// runner's per-job watchdog; a partial result is not trustworthy).
  kDeadlineExceeded,
};

const char* ToString(StatusCode code);

/// Lightweight Status in the RocksDB/absl style: cheap to pass by value,
/// carries a code and a message. The project does not use exceptions.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  std::string ToString() const;

  friend bool operator==(const Status&, const Status&) = default;

 private:
  StatusCode code_;
  std::string message_;
};

/// Either a value or an error Status. Minimal StatusOr: access to the value
/// of a non-ok result is a checked failure. T need not be default
/// constructible.
template <typename T>
class StatusOr {
 public:
  StatusOr(Status status)  // NOLINT: implicit by design, mirrors absl
      : status_(std::move(status)) {
    PCPDA_CHECK_MSG(!status_.ok(), "StatusOr constructed from OK status");
  }
  StatusOr(T value)  // NOLINT: implicit by design, mirrors absl
      : value_(std::move(value)) {}

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    PCPDA_CHECK_MSG(ok(), status_.ToString().c_str());
    return *value_;
  }
  T& value() & {
    PCPDA_CHECK_MSG(ok(), status_.ToString().c_str());
    return *value_;
  }
  T&& value() && {
    PCPDA_CHECK_MSG(ok(), status_.ToString().c_str());
    return *std::move(value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_;
  std::optional<T> value_;
};

/// Propagates a non-ok Status to the caller.
#define PCPDA_RETURN_IF_ERROR(expr)          \
  do {                                       \
    ::pcpda::Status _st = (expr);            \
    if (!_st.ok()) return _st;               \
  } while (0)

}  // namespace pcpda

#endif  // PCPDA_COMMON_STATUS_H_
