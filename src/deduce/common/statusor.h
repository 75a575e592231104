#ifndef DEDUCE_COMMON_STATUSOR_H_
#define DEDUCE_COMMON_STATUSOR_H_

#include <cassert>
#include <optional>
#include <utility>

#include "deduce/common/status.h"

namespace deduce {

/// Holds either a value of type T or an error Status.
///
/// Typical use:
/// \code
///   StatusOr<Program> p = ParseProgram(text);
///   if (!p.ok()) return p.status();
///   Use(p.value());
/// \endcode
template <typename T>
class StatusOr {
 public:
  /// Constructs from an error status. Must not be OK.
  StatusOr(Status status) : status_(std::move(status)) {  // NOLINT
    assert(!status_.ok() && "StatusOr(Status) requires an error status");
    if (status_.ok()) {
      status_ = Status::Internal("StatusOr constructed from OK status");
    }
  }
  /// Constructs from a value.
  StatusOr(T value) : value_(std::move(value)) {}  // NOLINT
  /// Constructs the value in place from `args`.
  template <typename... Args>
  explicit StatusOr(std::in_place_t, Args&&... args)
      : value_(std::in_place, std::forward<Args>(args)...) {}

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  /// Returns the value or a fallback if this holds an error.
  T value_or(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

 private:
  Status status_;
  std::optional<T> value_;
};

/// Evaluates `expr` (a StatusOr), propagating an error or assigning the
/// value to `lhs`. Requires the enclosing function to return Status (or a
/// StatusOr).
#define DEDUCE_ASSIGN_OR_RETURN(lhs, expr)            \
  DEDUCE_ASSIGN_OR_RETURN_IMPL(                       \
      DEDUCE_STATUS_CONCAT(_status_or_, __LINE__), lhs, expr)

#define DEDUCE_STATUS_CONCAT_INNER(a, b) a##b
#define DEDUCE_STATUS_CONCAT(a, b) DEDUCE_STATUS_CONCAT_INNER(a, b)

#define DEDUCE_ASSIGN_OR_RETURN_IMPL(tmp, lhs, expr) \
  auto tmp = (expr);                                 \
  if (!tmp.ok()) return tmp.status();                \
  lhs = std::move(tmp).value()

}  // namespace deduce

#endif  // DEDUCE_COMMON_STATUSOR_H_
