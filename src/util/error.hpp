// Error handling primitives for the MGG library.
//
// The library reports unrecoverable conditions (out-of-memory on a
// virtual device, malformed graph input, protocol violations between
// enactor threads) by throwing mgg::Error. Recoverable conditions are
// reported through Status return values where a caller is expected to
// react (e.g. just-enough allocation probing for capacity).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace mgg {

/// Coarse error category carried by mgg::Error and Status.
enum class Status : std::uint8_t {
  kOk = 0,
  kInvalidArgument,   ///< caller passed something nonsensical
  kOutOfMemory,       ///< device memory capacity exceeded
  kNotFound,          ///< named entity (dataset, partitioner, ...) unknown
  kIoError,           ///< file could not be read/parsed/written
  kInternal,          ///< framework invariant violated (a bug)
  kUnsupported,       ///< valid request the implementation does not handle
  kTimedOut,          ///< wall-clock deadline exceeded (stop deadline)
  kUnavailable,       ///< peer/device lost or permanently failing
  kResourceExhausted, ///< admission/queue capacity exceeded (load shed)
};

/// Human-readable name of a Status value.
constexpr std::string_view to_string(Status s) {
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kInvalidArgument: return "invalid_argument";
    case Status::kOutOfMemory: return "out_of_memory";
    case Status::kNotFound: return "not_found";
    case Status::kIoError: return "io_error";
    case Status::kInternal: return "internal";
    case Status::kUnsupported: return "unsupported";
    case Status::kTimedOut: return "timed_out";
    case Status::kUnavailable: return "unavailable";
    case Status::kResourceExhausted: return "resource_exhausted";
  }
  return "unknown";
}

/// Exception type thrown by the library for unrecoverable errors.
class Error : public std::runtime_error {
 public:
  Error(Status status, const std::string& message)
      : std::runtime_error(std::string(to_string(status)) + ": " + message),
        status_(status) {}

  Status status() const noexcept { return status_; }

 private:
  Status status_;
};

namespace detail {
[[noreturn]] inline void fail(Status s, const std::string& msg,
                              const char* file, int line) {
  throw Error(s, msg + " [" + file + ":" + std::to_string(line) + "]");
}
}  // namespace detail

}  // namespace mgg

/// Throw mgg::Error with the given status if `cond` is false.
#define MGG_CHECK(cond, status, msg)                                \
  do {                                                              \
    if (!(cond)) ::mgg::detail::fail((status), (msg), __FILE__, __LINE__); \
  } while (0)

/// Invariant check: failure indicates a bug in the framework itself.
#define MGG_ASSERT(cond, msg) \
  MGG_CHECK((cond), ::mgg::Status::kInternal, (msg))

/// Argument validation helper.
#define MGG_REQUIRE(cond, msg) \
  MGG_CHECK((cond), ::mgg::Status::kInvalidArgument, (msg))
