// Error handling primitives shared by every mog subsystem.
//
// Library code throws mog::Error (derived from std::runtime_error) for
// recoverable misuse; MOG_CHECK is the argument-validation macro used at
// public API boundaries. Internal invariants use MOG_ASSERT, which is active
// in all build types (simulation correctness matters more than the nanoseconds
// saved by disabling it).
#pragma once

#include <stdexcept>
#include <string>

namespace mog {

/// Base exception for all errors raised by this library.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {
/// Throws the Error that MOG_CHECK / MOG_ASSERT report. Out of line, with a
/// const char* overload so a literal message builds no std::string at the
/// check site: code compiled for another x86-64 level (the device kernels)
/// then carries no weak copy of this or of std::string's members.
[[noreturn]] void fail(const char* kind, const char* cond, const char* file,
                       int line, const std::string& msg);
[[noreturn]] void fail(const char* kind, const char* cond, const char* file,
                       int line, const char* msg);
}  // namespace detail

}  // namespace mog

/// Validate a caller-supplied condition; throws mog::Error when violated.
#define MOG_CHECK(cond, msg)                                             \
  do {                                                                   \
    if (!(cond)) {                                                       \
      ::mog::detail::fail("precondition violated", #cond, __FILE__,      \
                          __LINE__, (msg));                              \
    }                                                                    \
  } while (false)

/// Internal invariant; always on.
#define MOG_ASSERT(cond, msg)                                            \
  do {                                                                   \
    if (!(cond)) {                                                       \
      ::mog::detail::fail("internal invariant violated", #cond,          \
                          __FILE__, __LINE__, (msg));                    \
    }                                                                    \
  } while (false)
