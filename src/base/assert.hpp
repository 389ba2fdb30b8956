// Lightweight contract checking for the strt library.
//
// STRT_REQUIRE  -- precondition on public API arguments; throws
//                  std::invalid_argument so callers can recover/test.
// STRT_ASSERT   -- internal invariant; throws strt::InternalError.  These
//                  stay enabled in release builds: every algorithm in this
//                  library is a soundness-critical analysis, and a silently
//                  wrong delay bound is worse than an aborted run.
// STRT_LIMIT    -- resource-budget guard (piece counts, horizon caps);
//                  throws strt::ResourceLimitError (a std::runtime_error)
//                  so callers can distinguish "input too big" from "input
//                  malformed" and from "library bug".
// STRT_DCHECK   -- expensive invariant check (full-curve monotonicity
//                  sweeps, cross-validation against a second computation).
//                  Compiled only when STRT_VALIDATE is defined (CMake
//                  option -DSTRT_VALIDATE=ON, exercised by a dedicated CI
//                  leg); expands to nothing otherwise -- the condition is
//                  not evaluated.
//
// Every failure message includes the failed expression text and the
// file:line of the check site.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace strt {

/// Raised when an internal invariant of the library is violated (a bug in
/// the library itself, never a user error).
class InternalError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Raised when an analysis would exceed a hard resource budget (e.g. the
/// min-plus piece cap).  The input is well-formed but too large/fine;
/// shrink the analysis horizon.
class ResourceLimitError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

namespace detail {

[[nodiscard]] inline std::string contract_message(const char* what,
                                                  const char* cond,
                                                  const char* file, int line,
                                                  const std::string& msg) {
  std::ostringstream os;
  os << what << ": " << cond << " at " << file << ':' << line;
  if (!msg.empty()) os << " -- " << msg;
  return os.str();
}

[[noreturn]] inline void require_failed(const char* cond, const char* file,
                                        int line, const std::string& msg) {
  throw std::invalid_argument(
      contract_message("precondition failed", cond, file, line, msg));
}

[[noreturn]] inline void assert_failed(const char* cond, const char* file,
                                       int line, const std::string& msg) {
  throw InternalError(
      contract_message("internal invariant violated", cond, file, line, msg));
}

[[noreturn]] inline void limit_failed(const char* cond, const char* file,
                                      int line, const std::string& msg) {
  throw ResourceLimitError(
      contract_message("resource limit exceeded", cond, file, line, msg));
}

}  // namespace detail
}  // namespace strt

#define STRT_REQUIRE(cond, msg)                                         \
  do {                                                                  \
    if (!(cond))                                                        \
      ::strt::detail::require_failed(#cond, __FILE__, __LINE__, (msg)); \
  } while (false)

#define STRT_ASSERT(cond, msg)                                         \
  do {                                                                 \
    if (!(cond))                                                       \
      ::strt::detail::assert_failed(#cond, __FILE__, __LINE__, (msg)); \
  } while (false)

#define STRT_LIMIT(cond, msg)                                         \
  do {                                                                \
    if (!(cond))                                                      \
      ::strt::detail::limit_failed(#cond, __FILE__, __LINE__, (msg)); \
  } while (false)

#if defined(STRT_VALIDATE)
#define STRT_DCHECK(cond, msg) STRT_ASSERT(cond, msg)
#else
#define STRT_DCHECK(cond, msg) \
  do {                         \
  } while (false)
#endif
