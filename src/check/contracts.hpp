// Contract macros: the one place every invariant in cudalign is spelled out.
//
// Three tiers, by who is at fault and what it costs to verify:
//
//   CUDALIGN_CHECK(cond, msg...)   user-facing precondition (bad input, bad
//                                  configuration). Always on, always throws
//                                  cudalign::Error — callers can catch it.
//   CUDALIGN_ASSERT(cond, msg...)  internal invariant; a failure is a library
//                                  bug. Always on (alignment-correctness bugs
//                                  are silent-data-corruption bugs) and always
//                                  throws cudalign::Error: the code after a
//                                  failed assert never runs on a broken
//                                  invariant.
//   CUDALIGN_DCHECK(cond, msg...)  internal invariant too expensive for
//                                  release hot loops (per-cell, per-lane
//                                  checks). Compiled out when NDEBUG is
//                                  defined unless CUDALIGN_FORCE_DCHECKS
//                                  overrides; otherwise identical to
//                                  CUDALIGN_ASSERT.
//
// Messages are optional variadic stream parts, formatted lazily — only on
// failure: CUDALIGN_ASSERT(i < n, "row ", i, " of ", n).
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace cudalign {

/// The library's one exception type: user-facing failures (bad input, I/O,
/// configuration) and broken internal contracts.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

namespace check {

namespace detail {

/// Lazy stream formatting of the optional message parts.
template <typename... Parts>
[[nodiscard]] std::string format_message(Parts&&... parts) {
  if constexpr (sizeof...(Parts) == 0) {
    return {};
  } else {
    std::ostringstream os;
    (os << ... << parts);
    return os.str();
  }
}

/// CUDALIGN_CHECK failure: unconditionally throws cudalign::Error.
[[noreturn]] void fail_check(const char* cond, const char* file, int line,
                             const std::string& msg);

/// CUDALIGN_ASSERT / CUDALIGN_DCHECK failure: unconditionally throws
/// cudalign::Error.
[[noreturn]] void fail_assert(const char* kind, const char* cond, const char* file, int line,
                              const std::string& msg);

}  // namespace detail
}  // namespace check
}  // namespace cudalign

/// Validates user-facing preconditions; throws cudalign::Error on failure.
#define CUDALIGN_CHECK(cond, ...)                                          \
  do {                                                                     \
    if (!(cond)) {                                                         \
      ::cudalign::check::detail::fail_check(                               \
          #cond, __FILE__, __LINE__,                                       \
          ::cudalign::check::detail::format_message(__VA_ARGS__));         \
    }                                                                      \
  } while (0)

/// Internal invariant; a failure indicates a library bug. Throws
/// cudalign::Error.
#define CUDALIGN_ASSERT(cond, ...)                                         \
  do {                                                                     \
    if (!(cond)) {                                                         \
      ::cudalign::check::detail::fail_assert(                              \
          "assert", #cond, __FILE__, __LINE__,                             \
          ::cudalign::check::detail::format_message(__VA_ARGS__));         \
    }                                                                      \
  } while (0)

/// Hot-loop invariant: active in debug builds (or when CUDALIGN_FORCE_DCHECKS
/// is defined), compiled to nothing in release — the condition stays
/// type-checked but is never evaluated.
#if !defined(NDEBUG) || defined(CUDALIGN_FORCE_DCHECKS)
#define CUDALIGN_DCHECK(cond, ...)                                         \
  do {                                                                     \
    if (!(cond)) {                                                         \
      ::cudalign::check::detail::fail_assert(                              \
          "dcheck", #cond, __FILE__, __LINE__,                             \
          ::cudalign::check::detail::format_message(__VA_ARGS__));         \
    }                                                                      \
  } while (0)
#else
#define CUDALIGN_DCHECK(cond, ...) \
  do {                             \
    if (false && (cond)) {         \
    }                              \
  } while (0)
#endif
