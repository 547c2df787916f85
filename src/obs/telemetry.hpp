// Hierarchical run telemetry: a tree of wall-time spans recorded against a
// monotonic clock (pipeline -> stage -> iteration / phase).
//
// Near-zero overhead when idle: every producer holds a `Telemetry*` that is
// null unless the caller opted in (--report), so the disabled path is one
// pointer test. The recorder itself is caller-thread-only by design — stages
// open spans between engine runs, on the caller thread; never share one
// Telemetry across concurrently-running producers.
#pragma once

#include <chrono>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace cudalign::obs {

/// One node of the span tree. `seconds` is the span's own wall time
/// (inclusive of children, as measured between begin and end).
struct Span {
  std::string name;
  double seconds = 0;
  std::vector<Span> children;
};

class Telemetry {
 public:
  Telemetry() : started_(Clock::now()) {}

  /// Opens a child span of the innermost open span (of the root when none).
  void begin(std::string name);

  /// Closes the innermost open span, recording its wall time. Throws when no
  /// span is open — unbalanced instrumentation is a bug, not a state.
  void end();

  /// Number of currently open spans (instrumentation sanity checks).
  [[nodiscard]] std::size_t open_spans() const noexcept { return stack_.size(); }

  /// Closes any still-open spans, stamps the root's total wall time, and
  /// returns the tree. Idempotent; further begin/end calls keep recording.
  const Span& finish();

  [[nodiscard]] const Span& root() const noexcept { return root_; }

  /// The span tree as JSON: {"name", "seconds", "children": [...]}; children
  /// are omitted when empty. Call after finish().
  [[nodiscard]] Json to_json() const;

 private:
  using Clock = std::chrono::steady_clock;

  struct Frame {
    Span* span;  ///< Element of its parent's children; stable while open (the
                 ///< parent only grows its children list while it is itself
                 ///< the innermost span).
    Clock::time_point start;
  };

  Span root_{"run", 0, {}};
  std::vector<Frame> stack_;
  Clock::time_point started_;
};

/// RAII span; tolerates a null recorder so call sites stay branch-free.
class ScopedSpan {
 public:
  ScopedSpan(Telemetry* telemetry, std::string name) : telemetry_(telemetry) {
    if (telemetry_ != nullptr) telemetry_->begin(std::move(name));
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() {
    if (telemetry_ != nullptr) telemetry_->end();
  }

 private:
  Telemetry* telemetry_;
};

}  // namespace cudalign::obs
