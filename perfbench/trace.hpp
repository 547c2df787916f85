// In-memory span recorder for the traced benchmark run.
//
// The benchmark wraps its own calls into each library layer in spans (name,
// start, end, parent, run id); nothing inside the library is instrumented.
// Spans stay in memory until the run ends, then go out as a Chrome-trace
// JSON file (chrome://tracing, Perfetto) and as a self-time table.
#pragma once

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  double start = 0;  ///< Seconds since the recorder was created.
  double end = 0;
  int parent = -1;   ///< Index of the enclosing span, -1 for a root.
  int run = 0;       ///< Spans of one pipeline call or probe share a run id.
};

class Trace {
 public:
  Trace() : origin_(Clock::now()) {}

  /// Opens a span under the innermost open span (a root when none is open).
  int open(std::string name, int run);
  void close(int id) noexcept;

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
  [[nodiscard]] double duration(int id) const;
  /// Duration minus the part of the interval its child spans cover.
  [[nodiscard]] double self_seconds(int id) const;

  /// Writes every span as a Chrome-trace complete event ("ph": "X"; one
  /// track per run id). `metadata` is a JSON object stored as otherData.
  void write_chrome(const std::string& path, const std::string& metadata) const;

  /// Prints, for the root span `root`, each child's total and self time and
  /// the root's own remainder as "unattributed".
  void print_self_times(std::FILE* out, int root) const;

 private:
  using Clock = std::chrono::steady_clock;

  [[nodiscard]] std::vector<int> children(int id) const;

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Opens a span for the lifetime of the object.
class ScopedSpan {
 public:
  ScopedSpan(Trace& trace, std::string name, int run)
      : trace_(trace), id_(trace.open(std::move(name), run)) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() { trace_.close(id_); }

  [[nodiscard]] int id() const noexcept { return id_; }

 private:
  Trace& trace_;
  int id_;
};

}  // namespace perfbench
