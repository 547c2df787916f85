// Dataflow tile scheduler: dependency-driven execution of the wavefront
// tile graph, with deterministic in-order retirement on the caller thread.
//
// Each tile (s, b) of the strips x blocks grid carries an atomic dependency
// counter — one unit per published input bus, left (s, b-1) and top
// (s-1, b) — and becomes runnable the moment the counter hits zero. Workers
// pull from per-thread work-stealing deques (bounded Chase-Lev; see
// WorkStealingDeque) seeded with tile (0, 0); completing a tile decrements
// its right and down successors and pushes any that became ready onto the
// finisher's own deque, so the frontier advances with no global barrier: a
// slow tile stalls only its own successors.
//
// Three pieces of protocol on top of the bare DAG:
//
//   * In-order retirement. Tiles are grouped into retirement *units*
//     (Retire below): whole strips, or external diagonals s + b. The caller
//     thread (the driver) is woken as each unit's last tile completes and
//     runs `unit_done(u)` for u = 0, 1, 2, ... — all deterministic
//     post-processing (stats folds, best merges, hook calls, special-row
//     flushes, checkpoint cursors) happens there, in a fixed order that does
//     not depend on the execution interleaving. Diagonal units reproduce
//     the post-processing order of a per-diagonal barrier exactly (ascending
//     diagonal, then ascending strip), which is what makes the first tap
//     kStop or probe hit schedule-independent.
//   * Window gating. A tile whose unit lies more than `window` units past
//     the last retired one is withheld (parked) until the driver catches up.
//     With strip units this only ever parks column-0 tiles and bounds
//     in-flight strips to window + 1; with diagonal units it bounds executed
//     but unretired tiles to window diagonals — the work an early stop
//     wastes — and in-flight strips to blocks + window. Every per-strip
//     resource the executor rotates (vertical-bus planes, result slots,
//     special-row buffers) is sized from that bound; without it a
//     depth-first column-0 chain could start O(strips) strips.
//   * Epoch-based quiescence. Completion is a monotone epoch counter
//     (tiles_done); workers spin down when it reaches the tile total or when
//     the stop flag rises (driver early-stop or a worker exception — the
//     first exception is captured and rethrown on the caller after all
//     workers have drained).
//
// With one worker the graph runs inline on the caller, unit by unit, with no
// thread at all — the path nested calls from inside a ThreadPool job take,
// so compute threads never exceed the pool's.
//
// Memory ordering: the dependency decrement is fetch_sub(acq_rel), so the
// worker that observes a counter hit zero has acquired every write both
// predecessor tiles published (bus segments, result slots); deque push/steal
// adds the usual release/acquire edge to whichever worker actually runs the
// tile. The per-unit remaining-tiles counter gives the driver the same
// guarantee for whole units. Everything a tile writes may therefore be
// plain (non-atomic) data. Every seq_cst or relaxed site in sched.cpp
// carries a `// order:` justification, and the run state's mutex-protected
// fields are CUDALIGN_GUARDED_BY-annotated — both enforced statically by
// cudalint's explicit-memory-order and guarded-by rules.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.hpp"

namespace cudalign::engine::sched {

/// Bounded single-owner work-stealing deque (Chase-Lev). The owner pushes
/// and pops at the bottom (LIFO); thieves steal from the top (FIFO). Fixed
/// power-of-two capacity: push() returns false when full and the caller
/// falls back to the shared injector queue, so the classic (fiddly) buffer
/// growth protocol is not needed. Elements are stored in atomic slots so the
/// benign push/steal overlap is data-race-free under TSan.
class WorkStealingDeque {
 public:
  explicit WorkStealingDeque(std::size_t capacity_pow2);

  /// Owner only. False = full (caller reroutes to the injector).
  bool push(std::int64_t value);
  /// Owner only. False = empty.
  bool pop(std::int64_t* out);
  /// Any thread. False = empty or lost the race for the last element.
  bool steal(std::int64_t* out);

 private:
  std::vector<std::atomic<std::int64_t>> buffer_;
  std::int64_t mask_;
  alignas(64) std::atomic<std::int64_t> top_{0};
  alignas(64) std::atomic<std::int64_t> bottom_{0};
};

/// What the driver retires as one unit, in ascending unit order.
enum class Retire : std::uint8_t {
  kStrips,     ///< Unit u = strip u: tiles (u, 0 .. blocks-1).
  kDiagonals,  ///< Unit u = external diagonal u: tiles (s, u - s), ascending s.
};

struct SchedOptions {
  Index strips = 0;
  Index blocks = 0;
  /// Worker threads; 1 runs the graph inline on the caller.
  int workers = 1;
  /// Units past the last retired one allowed to start (window gating above).
  Index window = 8;
  Retire retire = Retire::kStrips;

  [[nodiscard]] bool diagonal_units() const { return retire == Retire::kDiagonals; }
  [[nodiscard]] Index unit_count() const { return diagonal_units() ? strips + blocks - 1 : strips; }
  [[nodiscard]] Index unit_of(Index s, Index b) const { return diagonal_units() ? s + b : s; }
  /// Number of tiles in unit u.
  [[nodiscard]] Index unit_size(Index u) const {
    return diagonal_units() ? std::min(strips - 1, u) - std::max<Index>(0, u - blocks + 1) + 1
                            : blocks;
  }
  /// Calls f(s, b) for every tile of unit u, in retirement order.
  template <typename F>
  void for_each_tile(Index u, F&& f) const {
    if (!diagonal_units()) {
      for (Index b = 0; b < blocks; ++b) f(u, b);
      return;
    }
    for (Index s = std::max<Index>(0, u - blocks + 1); s <= std::min(strips - 1, u); ++s) {
      f(s, u - s);
    }
  }
};

/// Scheduler-level counters folded into RunStats (and from there into the
/// run report).
struct SchedStats {
  std::int64_t tiles_executed = 0;
  std::int64_t tiles_stolen = 0;     ///< Tiles taken off another worker's deque.
  std::int64_t starvation_waits = 0; ///< Idle scans that found every source empty.
};

/// Executes `body(s, b, worker)` for every tile of the grid, honoring the
/// left + top dependency edges. `unit_done(u)` runs on the *caller* thread in
/// ascending unit order as units complete; returning false stops the run
/// (remaining tiles are abandoned). Worker threads are spawned per call — the
/// executor's thread pool cannot host them because its caller participates
/// in every parallel_for, and here the caller must stay free to act as the
/// driver. Exceptions thrown by `body` or `unit_done` stop the run and are
/// rethrown on the caller.
SchedStats run_tile_graph(const SchedOptions& options,
                          const std::function<void(Index s, Index b, int worker)>& body,
                          const std::function<bool(Index unit)>& unit_done);

}  // namespace cudalign::engine::sched
