// Dataflow tile scheduler: dependency-driven execution of the wavefront
// tile graph on a ThreadPool, with deterministic in-order retirement.
//
// Each tile (s, b) of the strips x blocks grid carries an atomic dependency
// counter — one unit per published input bus, left (s, b-1) and top
// (s-1, b) — and becomes runnable the moment the counter hits zero. The
// graph runs as one ThreadPool::parallel_for job: every participant (the
// pool's workers and the caller) runs one worker loop over per-participant
// work-stealing deques (bounded Chase-Lev; see WorkStealingDeque) seeded
// with tile (0, 0). Completing a tile decrements its right and down
// successors and pushes any that became ready onto the finisher's own deque,
// so the frontier advances with no global barrier: a slow tile stalls only
// its own successors.
//
// Three pieces of protocol on top of the bare DAG:
//
//   * In-order retirement. `retire(s, b)` runs once per tile, in a fixed
//     order (Retire below): strip-major, or by external diagonal s + b and
//     then ascending strip. All deterministic post-processing (stats folds,
//     best merges, hook calls, special-row flushes, checkpoint cursors)
//     happens there, so it does not depend on the execution interleaving.
//     Diagonal order reproduces the post-processing order of a per-diagonal
//     barrier exactly, which is what makes the first tap kStop or probe hit
//     schedule-independent. There is no driver thread: the worker that
//     completes a tile marks it done under the scheduler mutex and, if no
//     other worker is retiring, becomes the retirer. It retires tiles one at
//     a time until the next tile in order is not done yet, then hands the
//     role back under the same mutex — so retire calls are serialized, in
//     order, and no completed tile is ever left unretired.
//   * Window gating. A tile whose unit (a strip, or a diagonal) lies more
//     than `window` units past the oldest unretired one is withheld (parked)
//     until retirement catches up. With strip units this only ever parks
//     column-0 tiles and bounds in-flight strips to window + 1; with
//     diagonal units it bounds executed but unretired tiles to window
//     diagonals — the work an early stop wastes — and in-flight strips to
//     blocks + window. Every per-strip resource the executor rotates
//     (vertical-bus planes, result slots, special-row buffers) is sized from
//     that bound; without it a depth-first column-0 chain could start
//     O(strips) strips.
//   * Epoch-based quiescence. Completion is a monotone epoch counter
//     (tiles_done); workers spin down when it reaches the tile total or when
//     the stop flag rises (a retire that returned false, or an exception
//     from a tile or a retire — the first one is captured and rethrown on
//     the caller after the job has joined).
//
// One code path serves 1 to N participants. A run is single-threaded,
// inline on the caller, when it is nested inside a pool job (Stage 3's
// per-partition runs), when the pool has one worker, or when the grid has
// one chunk (a pure chain) — so compute threads never exceed the pool's.
//
// Memory ordering: the dependency decrement is fetch_sub(acq_rel), so the
// worker that observes a counter hit zero has acquired every write both
// predecessor tiles published (bus segments, result slots); deque push/steal
// adds the usual release/acquire edge to whichever worker actually runs the
// tile. The done mark and the retiring role live under the scheduler mutex,
// which orders each tile's writes before its retire call and each retire
// call before the next. Everything a tile writes may therefore be plain
// (non-atomic) data. Every seq_cst or relaxed site in sched.cpp carries an
// `// order:` justification, and the run state's mutex-protected fields are
// CUDALIGN_GUARDED_BY-annotated — both enforced statically by cudalint's
// explicit-memory-order and guarded-by rules.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/thread_pool.hpp"
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

/// The order tiles retire in. A unit is what the admission window counts.
enum class Retire : std::uint8_t {
  kStrips,     ///< Strip-major; unit u = strip u: tiles (u, 0 .. blocks-1).
  kDiagonals,  ///< Unit u = external diagonal u: tiles (s, u - s), ascending s.
};

/// Grid shape, window and retirement order. Tiles are identified as
/// s * blocks + b; all index arithmetic is 64-bit.
struct SchedOptions {
  Index strips = 0;
  Index blocks = 0;
  /// Units past the oldest unretired one allowed to start (window gating).
  Index window = 8;
  Retire retire = Retire::kStrips;

  [[nodiscard]] bool diagonal_units() const { return retire == Retire::kDiagonals; }
  [[nodiscard]] std::int64_t tile_count() const { return strips * blocks; }
  [[nodiscard]] std::int64_t tile_id(Index s, Index b) const { return s * blocks + b; }
  [[nodiscard]] Index unit_of(std::int64_t tile) const {
    return diagonal_units() ? tile / blocks + tile % blocks : tile / blocks;
  }
  /// The tile retired after `tile`; tile_count() after the last one.
  [[nodiscard]] std::int64_t next_in_order(std::int64_t tile) const {
    if (!diagonal_units()) return tile + 1;
    const Index s = tile / blocks;
    const Index b = tile % blocks;
    if (s + 1 < strips && b > 0) return tile + blocks - 1;  // (s + 1, b - 1)
    const Index d = s + b + 1;  // First tile of the next diagonal.
    if (d > strips + blocks - 2) return tile_count();
    const Index first = std::max<Index>(0, d - blocks + 1);
    return tile_id(first, d - first);
  }
};

/// Scheduler-level counters folded into RunStats (and from there into the
/// run report).
struct SchedStats {
  std::int64_t tiles_executed = 0;
  std::int64_t tiles_stolen = 0;     ///< Tiles taken off another worker's deque.
  std::int64_t starvation_waits = 0; ///< Idle scans that found every source empty.
};

/// Compute threads a tile graph of `blocks` chunks runs on from this thread:
/// the pool's workers plus the caller, or 1 (inline on the caller) inside a
/// pool job, on a one-worker pool or for a one-chunk grid.
[[nodiscard]] int graph_threads(const ThreadPool& pool, Index blocks);

/// Executes `body(s, b, worker)` for every tile of the grid on
/// graph_threads(pool, blocks) threads, honoring the left + top dependency
/// edges. `retire(s, b)` runs once per completed tile, in retirement order,
/// serialized, on whichever worker is retiring; returning false stops the
/// run at that tile (remaining tiles are abandoned). Exceptions thrown by
/// `body` or `retire` stop the run and are rethrown on the caller.
SchedStats run_tile_graph(const SchedOptions& options, ThreadPool& pool,
                          const std::function<void(Index s, Index b, int worker)>& body,
                          const std::function<bool(Index s, Index b)>& retire);

}  // namespace cudalign::engine::sched
