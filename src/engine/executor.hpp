// Wavefront executor: the CPU stand-in for the CUDA grid scheduler.
//
// The DP matrix is processed as strips (height alpha*T) x chunks (B column
// chunks). Tiles run on the dataflow scheduler (engine/sched.hpp), one
// ThreadPool job per run: each tile starts the moment its left-bus and
// top-bus inputs are published, on work-stealing deques, so a slow tile
// stalls only its own successors — there is no barrier between external
// diagonals.
//
// Post-processing is deterministic: tiles retire one at a time on whichever
// pool worker (or the caller) completes them, serialized by the scheduler,
// in the order a per-diagonal barrier would post-process them — ascending
// external diagonal s + b, then ascending strip. Every hook (tap segments, a
// kStop from on_tap, the first find_value hit, per-strip best folds,
// special-row flushes) and every RunStats counter therefore sees exactly the
// same sequence for any worker count, and an early stop counts the tiles up
// to the stopping tile and no others. When a run has no taps and no value
// probe, no hook can stop it and none can observe the interleaving of
// strips, so tiles retire strip by strip instead: the resulting hook
// sequence is the same (flushes in ascending strip order, each with the best
// over strips <= s), and the run keeps only window + 1 strips in flight
// instead of the B + 1 that diagonal retirement needs.
//
// Memory is linear: the horizontal bus holds n + 1 cells; each in-flight
// strip owns one rotating slot (window + 2 slots for strip retirement,
// B + 2 for diagonal retirement) holding two vertical-bus planes of
// alpha*T + 1 cells, its tile results and — only on special strips — the
// special row being captured (n + 1 cells). With strip retirement at most
// window + 2 special rows are ever held; Stage 1 never keeps more than that
// many rows in memory however many blocks B the grid has (paper §IV-B: the
// special rows go from the horizontal bus to disk).
//
// Thread-safety discipline: the executor itself owns no atomics and no
// locks. Every cross-thread hand-off is delegated to the scheduler
// (engine/sched.hpp) whose shared state carries CUDALIGN_GUARDED_BY
// annotations and `// order:` justifications (check/annotations.hpp;
// enforced by cudalint's concurrency rule pack) — tile data itself stays
// plain because the scheduler edges order it, as the bus auditor
// (check/bus_audit.hpp) verifies dynamically.
//
// Cells delegation (paper §III-C) note: on the GPU, delegation skews block
// shapes so the wavefront never drains between external diagonals. The
// dataflow scheduler gets the same effect for free — idle workers pick up any
// ready tile — so the executor models delegation's *effect* (full
// parallelism, identical cell counts) rather than its GPU-register mechanics.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "engine/grid.hpp"
#include "engine/kernels.hpp"

namespace cudalign::check {
class BusAuditor;
}

namespace cudalign::engine {

/// The one tile executor. Nothing reads this type: it survives only because
/// the benchmark driver (perfbench/main.cpp) assigns the fields that carry
/// it — ProblemSpec::executor, core::Stage1Config::executor and
/// core::PipelineOptions::executor. Delete the enum and the three fields
/// together with those assignments.
enum class ExecutorKind : std::uint8_t {
  kDataflow,
};

struct ProblemSpec {
  seq::SequenceView a;  ///< Rows (the problem's local orientation).
  seq::SequenceView b;  ///< Columns.
  Recurrence recurrence;
  GridSpec grid;

  /// Block pruning (the optimization the CUDAlign lineage added after this
  /// paper): in local mode, skip a tile when even a perfect-match
  /// continuation of its best incoming bus value cannot *strictly* beat the
  /// pruning bound. The bound is the *ancestor closure*: the best tile score
  /// seen anywhere in the tile's ancestor rectangle (strips <= s, chunks
  /// <= b), seeded with initial_best on resume — a function of the
  /// dependency DAG alone, so prune decisions are identical for any worker
  /// count (a global evolving best would make them schedule-dependent).
  /// Exact: a tile containing any cell of an optimal alignment has bound >=
  /// optimum >= closure (the path itself gains optimum - prefix with at most
  /// min(m - r0, n - c0) diagonal steps), so it is never pruned, and pruned
  /// tiles publish valid lower bounds (H = 0) on their buses. Only meaningful with kLocal; rejected
  /// with taps or probes.
  bool block_pruning = false;

  /// Resume support (checkpoint/resume, DESIGN.md "Checkpoint & resume"):
  /// start the wavefront at vertex row `start_row` instead of row 0. Must be
  /// a multiple of the grid's strip height and is only meaningful with
  /// `initial_hbus` — the complete (H, F) horizontal bus at that row, i.e. a
  /// restored special row of n+1 cells. Strip numbering stays *global* (strip
  /// k covers rows [k*strip_rows, (k+1)*strip_rows)), so special-row flushes
  /// of a resumed run land on exactly the rows an uninterrupted run flushes.
  Index start_row = 0;
  std::span<const BusCell> initial_hbus;

  /// Best-so-far carried across a resume (local mode). Merging is a total-
  /// order max (score desc, then row-major vertex), so re-merging candidates
  /// from recomputed cells is idempotent: the resumed run's final best is
  /// bit-identical to an uninterrupted run's.
  dp::LocalBest initial_best;

  /// Unread; kept only because perfbench/main.cpp assigns it (see
  /// ExecutorKind).
  ExecutorKind executor = ExecutorKind::kDataflow;
};

/// Hook verdict after observing a special row / tap segment.
enum class HookAction {
  kContinue,
  kStop,  ///< Stop scheduling further diagonals (orthogonal early exit).
};

struct Hooks {
  /// Flush every `special_row_interval` strips: on_special_row(row, cells,
  /// best_so_far) receives the complete (H, F) row at vertex row `row` (a
  /// multiple of the strip height, as in the paper) and the run's merged
  /// best (local mode) over every strip up to that row — everything a
  /// checkpoint needs to make the flush durable progress. Called on the
  /// retiring worker: serialized, in retirement order (ascending rows). The
  /// cells span lives in the strip's slot and is reused once the hook
  /// returns: copy it when deferring the write. 0 disables flushing.
  Index special_row_interval = 0;
  std::function<void(Index row, std::span<const BusCell> cells, const dp::LocalBest& best_so_far)>
      on_special_row;

  /// Column taps (ascending vertex columns in (0..n]): after each strip, the
  /// hook receives the (H, E) values at the tap column; entry k of the span
  /// is row first_row + k (inclusive). The row-0 boundary values are
  /// delivered once up front as a single-entry span with first_row = 0.
  /// Segments arrive on the retiring worker: serialized, in tile retirement
  /// order (ascending external diagonal, then strip); kStop ends the run at
  /// that tile.
  std::vector<Index> tap_columns;
  std::function<HookAction(Index col, Index first_row, std::span<const BusCell>)> on_tap;

  /// Probe: report the first cell whose H equals this value — first in tile
  /// retirement order, then row-major within the tile — then stop. A tile's
  /// hit is checked before its taps are delivered.
  std::optional<Score> find_value;

  /// Liveness reporting for long runs: called on the retiring worker
  /// (serialized, in retirement order) with (tiles retired, tiles total)
  /// after each retirement unit and at an early stop — monotone.
  std::function<void(Index done, Index total)> on_progress;

  /// Opt-in bus access auditor (check/bus_audit.hpp): when set, the executor
  /// reports every horizontal/vertical bus segment read and write with
  /// (strip, block, external diagonal, thread) coordinates and the auditor
  /// verifies the per-tile happens-before relation — write-once per pass,
  /// legal successor reads only, no read before its write. The caller
  /// inspects the auditor after the run. Null = no auditing (one branch per
  /// tile of overhead).
  check::BusAuditor* bus_audit = nullptr;
};

/// Per-kernel-variant tally (indexed by KernelId in RunStats::kernels).
struct KernelTally {
  Index tiles = 0;
  WideScore cells = 0;

  friend bool operator==(const KernelTally&, const KernelTally&) = default;
};

struct RunStats {
  WideScore cells = 0;        ///< DP cells actually computed.
  WideScore pruned_cells = 0; ///< Cells skipped by block pruning.
  Index pruned_tiles = 0;
  Index tiles = 0;
  /// Scheduler counters: tiles executed off another worker's deque, and
  /// idle scans that found every source empty (both 0 when the graph runs
  /// inline on one worker).
  Index tiles_stolen = 0;
  Index starvation_waits = 0;
  Index strips = 0;           ///< Strips fully completed.
  Index blocks_used = 0;      ///< B after the minimum-size fit.
  Index threads_used = 0;     ///< T (unchanged by the fit).
  std::size_t bus_bytes = 0;  ///< Peak bus memory (the engine's "VRAM").
  /// Bus traffic, tallied per tile as it retires (near-zero overhead; always
  /// on). Each tile performs one read and one write of its horizontal
  /// segment and of its vertical boundary — pruned tiles included, which
  /// scan their boundary for the bound and publish safe lower bounds — and
  /// special-row assembly re-reads each flushed horizontal segment. *_reads /
  /// *_writes count segments; *_bytes count payload moved in both directions.
  Index hbus_reads = 0, hbus_writes = 0;
  Index vbus_reads = 0, vbus_writes = 0;
  std::int64_t hbus_bytes = 0, vbus_bytes = 0;
  /// Time the retirement path spent inside the special-row flush hook: the
  /// synchronous write cost, or the copy + backpressure cost when the flush
  /// pipeline is asynchronous (core/stage1.cpp) — the compute-side I/O stall
  /// either way.
  double special_row_wait_seconds = 0;
  double seconds = 0;
  /// Tiles/cells per kernel variant (pruned tiles are not attributed).
  std::array<KernelTally, kKernelIdCount> kernels{};
};

/// "name=tiles/cells" per variant that ran, comma-separated ("" if none) —
/// the human-readable form of a per-variant tally array for logs and --stats
/// output (stages accumulate the same array shape in StageStats).
[[nodiscard]] std::string kernel_usage_summary(
    const std::array<KernelTally, kKernelIdCount>& kernels);
[[nodiscard]] std::string kernel_usage_summary(const RunStats& stats);

struct RunResult {
  dp::LocalBest best;          ///< kLocal mode: best H and its vertex.
  bool found = false;          ///< find_value probe hit.
  Index found_i = 0, found_j = 0;
  bool stopped_early = false;  ///< A tap returned kStop, or the probe hit.
  RunStats stats;
};

/// Runs the wavefront over the whole problem as one job on `pool` (default:
/// the shared pool): its workers plus the caller compute, or the caller
/// alone when called from inside one of its jobs (Stage 3's per-partition
/// runs). Hooks run on the retiring worker. Deterministic for any worker
/// count.
[[nodiscard]] RunResult run_wavefront(const ProblemSpec& spec, const Hooks& hooks,
                                      ThreadPool* pool = nullptr);

/// Test oracle: identical semantics to run_wavefront — hook sequence, early
/// stop, best and cells — computed by a plain dp::sweep_rows row sweep that
/// replays tile events in retirement order from the grid's cuts. No resume.
[[nodiscard]] RunResult run_reference(const ProblemSpec& spec, const Hooks& hooks);

}  // namespace cudalign::engine
