#include "engine/executor.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <optional>
#include <utility>
#include <array>

#include "check/bus_audit.hpp"
#include "check/checked.hpp"
#include "common/timer.hpp"
#include "dp/linear.hpp"
#include "engine/kernel_registry.hpp"
#include "engine/sched.hpp"

namespace cudalign::engine {

namespace {

using dp::AlignMode;

/// Merge rule shared with the reference: higher score wins; ties break toward
/// the lexicographically smallest vertex (row-major first occurrence).
void merge_best(dp::LocalBest& best, const dp::LocalBest& cand) {
  if (cand.score <= 0) return;
  if (cand.score > best.score ||
      (cand.score == best.score && cand.score > 0 &&
       (cand.i < best.i || (cand.i == best.i && cand.j < best.j)))) {
    best = cand;
  }
}

}  // namespace

RunResult run_wavefront(const ProblemSpec& spec, const Hooks& hooks, ThreadPool* pool) {
  spec.recurrence.scheme.validate();
  CUDALIGN_CHECK(hooks.special_row_interval == 0 || hooks.on_special_row,
                 "special-row flushing requires an on_special_row sink");
  CUDALIGN_CHECK(hooks.tap_columns.empty() || hooks.on_tap,
                 "tap columns require an on_tap hook");
  CUDALIGN_CHECK(std::is_sorted(hooks.tap_columns.begin(), hooks.tap_columns.end()),
                 "tap columns must be ascending");
  // Taps and the probe are the only hooks that can stop a run or observe the
  // order tiles retire in (executor.hpp).
  const bool ordered = !hooks.tap_columns.empty() || hooks.find_value.has_value();
  if (spec.block_pruning) {
    CUDALIGN_CHECK(spec.recurrence.mode == AlignMode::kLocal,
                   "block pruning requires local mode (a global run has no best bound)");
    CUDALIGN_CHECK(!ordered, "block pruning cannot be combined with taps or value probes");
  }
  if (pool == nullptr) pool = &ThreadPool::shared();

  // kernel_override() and active_simd_isa() throw on a bad CUDALIGN_KERNEL /
  // CUDALIGN_SIMD value; resolving them here fails the run before any tile
  // work starts.
  (void)kernel_override();
  (void)active_simd_isa();

  const Index m = check::checked_cast<Index>(spec.a.size());
  const Index n = check::checked_cast<Index>(spec.b.size());
  for (std::size_t t = 0; t < hooks.tap_columns.size(); ++t) {
    const Index c = hooks.tap_columns[t];
    CUDALIGN_CHECK(c >= 1 && c <= n, "tap columns must be in [1, n]");
    CUDALIGN_CHECK(t == 0 || hooks.tap_columns[t - 1] < c, "tap columns must be unique");
  }

  Timer timer;
  RunResult result;
  const GridSpec grid = fit_to_width(spec.grid, n);
  const Index strip_rows = grid.strip_rows();
  const Index row0 = spec.start_row;
  if (row0 != 0 || !spec.initial_hbus.empty()) {
    CUDALIGN_CHECK(row0 >= 0 && row0 < m, "resume start row must lie inside the matrix");
    CUDALIGN_CHECK(row0 % strip_rows == 0,
                   "resume start row must be a strip boundary (a flushed special row)");
    CUDALIGN_CHECK(static_cast<Index>(spec.initial_hbus.size()) == n + 1,
                   "resume needs the complete restored horizontal bus (n+1 cells)");
    CUDALIGN_CHECK(!ordered,
                   "resume cannot be combined with taps or value probes (their row-0 "
                   "boundary delivery would not reflect the restored bus)");
  }
  const Index base_strip = row0 / strip_rows;
  const Index strips = (m - row0 + strip_rows - 1) / strip_rows;
  const Index blocks = std::max<Index>(1, std::min(grid.blocks, n));
  result.best = spec.initial_best;
  result.stats.blocks_used = blocks;
  result.stats.threads_used = grid.threads;
  const Recurrence& rec = spec.recurrence;

  // Row-0 tap delivery (boundary vertices, before any strip).
  for (const Index col : hooks.tap_columns) {
    const BusCell entry{rec.top_boundary(col).h, rec.top_boundary_e(col)};
    if (hooks.on_tap(col, 0, std::span<const BusCell>(&entry, 1)) == HookAction::kStop) {
      result.stopped_early = true;
      result.stats.seconds = timer.seconds();
      return result;
    }
  }
  if (m == 0 || n == 0) {
    result.stats.seconds = timer.seconds();
    return result;
  }

  // Chunk boundaries (blocks near-equal column spans) and the taps each
  // chunk covers.
  std::vector<Index> cuts(static_cast<std::size_t>(blocks) + 1);
  for (Index b = 0; b <= blocks; ++b) {
    cuts[static_cast<std::size_t>(b)] = n * b / blocks;
  }
  std::vector<std::vector<Index>> chunk_taps(static_cast<std::size_t>(blocks));
  for (const Index col : hooks.tap_columns) {
    const auto it = std::lower_bound(cuts.begin(), cuts.end(), col);
    chunk_taps[static_cast<std::size_t>(it - cuts.begin() - 1)].push_back(col);
  }

  const int workers = sched::graph_threads(*pool, blocks);
  // Window in retirement units. Diagonal retirement keeps it at one
  // diagonal: tiles past an early stop are wasted, and Stage 2 stops every
  // run.
  const Index window = ordered ? 1 : std::max<Index>(4, 2 * static_cast<Index>(workers));
  // Per-strip slots rotate strip % wcap. Strip s starts only after units
  // 0 .. s - window - 1 retired, which with this wcap includes the last tile
  // of strip s - wcap (unit s - wcap, plus blocks - 1 under diagonal
  // retirement): a slot is never reused while its previous strip is still
  // running or unretired.
  const Index wcap = window + 2 + (ordered ? blocks - 1 : 0);

  check::BusAuditor* audit = hooks.bus_audit;
  if (audit != nullptr) audit->begin_run(n, strips, blocks, strip_rows, cuts, wcap);

  // Horizontal bus: (H, F) per column vertex, initialized to row `row0` — the
  // top boundary for a fresh run, the restored special row for a resume.
  std::vector<BusCell> hbus(static_cast<std::size_t>(n) + 1);
  if (!spec.initial_hbus.empty()) {
    std::copy(spec.initial_hbus.begin(), spec.initial_hbus.end(), hbus.begin());
  } else {
    for (Index j = 0; j <= n; ++j) hbus[static_cast<std::size_t>(j)] = rec.top_boundary(j);
  }
  if (audit != nullptr) audit->seed_horizontal();

  // Strip indices are *global* (offset by base_strip) for flushing, so a
  // resumed run flushes exactly the rows a fresh run would.
  auto strip_is_special = [&](Index s) {
    if (hooks.special_row_interval == 0) return false;
    const Index g = base_strip + s;
    const Index r1 = (g + 1) * strip_rows;
    return (g + 1) % hooks.special_row_interval == 0 && r1 < m;
  };

  /// Per-strip state: written by the strip's tiles, read by the retiring
  /// worker when they retire.
  struct StripSlot {
    /// Vertical bus (H, E) at the strip's current chunk boundary, two planes
    /// alternating by boundary parity: tile (s, b) reads plane b & 1 and
    /// writes plane (b + 1) & 1.
    std::array<std::vector<BusCell>, 2> vbus;
    std::vector<TileResult> results;
    std::vector<std::uint8_t> pruned;  ///< Allocated only under pruning.
    /// Pruning closure (see ProblemSpec::block_pruning): entry b is the best
    /// score over tile (s, b)'s ancestor rectangle plus the resume seed.
    /// Allocated only under pruning.
    std::vector<Score> closure;
    std::vector<BusCell> special_row;  ///< Filled only on special strips.
    dp::LocalBest best;                ///< Fold of the strip's retired tiles.
  };
  const std::size_t vbus_len = static_cast<std::size_t>(strip_rows) + 1;
  std::vector<StripSlot> slots(static_cast<std::size_t>(wcap));
  for (StripSlot& slot : slots) {
    for (auto& plane : slot.vbus) plane.resize(vbus_len);
    slot.results.resize(static_cast<std::size_t>(blocks));
    if (spec.block_pruning) {
      slot.pruned.assign(static_cast<std::size_t>(blocks), 0);
      slot.closure.assign(static_cast<std::size_t>(blocks), 0);
    }
  }
  auto slot_of = [&](Index s) -> StripSlot& { return slots[static_cast<std::size_t>(s % wcap)]; };
  result.stats.bus_bytes = (hbus.size() + slots.size() * 2 * vbus_len) * sizeof(BusCell);

  auto body = [&](Index s, Index b, int /*worker*/) {
    const Index r0 = row0 + s * strip_rows;
    const Index r1 = std::min(m, r0 + strip_rows);
    const Index c0 = cuts[static_cast<std::size_t>(b)];
    const Index c1 = cuts[static_cast<std::size_t>(b + 1)];
    const Index rows = r1 - r0;
    const Index d = s + b;  // External diagonal, for audit reports only.
    StripSlot& slot = slot_of(s);

    if (b == 0) {
      // Column-0 seeding happens on the worker that opens the strip.
      auto& buf = slot.vbus[0];
      for (Index i = r0; i <= r1; ++i) {
        buf[static_cast<std::size_t>(i - r0)] = rec.left_boundary(i);
      }
      if (audit != nullptr) audit->seed_vertical(s, rows);
      if (strip_is_special(s)) {
        slot.special_row.assign(static_cast<std::size_t>(n) + 1, BusCell{});
        slot.special_row[0] = BusCell{rec.left_boundary(r1).h, rec.left_boundary_f(r1)};
      }
    }

    TileJob job;
    job.r0 = r0;
    job.r1 = r1;
    job.c0 = c0;
    job.c1 = c1;
    job.a = spec.a;
    job.b = spec.b;
    job.recurrence = &rec;
    job.hbus = std::span<BusCell>(hbus).subspan(static_cast<std::size_t>(c0),
                                                static_cast<std::size_t>(c1 - c0) + 1);
    job.vbus_in = std::span<const BusCell>(slot.vbus[static_cast<std::size_t>(b & 1)])
                      .subspan(0, static_cast<std::size_t>(rows) + 1);
    job.vbus_out = std::span<BusCell>(slot.vbus[static_cast<std::size_t>((b + 1) & 1)])
                       .subspan(0, static_cast<std::size_t>(rows) + 1);
    job.tap_cols = chunk_taps[static_cast<std::size_t>(b)];
    job.track_best = rec.mode == AlignMode::kLocal;
    job.find_value = hooks.find_value;

    // Audit: the tile consumes its row-r0 horizontal segment and its
    // incoming vertical boundary before publishing anything (both the
    // kernel and the pruning bound-scan below read them).
    if (audit != nullptr) {
      audit->read_horizontal(s, b, d, c0, c1);
      audit->read_vertical(s, b, d, rows);
    }

    TileResult& tr = slot.results[static_cast<std::size_t>(b)];
    bool tile_pruned = false;
    Score closure_in = 0;
    if (spec.block_pruning) {
      // Plain (non-atomic) reads: the dependency edges order them after the
      // writes by (s - 1, b) and (s, b - 1).
      closure_in = spec.initial_best.score;
      if (s > 0) {
        closure_in = std::max(closure_in, slot_of(s - 1).closure[static_cast<std::size_t>(b)]);
      }
      if (b > 0) closure_in = std::max(closure_in, slot.closure[static_cast<std::size_t>(b - 1)]);
      if (closure_in > 0) {
        // Best incoming H across the tile's boundary (the corner arrives via
        // the vertical bus; hbus index 0 is the left neighbour's and stale).
        Score max_in = 0;  // Local mode: a fresh alignment can start anywhere.
        for (std::size_t k = 1; k < job.hbus.size(); ++k) {
          max_in = std::max(max_in, job.hbus[k].h);
        }
        for (const BusCell& cell : job.vbus_in) max_in = std::max(max_in, cell.h);
        const WideScore bound =
            max_in + static_cast<WideScore>(rec.scheme.match) * std::min(m - r0, n - c0);
        // Publish safe lower bounds and skip the kernel.
        tile_pruned = bound < closure_in;
        if (tile_pruned) {
          for (std::size_t k = 1; k < job.hbus.size(); ++k) job.hbus[k] = BusCell{0, kNegInf};
          for (auto& cell : job.vbus_out) cell = BusCell{0, kNegInf};
          tr = TileResult{};
        }
      }
      slot.pruned[static_cast<std::size_t>(b)] = tile_pruned ? 1 : 0;
    }
    if (!tile_pruned) {
      // Scratch is reused across tiles of the same worker thread.
      static thread_local TileScratch scratch;
      tr = run_tile(job, scratch);
    }
    if (audit != nullptr) {
      audit->write_horizontal(s, b, d, c0, c1);
      audit->write_vertical(s, b, d, rows);
    }
    if (spec.block_pruning) {
      slot.closure[static_cast<std::size_t>(b)] = std::max(closure_in, tr.best.score);
    }

    // Special-row capture must happen here, inside the tile: the down
    // successor (s + 1, b) may overwrite the hbus segment the moment this
    // body returns, long before the strip retires.
    if (strip_is_special(s)) {
      std::copy(hbus.begin() + c0 + 1, hbus.begin() + c1 + 1, slot.special_row.begin() + c0 + 1);
    }
  };

  // Retires tile (s, b) on the retiring worker: serialized, in retirement
  // order. False = the run stops here.
  const Index total_tiles = strips * blocks;
  auto retire = [&](Index s, Index b) -> bool {
    StripSlot& slot = slot_of(s);
    const TileResult& tr = slot.results[static_cast<std::size_t>(b)];
    const Index r0 = row0 + s * strip_rows;
    const Index r1 = std::min(m, r0 + strip_rows);
    const Index c0 = cuts[static_cast<std::size_t>(b)];
    const Index c1 = cuts[static_cast<std::size_t>(b + 1)];
    result.stats.cells += tr.cells;
    ++result.stats.tiles;
    if (spec.block_pruning && slot.pruned[static_cast<std::size_t>(b)] != 0) {
      ++result.stats.pruned_tiles;
      result.stats.pruned_cells += static_cast<WideScore>(r1 - r0) * (c1 - c0);
    } else {
      KernelTally& tally = result.stats.kernels[static_cast<std::size_t>(tr.kernel)];
      ++tally.tiles;
      tally.cells += tr.cells;
    }
    // Bus traffic accounting (see RunStats): one read + one write per bus per
    // tile, pruned or not (pruning scans the boundary and publishes lower
    // bounds).
    const auto h_seg_bytes =
        static_cast<std::int64_t>((c1 - c0 + 1) * static_cast<Index>(sizeof(BusCell)));
    const auto v_seg_bytes =
        static_cast<std::int64_t>((r1 - r0 + 1) * static_cast<Index>(sizeof(BusCell)));
    ++result.stats.hbus_reads;
    ++result.stats.hbus_writes;
    ++result.stats.vbus_reads;
    ++result.stats.vbus_writes;
    result.stats.hbus_bytes += 2 * h_seg_bytes;
    result.stats.vbus_bytes += 2 * v_seg_bytes;
    merge_best(slot.best, tr.best);

    bool stop = false;
    if (tr.found) {
      result.found = true;
      result.found_i = tr.found_i;
      result.found_j = tr.found_j;
      stop = true;
    }
    const auto& taps = chunk_taps[static_cast<std::size_t>(b)];
    for (std::size_t t = 0; t < taps.size() && !stop; ++t) {
      stop = hooks.on_tap(taps[t], r0 + 1, tr.taps[t]) == HookAction::kStop;
    }

    const bool last = b == blocks - 1;
    if (last) {
      ++result.stats.strips;
      merge_best(result.best, slot.best);
      slot.best = dp::LocalBest{};
    }
    if (strip_is_special(s) && !stop) {
      // Special-row assembly re-reads the tile's horizontal segment.
      ++result.stats.hbus_reads;
      result.stats.hbus_bytes +=
          static_cast<std::int64_t>((c1 - c0) * static_cast<Index>(sizeof(BusCell)));
      if (last) {
        if (audit != nullptr) audit->flush_handoff(s, s + blocks - 1);
        Timer flush_timer;
        // result.best now covers exactly the strips <= s, i.e. rows <= r1.
        hooks.on_special_row(r1, slot.special_row, result.best);
        result.stats.special_row_wait_seconds += flush_timer.seconds();
      }
    }
    result.stopped_early = stop;
    // A unit's last tile in retirement order: the strip's last chunk, or
    // the diagonal's bottom-most tile.
    const bool unit_end = ordered ? b == 0 || s == strips - 1 : last;
    if (hooks.on_progress && (unit_end || stop)) hooks.on_progress(result.stats.tiles, total_tiles);
    return !stop;
  };

  sched::SchedOptions sched_options;
  sched_options.strips = strips;
  sched_options.blocks = blocks;
  sched_options.window = window;
  sched_options.retire = ordered ? sched::Retire::kDiagonals : sched::Retire::kStrips;
  const sched::SchedStats sched_stats = sched::run_tile_graph(sched_options, *pool, body, retire);
  result.stats.tiles_stolen = static_cast<Index>(sched_stats.tiles_stolen);
  result.stats.starvation_waits = static_cast<Index>(sched_stats.starvation_waits);

  // An early stop leaves partial strips unfolded; their retired tiles count
  // toward the returned best (idempotent for folded strips, whose slot best
  // was reset).
  for (const StripSlot& slot : slots) merge_best(result.best, slot.best);

  result.stats.seconds = timer.seconds();
  return result;
}

std::string kernel_usage_summary(const std::array<KernelTally, kKernelIdCount>& kernels) {
  std::string out;
  for (std::size_t id = 0; id < kKernelIdCount; ++id) {
    const KernelTally& tally = kernels[id];
    if (tally.tiles == 0) continue;
    if (!out.empty()) out += ", ";
    out += kernel_info(static_cast<KernelId>(id)).name;
    out += "=";
    out += std::to_string(tally.tiles);
    out += "/";
    out += std::to_string(tally.cells);
  }
  return out;
}

std::string kernel_usage_summary(const RunStats& stats) {
  return kernel_usage_summary(stats.kernels);
}

RunResult run_reference(const ProblemSpec& spec, const Hooks& hooks) {
  spec.recurrence.scheme.validate();
  CUDALIGN_CHECK(spec.start_row == 0 && spec.initial_hbus.empty(),
                 "run_reference does not implement resume (start_row / initial_hbus)");
  RunResult result;
  const Index m = static_cast<Index>(spec.a.size());
  const Index n = static_cast<Index>(spec.b.size());
  const GridSpec grid = fit_to_width(spec.grid, n);
  const Index strip_rows = grid.strip_rows();
  const bool local = spec.recurrence.mode == AlignMode::kLocal;

  // Row-0 tap delivery, mirroring run_wavefront.
  for (Index col : hooks.tap_columns) {
    const BusCell entry{spec.recurrence.top_boundary(col).h, spec.recurrence.top_boundary_e(col)};
    if (hooks.on_tap(col, 0, std::span<const BusCell>(&entry, 1)) == HookAction::kStop) {
      result.stopped_early = true;
      return result;
    }
  }
  if (m == 0 || n == 0) return result;

  // The grid only decides the order in which tile events are replayed.
  const Index strips = (m + strip_rows - 1) / strip_rows;
  const Index blocks = std::max<Index>(1, std::min(grid.blocks, n));
  std::vector<Index> cuts(static_cast<std::size_t>(blocks) + 1);
  for (Index b = 0; b <= blocks; ++b) cuts[static_cast<std::size_t>(b)] = n * b / blocks;
  const auto chunk_of = [&](Index j) {
    return static_cast<Index>(std::lower_bound(cuts.begin(), cuts.end(), j) - cuts.begin()) - 1;
  };
  const auto tile = [&](Index s, Index b) { return static_cast<std::size_t>(s * blocks + b); };

  // One full sweep records every event: per-tile best and first probe hit
  // (row-major within the tile), tap values per strip, special rows.
  std::vector<dp::LocalBest> tile_best(static_cast<std::size_t>(strips * blocks));
  std::vector<std::optional<std::pair<Index, Index>>> tile_hit(tile_best.size());
  std::vector<std::vector<std::vector<BusCell>>> taps(  // [strip][tap][row in strip]
      static_cast<std::size_t>(strips),
      std::vector<std::vector<BusCell>>(hooks.tap_columns.size()));
  std::map<Index, std::vector<BusCell>> special_rows;  // Keyed by strip.
  const auto row_visitor = [&](const dp::RowView& row) {
    if (row.i == 0) return;
    const Index s = (row.i - 1) / strip_rows;
    for (Index j = 1; j <= n; ++j) {
      const Score h = row.h[static_cast<std::size_t>(j)];
      const std::size_t t = tile(s, chunk_of(j));
      if (local) merge_best(tile_best[t], dp::LocalBest{h, row.i, j});
      if (hooks.find_value && h == *hooks.find_value && !tile_hit[t]) {
        tile_hit[t] = std::pair{row.i, j};
      }
    }
    for (std::size_t t = 0; t < hooks.tap_columns.size(); ++t) {
      const auto col = static_cast<std::size_t>(hooks.tap_columns[t]);
      taps[static_cast<std::size_t>(s)][t].push_back(BusCell{row.h[col], row.e[col]});
    }
    if (hooks.special_row_interval != 0 && row.i % strip_rows == 0 && row.i < m &&
        (s + 1) % hooks.special_row_interval == 0) {
      auto& cells = special_rows[s];
      for (Index j = 0; j <= n; ++j) {
        cells.push_back(BusCell{row.h[static_cast<std::size_t>(j)],
                                row.f[static_cast<std::size_t>(j)]});
      }
    }
  };
  if (local) {
    (void)dp::sweep_rows(spec.a, spec.b, spec.recurrence.scheme, AlignMode::kLocal,
                         dp::CellState::kH, row_visitor);
  } else {
    (void)dp::sweep_rows_from(spec.a, spec.b, spec.recurrence.scheme, spec.recurrence.corner,
                              row_visitor);
  }

  // Replay in retirement order: ascending external diagonal, then strip.
  std::vector<dp::LocalBest> strip_best(static_cast<std::size_t>(strips));
  for (Index d = 0; d < strips + blocks - 1 && !result.stopped_early; ++d) {
    for (Index s = std::max<Index>(0, d - blocks + 1);
         s <= std::min(strips - 1, d) && !result.stopped_early; ++s) {
      const Index b = d - s;
      const Index r0 = s * strip_rows;
      const Index r1 = std::min(m, r0 + strip_rows);
      const Index c0 = cuts[static_cast<std::size_t>(b)];
      const Index c1 = cuts[static_cast<std::size_t>(b + 1)];
      result.stats.cells += static_cast<WideScore>(r1 - r0) * (c1 - c0);
      ++result.stats.tiles;
      merge_best(strip_best[static_cast<std::size_t>(s)], tile_best[tile(s, b)]);
      if (const auto& hit = tile_hit[tile(s, b)]) {
        result.found = true;
        result.found_i = hit->first;
        result.found_j = hit->second;
        result.stopped_early = true;
      }
      for (std::size_t t = 0; t < hooks.tap_columns.size() && !result.stopped_early; ++t) {
        if (chunk_of(hooks.tap_columns[t]) == b &&
            hooks.on_tap(hooks.tap_columns[t], r0 + 1, taps[static_cast<std::size_t>(s)][t]) ==
                HookAction::kStop) {
          result.stopped_early = true;
        }
      }
      if (b == blocks - 1) {
        ++result.stats.strips;
        merge_best(result.best, strip_best[static_cast<std::size_t>(s)]);
        if (!result.stopped_early && special_rows.contains(s)) {
          hooks.on_special_row(r1, special_rows[s], result.best);
        }
      }
    }
  }
  for (const dp::LocalBest& best : strip_best) merge_best(result.best, best);
  return result;
}

}  // namespace cudalign::engine
