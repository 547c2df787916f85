// Dataflow tile scheduler: Chase-Lev deque semantics under contention, the
// dependency-order property of run_tile_graph, the retirement hand-off
// (serialized, in order, on any worker), window gating, early stop,
// exception propagation and the index arithmetic at paper scale.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "check/contracts.hpp"
#include "common/thread_pool.hpp"
#include "engine/sched.hpp"

namespace cudalign {
namespace {

using engine::sched::Retire;
using engine::sched::SchedOptions;
using engine::sched::SchedStats;
using engine::sched::WorkStealingDeque;
using engine::sched::run_tile_graph;

// ---------------------------------------------------------------------------
// WorkStealingDeque unit semantics.
// ---------------------------------------------------------------------------

TEST(WorkStealingDeque, OwnerPopIsLifo) {
  WorkStealingDeque d(8);
  for (std::int64_t v = 0; v < 5; ++v) ASSERT_TRUE(d.push(v));
  std::int64_t out = -1;
  for (std::int64_t v = 4; v >= 0; --v) {
    ASSERT_TRUE(d.pop(&out));
    EXPECT_EQ(out, v);
  }
  EXPECT_FALSE(d.pop(&out));
}

TEST(WorkStealingDeque, ThiefStealIsFifo) {
  WorkStealingDeque d(8);
  for (std::int64_t v = 0; v < 5; ++v) ASSERT_TRUE(d.push(v));
  std::int64_t out = -1;
  for (std::int64_t v = 0; v < 5; ++v) {
    ASSERT_TRUE(d.steal(&out));
    EXPECT_EQ(out, v);
  }
  EXPECT_FALSE(d.steal(&out));
}

TEST(WorkStealingDeque, PushReportsFullInsteadOfGrowing) {
  WorkStealingDeque d(4);  // Capacity rounds up to a power of two.
  int accepted = 0;
  while (d.push(accepted)) ++accepted;
  EXPECT_EQ(accepted, 4);
  // Draining one slot re-admits exactly one push.
  std::int64_t out = -1;
  ASSERT_TRUE(d.steal(&out));
  EXPECT_EQ(out, 0);
  EXPECT_TRUE(d.push(99));
  EXPECT_FALSE(d.push(100));
}

TEST(WorkStealingDeque, OwnerAndThievesConsumeEachItemExactlyOnce) {
  // The owner interleaves pushes and pops while three thieves hammer steal;
  // every pushed value must be consumed by exactly one thread. Under TSan
  // this doubles as the data-race proof for the benign push/steal overlap.
  constexpr std::int64_t kItems = 20000;
  WorkStealingDeque d(1024);
  std::atomic<bool> done{false};
  std::mutex mu;
  std::vector<std::int64_t> consumed;

  auto thief = [&] {
    std::vector<std::int64_t> local;
    std::int64_t out = -1;
    while (!done.load(std::memory_order_acquire)) {
      if (d.steal(&out)) local.push_back(out);
    }
    while (d.steal(&out)) local.push_back(out);  // Final drain.
    std::lock_guard<std::mutex> lock(mu);
    consumed.insert(consumed.end(), local.begin(), local.end());
  };
  std::vector<std::thread> thieves;
  for (int t = 0; t < 3; ++t) thieves.emplace_back(thief);

  std::vector<std::int64_t> owner_got;
  std::int64_t next = 0;
  while (next < kItems) {
    for (int burst = 0; burst < 64 && next < kItems; ++burst) {
      if (!d.push(next)) break;  // Full: let the thieves drain a little.
      ++next;
    }
    std::int64_t out = -1;
    if (d.pop(&out)) owner_got.push_back(out);
  }
  done.store(true, std::memory_order_release);
  for (auto& t : thieves) t.join();
  std::int64_t out = -1;
  while (d.pop(&out)) owner_got.push_back(out);

  consumed.insert(consumed.end(), owner_got.begin(), owner_got.end());
  ASSERT_EQ(consumed.size(), static_cast<std::size_t>(kItems));
  std::set<std::int64_t> unique(consumed.begin(), consumed.end());
  EXPECT_EQ(unique.size(), static_cast<std::size_t>(kItems));  // No duplicates.
}

// ---------------------------------------------------------------------------
// run_tile_graph: ordering, hand-off, window, stop and error paths.
// ---------------------------------------------------------------------------

SchedOptions graph(Index strips, Index blocks, Index window = 8,
                   Retire retire = Retire::kStrips) {
  SchedOptions o;
  o.strips = strips;
  o.blocks = blocks;
  o.window = window;
  o.retire = retire;
  return o;
}

TEST(TileGraph, ExecutesEveryTileOnceRespectingDependencies) {
  const Index strips = 13, blocks = 7;
  std::vector<std::atomic<int>> done(static_cast<std::size_t>(strips * blocks));
  for (auto& f : done) f.store(0);
  std::atomic<int> violations{0};
  const auto body = [&](Index s, Index b, int) {
    // Both input tiles must be complete before this one starts.
    if (b > 0 && done[static_cast<std::size_t>(s * blocks + b - 1)].load() == 0) ++violations;
    if (s > 0 && done[static_cast<std::size_t>((s - 1) * blocks + b)].load() == 0) ++violations;
    done[static_cast<std::size_t>(s * blocks + b)].fetch_add(1);
  };
  ThreadPool pool(3);
  const SchedStats stats = run_tile_graph(graph(strips, blocks), pool, body, {});
  EXPECT_EQ(violations.load(), 0);
  for (const auto& f : done) EXPECT_EQ(f.load(), 1);
  EXPECT_EQ(stats.tiles_executed, strips * blocks);
}

TEST(TileGraph, RetireIsSerializedInRetirementOrderOnAnyWorker) {
  // Tiles retire on whichever worker completes them: the retire callback
  // must never overlap itself, must see every tile exactly once in
  // retirement order, and only after the tile's body has finished.
  const Index strips = 23, blocks = 17;
  ThreadPool pool(8);
  for (const Retire retire : {Retire::kStrips, Retire::kDiagonals}) {
    const SchedOptions options = graph(strips, blocks, 3, retire);
    std::vector<std::atomic<int>> done(static_cast<std::size_t>(options.tile_count()));
    for (auto& f : done) f.store(0);
    const auto body = [&](Index s, Index b, int) {
      // Uneven tile costs shuffle completion order across workers.
      volatile std::uint64_t sink = 0;
      for (Index k = 0; k < ((s * 7 + b * 13) % 5) * 2000; ++k) {
        sink = sink + static_cast<std::uint64_t>(k);
      }
      done[static_cast<std::size_t>(options.tile_id(s, b))].store(1);
    };
    std::atomic<bool> inside{false};
    std::atomic<int> overlaps{0};
    std::int64_t expected = 0;  // Plain: the callback is serialized.
    std::int64_t retired = 0, out_of_order = 0, not_done = 0;
    const auto on_retire = [&](Index s, Index b) {
      if (inside.exchange(true)) ++overlaps;
      const std::int64_t tile = options.tile_id(s, b);
      if (tile != expected) ++out_of_order;
      if (done[static_cast<std::size_t>(tile)].load() == 0) ++not_done;
      expected = options.next_in_order(tile);
      ++retired;
      inside.store(false);
      return true;
    };
    const SchedStats stats = run_tile_graph(options, pool, body, on_retire);
    const bool diagonal = retire == Retire::kDiagonals;
    EXPECT_EQ(overlaps.load(), 0) << "diagonal=" << diagonal;
    EXPECT_EQ(out_of_order, 0) << "diagonal=" << diagonal;
    EXPECT_EQ(not_done, 0) << "diagonal=" << diagonal;
    EXPECT_EQ(retired, options.tile_count()) << "diagonal=" << diagonal;
    EXPECT_EQ(expected, options.tile_count()) << "diagonal=" << diagonal;
    EXPECT_EQ(stats.tiles_executed, options.tile_count()) << "diagonal=" << diagonal;
  }
}

TEST(TileGraph, WindowBoundsInFlightStrips) {
  // No strip may start more than `window` strips past the retirement
  // watermark — the invariant the executor's plane rotation depends on.
  const Index strips = 40, blocks = 3, window = 2;
  std::atomic<Index> watermark{0};
  std::atomic<int> violations{0};
  const auto body = [&](Index s, Index, int) {
    if (s > watermark.load(std::memory_order_acquire) + window) ++violations;
  };
  const auto on_retire = [&](Index s, Index b) {
    if (b == blocks - 1) watermark.store(s + 1, std::memory_order_release);
    return true;
  };
  ThreadPool pool(3);
  (void)run_tile_graph(graph(strips, blocks, window), pool, body, on_retire);
  EXPECT_EQ(violations.load(), 0);
}

TEST(TileGraph, StripDoneReturningFalseStopsTheRun) {
  // A retire that returns false stops the run at that tile: nothing after
  // it retires.
  const Index strips = 30, blocks = 4;
  std::vector<std::pair<Index, Index>> retired;
  const auto body = [](Index, Index, int) {};
  const auto on_retire = [&](Index s, Index b) {
    retired.emplace_back(s, b);
    return !(s == 2 && b == 1);
  };
  ThreadPool pool(3);
  const SchedStats stats = run_tile_graph(graph(strips, blocks, 2), pool, body, on_retire);
  ASSERT_EQ(retired.size(), static_cast<std::size_t>(2 * blocks + 2));
  EXPECT_EQ(retired.back(), (std::pair<Index, Index>{2, 1}));
  // The window kept the abandoned tail small: nowhere near the full grid ran.
  EXPECT_LT(stats.tiles_executed, strips * blocks);
}

TEST(TileGraph, BodyExceptionPropagatesToCaller) {
  const auto body = [](Index s, Index b, int) {
    if (s == 3 && b == 1) throw std::runtime_error("tile blew up");
  };
  ThreadPool pool(3);
  try {
    (void)run_tile_graph(graph(8, 4), pool, body, {});
    FAIL() << "exception was swallowed";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "tile blew up");
  }
}

TEST(TileGraph, StripDoneExceptionPropagatesToCaller) {
  const auto body = [](Index, Index, int) {};
  const auto on_retire = [](Index s, Index) -> bool {
    if (s == 2) throw std::runtime_error("flush failed");
    return true;
  };
  ThreadPool pool(3);
  EXPECT_THROW((void)run_tile_graph(graph(8, 4), pool, body, on_retire), std::runtime_error);
}

TEST(TileGraph, SingleWorkerAndSingleTileDegenerates) {
  int calls = 0;
  const auto body = [&](Index s, Index b, int) {
    EXPECT_EQ(s, 0);
    EXPECT_EQ(b, 0);
    ++calls;
  };
  ThreadPool pool(1);
  const SchedStats stats = run_tile_graph(graph(1, 1), pool, body, {});
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(stats.tiles_executed, 1);
  EXPECT_EQ(stats.tiles_stolen, 0);
}

TEST(TileGraph, RejectsEmptyGridAndBadOptions) {
  const auto body = [](Index, Index, int) {};
  ThreadPool pool(1);
  EXPECT_THROW((void)run_tile_graph(graph(0, 4), pool, body, {}), Error);
  EXPECT_THROW((void)run_tile_graph(graph(4, 0), pool, body, {}), Error);
  EXPECT_THROW((void)run_tile_graph(graph(4, 4, 0), pool, body, {}), Error);
}

TEST(TileGraph, TallNarrowGridStealsAcrossWorkers) {
  // Two blocks per strip: nearly a chain. Workers mostly starve, which
  // exercises the idle/steal scan without deadlocking.
  const Index strips = 200, blocks = 2;
  std::atomic<Index> count{0};
  const auto body = [&](Index, Index, int) { count.fetch_add(1); };
  ThreadPool pool(3);
  const SchedStats stats = run_tile_graph(graph(strips, blocks, 4), pool, body, {});
  EXPECT_EQ(count.load(), strips * blocks);
  EXPECT_EQ(stats.tiles_executed, strips * blocks);
}

TEST(TileGraph, DiagonalUnitsRetireInOrderAfterAllTheirTiles) {
  // Diagonal order: tile (s, b) retires after its own body, and every tile
  // of diagonal u retires (ascending strip) before any tile of u + 1.
  const Index strips = 11, blocks = 6;
  std::vector<std::atomic<int>> done(static_cast<std::size_t>(strips * blocks));
  for (auto& f : done) f.store(0);
  std::vector<std::pair<Index, Index>> retired;
  int incomplete = 0;
  const auto body = [&](Index s, Index b, int) {
    done[static_cast<std::size_t>(s * blocks + b)].store(1);
  };
  const auto on_retire = [&](Index s, Index b) {
    if (done[static_cast<std::size_t>(s * blocks + b)].load() == 0) ++incomplete;
    retired.emplace_back(s, b);
    return true;
  };
  ThreadPool pool(3);
  const SchedStats stats =
      run_tile_graph(graph(strips, blocks, 3, Retire::kDiagonals), pool, body, on_retire);
  EXPECT_EQ(incomplete, 0);
  std::vector<std::pair<Index, Index>> want;
  for (Index u = 0; u < strips + blocks - 1; ++u) {
    for (Index s = std::max<Index>(0, u - blocks + 1); s <= std::min(strips - 1, u); ++s) {
      want.emplace_back(s, u - s);
    }
  }
  EXPECT_EQ(retired, want);
  EXPECT_EQ(stats.tiles_executed, strips * blocks);
}

TEST(TileGraph, DiagonalWindowBoundsWorkPastAStop) {
  // No tile may start more than `window` diagonals past the oldest
  // unretired one, so a stop wastes at most window diagonals of tiles — not
  // the triangle of every started strip.
  const Index strips = 60, blocks = 20, window = 2;
  std::atomic<Index> retired{0};
  std::atomic<int> violations{0};
  const auto body = [&](Index s, Index b, int) {
    if (s + b > retired.load(std::memory_order_acquire) + window) ++violations;
  };
  const Index stop_at = 30;
  const auto on_retire = [&](Index s, Index b) {
    const bool unit_end = b == 0 || s == strips - 1;
    if (unit_end) retired.store(s + b + 1, std::memory_order_release);
    return !(unit_end && s + b == stop_at);
  };
  ThreadPool pool(3);
  const SchedStats stats =
      run_tile_graph(graph(strips, blocks, window, Retire::kDiagonals), pool, body, on_retire);
  EXPECT_EQ(violations.load(), 0);
  Index upto = 0;  // Tiles on diagonals <= stop_at + window.
  for (Index s = 0; s < strips; ++s) {
    for (Index b = 0; b < blocks; ++b) upto += s + b <= stop_at + window ? 1 : 0;
  }
  EXPECT_LE(stats.tiles_executed, upto);
}

TEST(TileGraph, SingleWorkerRunsInlineOnCaller) {
  // A one-worker pool, and a one-chunk grid on any pool, run the whole
  // graph — bodies and retirements — on the caller, in retirement order.
  const auto caller = std::this_thread::get_id();
  ThreadPool one(1);
  ThreadPool four(4);
  struct Case {
    ThreadPool* pool;
    Index blocks;
    Retire retire;
  };
  for (const Case& c : {Case{&one, 5, Retire::kStrips}, Case{&one, 5, Retire::kDiagonals},
                        Case{&four, 1, Retire::kStrips}, Case{&four, 1, Retire::kDiagonals}}) {
    const SchedOptions options = graph(7, c.blocks, 8, c.retire);
    std::vector<std::pair<Index, Index>> order;
    const auto body = [&](Index s, Index b, int worker) {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      EXPECT_EQ(worker, 0);
      // Both inputs ran first.
      const auto ran = [&](Index rs, Index rb) {
        return std::find(order.begin(), order.end(), std::pair{rs, rb}) != order.end();
      };
      EXPECT_TRUE(b == 0 || ran(s, b - 1));
      EXPECT_TRUE(s == 0 || ran(s - 1, b));
      order.emplace_back(s, b);
    };
    std::int64_t expected = 0;
    const auto on_retire = [&](Index s, Index b) {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      EXPECT_EQ(options.tile_id(s, b), expected);
      expected = options.next_in_order(options.tile_id(s, b));
      return true;
    };
    const SchedStats stats = run_tile_graph(options, *c.pool, body, on_retire);
    EXPECT_EQ(expected, options.tile_count());
    ASSERT_EQ(static_cast<Index>(order.size()), options.tile_count());
    EXPECT_EQ(stats.tiles_executed, options.tile_count());
    EXPECT_EQ(stats.tiles_stolen, 0);
  }
}

TEST(TileGraph, PaperScaleIndexArithmetic) {
  // The Stage-1 grid of the paper's largest comparison (32,799,845 x
  // 46,944,323 bp): 256-row strips x 240 blocks, ~31M tiles. Tile ids, unit
  // ids and the retirement successor are checked against closed forms, and
  // the diagonal order is walked end to end — index arithmetic only.
  static_assert(std::is_same_v<decltype(SchedOptions{}.tile_id(0, 0)), std::int64_t>);
  static_assert(std::is_same_v<decltype(SchedOptions{}.next_in_order(0)), std::int64_t>);
  const std::int64_t m = 32799845;
  const std::int64_t strips = (m + 255) / 256;
  const std::int64_t blocks = 240;
  ASSERT_EQ(strips, 128125);
  const std::int64_t total = strips * blocks;
  ASSERT_EQ(total, 30750000);
  const std::int64_t last = total - 1;

  const SchedOptions by_strip = graph(strips, blocks, 10, Retire::kStrips);
  const SchedOptions by_diag = graph(strips, blocks, 1, Retire::kDiagonals);
  for (const SchedOptions& o : {by_strip, by_diag}) {
    EXPECT_EQ(o.tile_count(), total);
    EXPECT_EQ(o.tile_id(0, 0), 0);
    EXPECT_EQ(o.tile_id(strips - 1, blocks - 1), last);
    EXPECT_EQ(o.tile_id(strips - 1, 0), (strips - 1) * blocks);
    EXPECT_EQ(o.next_in_order(last), total);
  }

  // Strip order: unit = strip, successor = id + 1 (across strip ends too).
  EXPECT_EQ(by_strip.unit_of(0), 0);
  EXPECT_EQ(by_strip.unit_of(last), strips - 1);
  EXPECT_EQ(by_strip.unit_of(by_strip.tile_id(77777, blocks - 1)), 77777);
  EXPECT_EQ(by_strip.next_in_order(by_strip.tile_id(77777, blocks - 1)),
            by_strip.tile_id(77778, 0));
  EXPECT_EQ(by_strip.next_in_order(by_strip.tile_id(strips - 2, blocks - 1)),
            by_strip.tile_id(strips - 1, 0));

  // Diagonal order: unit = s + b; inside a diagonal (s, b) -> (s + 1, b - 1);
  // a diagonal ends at b = 0 (d < strips) or s = strips - 1 (d >= strips)
  // and hands over to (max(0, d + 1 - (blocks - 1)), rest).
  const auto first_of = [&](std::int64_t d) {
    const std::int64_t s = std::max<std::int64_t>(0, d - blocks + 1);
    return s * blocks + (d - s);
  };
  EXPECT_EQ(by_diag.unit_of(0), 0);
  EXPECT_EQ(by_diag.unit_of(last), strips + blocks - 2);
  EXPECT_EQ(by_diag.next_in_order(0), 1);                                // (0,0) -> (0,1)
  EXPECT_EQ(by_diag.next_in_order(1), blocks);                           // (0,1) -> (1,0)
  EXPECT_EQ(by_diag.next_in_order(blocks), 2);                           // (1,0) -> (0,2)
  EXPECT_EQ(by_diag.next_in_order(by_diag.tile_id(0, blocks - 2)), by_diag.tile_id(1, blocks - 3));
  // Diagonal blocks - 2 ends at (blocks - 2, 0); the next starts at (0, blocks - 1).
  EXPECT_EQ(by_diag.next_in_order(by_diag.tile_id(blocks - 2, 0)), blocks - 1);
  // Diagonal blocks - 1 ends at (blocks - 1, 0); diagonal blocks starts at (1, blocks - 1).
  EXPECT_EQ(by_diag.next_in_order(by_diag.tile_id(blocks - 1, 0)), by_diag.tile_id(1, blocks - 1));
  // Mid-grid diagonal 100000 ends at (100000, 0), then (99762, 239).
  EXPECT_EQ(by_diag.next_in_order(by_diag.tile_id(100000, 0)), by_diag.tile_id(99762, 239));
  EXPECT_EQ(by_diag.next_in_order(by_diag.tile_id(99762, 239)), by_diag.tile_id(99763, 238));
  // Past the last strip, diagonals end on it: (strips - 1, d - strips + 1).
  const std::int64_t d_tail = strips + 5;
  EXPECT_EQ(by_diag.next_in_order(by_diag.tile_id(strips - 1, d_tail - strips + 1)),
            first_of(d_tail + 1));
  EXPECT_EQ(first_of(d_tail + 1), by_diag.tile_id(d_tail + 1 - blocks + 1, blocks - 1));
  // Second-to-last diagonal ends at (strips - 1, blocks - 2), then the corner.
  EXPECT_EQ(by_diag.next_in_order(by_diag.tile_id(strips - 1, blocks - 2)), last);

  // Walk the whole diagonal order: every tile once, units non-decreasing by
  // at most one, strips ascending within a unit.
  std::int64_t count = 0, bad = 0;
  std::int64_t prev = -1;
  for (std::int64_t t = 0; t < total; t = by_diag.next_in_order(t)) {
    if (prev >= 0) {
      const Index du = by_diag.unit_of(t) - by_diag.unit_of(prev);
      const bool ok = du == 0 ? t / blocks == prev / blocks + 1
                              : du == 1 && t == first_of(by_diag.unit_of(t));
      if (!ok) ++bad;
    }
    prev = t;
    ++count;
  }
  EXPECT_EQ(count, total);
  EXPECT_EQ(bad, 0);
  EXPECT_EQ(prev, last);
}

}  // namespace
}  // namespace cudalign
