// Dataflow tile scheduler: Chase-Lev deque semantics under contention, the
// dependency-order property of run_tile_graph, the strip-retirement watermark
// (ascending, on the caller thread), window gating, early stop and exception
// propagation.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "check/contracts.hpp"
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
// run_tile_graph: ordering, watermark, window, stop and error paths.
// ---------------------------------------------------------------------------

SchedOptions graph(Index strips, Index blocks, int workers, Index window = 8) {
  SchedOptions o;
  o.strips = strips;
  o.blocks = blocks;
  o.workers = workers;
  o.window = window;
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
  const SchedStats stats = run_tile_graph(graph(strips, blocks, 4), body, {});
  EXPECT_EQ(violations.load(), 0);
  for (const auto& f : done) EXPECT_EQ(f.load(), 1);
  EXPECT_EQ(stats.tiles_executed, strips * blocks);
}

TEST(TileGraph, StripDoneRunsAscendingOnCallerThread) {
  const Index strips = 9, blocks = 5;
  const auto caller = std::this_thread::get_id();
  std::vector<Index> retired;
  const auto body = [](Index, Index, int) {};
  const auto strip_done = [&](Index s) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    retired.push_back(s);
    return true;
  };
  (void)run_tile_graph(graph(strips, blocks, 3), body, strip_done);
  ASSERT_EQ(retired.size(), static_cast<std::size_t>(strips));
  for (Index s = 0; s < strips; ++s) EXPECT_EQ(retired[static_cast<std::size_t>(s)], s);
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
  const auto strip_done = [&](Index s) {
    watermark.store(s + 1, std::memory_order_release);
    return true;
  };
  (void)run_tile_graph(graph(strips, blocks, 4, window), body, strip_done);
  EXPECT_EQ(violations.load(), 0);
}

TEST(TileGraph, StripDoneReturningFalseStopsTheRun) {
  const Index strips = 30, blocks = 4;
  std::vector<Index> retired;
  const auto body = [](Index, Index, int) {};
  const auto strip_done = [&](Index s) {
    retired.push_back(s);
    return s < 2;  // Stop after retiring strip 2.
  };
  const SchedStats stats = run_tile_graph(graph(strips, blocks, 4, 2), body, strip_done);
  ASSERT_EQ(retired.size(), 3u);
  EXPECT_EQ(retired.back(), 2);
  // The window kept the abandoned tail small: nowhere near the full grid ran.
  EXPECT_LT(stats.tiles_executed, strips * blocks);
}

TEST(TileGraph, BodyExceptionPropagatesToCaller) {
  const auto body = [](Index s, Index b, int) {
    if (s == 3 && b == 1) throw std::runtime_error("tile blew up");
  };
  try {
    (void)run_tile_graph(graph(8, 4, 4), body, {});
    FAIL() << "exception was swallowed";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "tile blew up");
  }
}

TEST(TileGraph, StripDoneExceptionPropagatesToCaller) {
  const auto body = [](Index, Index, int) {};
  const auto strip_done = [](Index s) -> bool {
    if (s == 2) throw std::runtime_error("flush failed");
    return true;
  };
  EXPECT_THROW((void)run_tile_graph(graph(8, 4, 4), body, strip_done), std::runtime_error);
}

TEST(TileGraph, SingleWorkerAndSingleTileDegenerates) {
  int calls = 0;
  const auto body = [&](Index s, Index b, int) {
    EXPECT_EQ(s, 0);
    EXPECT_EQ(b, 0);
    ++calls;
  };
  const SchedStats stats = run_tile_graph(graph(1, 1, 1), body, {});
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(stats.tiles_executed, 1);
  EXPECT_EQ(stats.tiles_stolen, 0);
}

TEST(TileGraph, RejectsEmptyGridAndBadOptions) {
  const auto body = [](Index, Index, int) {};
  EXPECT_THROW((void)run_tile_graph(graph(0, 4, 1), body, {}), Error);
  EXPECT_THROW((void)run_tile_graph(graph(4, 0, 1), body, {}), Error);
  EXPECT_THROW((void)run_tile_graph(graph(4, 4, 0), body, {}), Error);
  EXPECT_THROW((void)run_tile_graph(graph(4, 4, 1, 0), body, {}), Error);
}

TEST(TileGraph, TallNarrowGridStealsAcrossWorkers) {
  // One block per strip: a pure chain. Workers mostly starve, which
  // exercises the idle/steal scan without deadlocking.
  const Index strips = 200;
  std::atomic<Index> count{0};
  const auto body = [&](Index, Index, int) { count.fetch_add(1); };
  const SchedStats stats = run_tile_graph(graph(strips, 1, 4, 4), body, {});
  EXPECT_EQ(count.load(), strips);
  EXPECT_EQ(stats.tiles_executed, strips);
}

TEST(TileGraph, DiagonalUnitsRetireInOrderAfterAllTheirTiles) {
  // Unit u = external diagonal u: the driver sees diagonal u only once every
  // tile (s, u - s) has completed, in ascending u, on the caller thread.
  const Index strips = 11, blocks = 6;
  std::vector<std::atomic<int>> done(static_cast<std::size_t>(strips * blocks));
  for (auto& f : done) f.store(0);
  const auto caller = std::this_thread::get_id();
  std::vector<Index> retired;
  int incomplete = 0;
  const auto body = [&](Index s, Index b, int) {
    done[static_cast<std::size_t>(s * blocks + b)].store(1);
  };
  SchedOptions options = graph(strips, blocks, 4, 3);
  options.retire = Retire::kDiagonals;
  const auto unit_done = [&](Index u) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    options.for_each_tile(u, [&](Index s, Index b) {
      EXPECT_EQ(s + b, u);
      if (done[static_cast<std::size_t>(s * blocks + b)].load() == 0) ++incomplete;
    });
    retired.push_back(u);
    return true;
  };
  const SchedStats stats = run_tile_graph(options, body, unit_done);
  EXPECT_EQ(incomplete, 0);
  ASSERT_EQ(retired.size(), static_cast<std::size_t>(strips + blocks - 1));
  for (std::size_t u = 0; u < retired.size(); ++u) EXPECT_EQ(retired[u], static_cast<Index>(u));
  EXPECT_EQ(stats.tiles_executed, strips * blocks);
}

TEST(TileGraph, DiagonalWindowBoundsWorkPastAStop) {
  // No tile may start more than `window` diagonals past the last retired
  // one, so a stop wastes at most window diagonals of tiles — not the
  // triangle of every started strip.
  const Index strips = 60, blocks = 20, window = 2;
  std::atomic<Index> retired{0};
  std::atomic<int> violations{0};
  const auto body = [&](Index s, Index b, int) {
    if (s + b > retired.load(std::memory_order_acquire) + window) ++violations;
  };
  SchedOptions options = graph(strips, blocks, 4, window);
  options.retire = Retire::kDiagonals;
  const Index stop_at = 30;
  const auto unit_done = [&](Index u) {
    retired.store(u + 1, std::memory_order_release);
    return u < stop_at;
  };
  const SchedStats stats = run_tile_graph(options, body, unit_done);
  EXPECT_EQ(violations.load(), 0);
  Index upto = 0;  // Tiles on diagonals <= stop_at + window.
  for (Index u = 0; u <= stop_at + window; ++u) upto += options.unit_size(u);
  EXPECT_LE(stats.tiles_executed, upto);
}

TEST(TileGraph, SingleWorkerRunsInlineOnCaller) {
  const auto caller = std::this_thread::get_id();
  for (const Retire retire : {Retire::kStrips, Retire::kDiagonals}) {
    SchedOptions options = graph(7, 5, 1);
    options.retire = retire;
    std::vector<std::pair<Index, Index>> order;
    const auto body = [&](Index s, Index b, int worker) {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      EXPECT_EQ(worker, 0);
      order.emplace_back(s, b);
    };
    Index units = 0;
    const auto unit_done = [&](Index u) {
      EXPECT_EQ(u, units++);
      return true;
    };
    const SchedStats stats = run_tile_graph(options, body, unit_done);
    EXPECT_EQ(units, options.unit_count());
    ASSERT_EQ(order.size(), 35u);
    EXPECT_EQ(stats.tiles_executed, 35);
    EXPECT_EQ(stats.tiles_stolen, 0);
    // Execution follows retirement order, which respects both input edges.
    for (std::size_t k = 1; k < order.size(); ++k) {
      EXPECT_LE(options.unit_of(order[k - 1].first, order[k - 1].second),
                options.unit_of(order[k].first, order[k].second));
    }
  }
}

}  // namespace
}  // namespace cudalign
