#include "engine/sched.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>

#include "check/annotations.hpp"
#include "check/contracts.hpp"

namespace cudalign::engine::sched {

namespace {

std::size_t ceil_pow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

WorkStealingDeque::WorkStealingDeque(std::size_t capacity_pow2)
    : buffer_(ceil_pow2(capacity_pow2)), mask_(static_cast<std::int64_t>(buffer_.size()) - 1) {}

bool WorkStealingDeque::push(std::int64_t value) {
  // order: relaxed — bottom_ is only written by the owner; this is its own last value.
  const std::int64_t b = bottom_.load(std::memory_order_relaxed);
  const std::int64_t t = top_.load(std::memory_order_acquire);
  if (b - t > mask_) return false;  // Full; caller reroutes to the injector.
  // order: relaxed — the release store of bottom_ below publishes the slot to thieves.
  buffer_[static_cast<std::size_t>(b & mask_)].store(value, std::memory_order_relaxed);
  bottom_.store(b + 1, std::memory_order_release);
  return true;
}

bool WorkStealingDeque::pop(std::int64_t* out) {
  // order: relaxed — owner-only bottom_; the seq_cst fence below does the ordering.
  const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
  bottom_.store(b, std::memory_order_relaxed);
  // order: seq_cst — the fence must totally order the bottom_ store against the
  // thieves' top_ reads; weaker fences let pop and steal both claim the element.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  // order: relaxed — the fence above already orders this top_ read.
  std::int64_t t = top_.load(std::memory_order_relaxed);
  if (t > b) {  // Was empty: restore bottom.
    // order: relaxed — owner-only restore; thieves gate on top_, not bottom_.
    bottom_.store(b + 1, std::memory_order_relaxed);
    return false;
  }
  // order: relaxed — the slot value was published by this owner's own push.
  *out = buffer_[static_cast<std::size_t>(b & mask_)].load(std::memory_order_relaxed);
  if (t < b) return true;  // More than one element left: no race possible.
  // Single element: race the thieves for it via top.
  // order: seq_cst CAS joins the fence total order; relaxed on failure (t is discarded).
  const bool won =
      top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst, std::memory_order_relaxed);
  // order: relaxed — owner-only reset; the next push's release publishes it.
  bottom_.store(b + 1, std::memory_order_relaxed);
  return won;
}

bool WorkStealingDeque::steal(std::int64_t* out) {
  std::int64_t t = top_.load(std::memory_order_acquire);
  // order: seq_cst — pairs with pop's fence: a thief must observe either the
  // shrunken bottom_ or the owner's CAS; weaker orders let both claim the tile.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  const std::int64_t b = bottom_.load(std::memory_order_acquire);
  if (t >= b) return false;
  // order: relaxed — the acquire load of top_ above published this slot.
  const std::int64_t value = buffer_[static_cast<std::size_t>(t & mask_)].load(std::memory_order_relaxed);
  // order: seq_cst CAS claims the slot in the fence total order; relaxed failure rescans.
  if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                    std::memory_order_relaxed)) {
    return false;  // Lost to the owner's pop or another thief; caller rescans.
  }
  *out = value;
  return true;
}

namespace {

/// Shared run state. Tiles are identified as s * blocks + b.
struct GraphRun {
  SchedOptions opt;
  std::int64_t total = 0;

  /// Unsatisfied inputs per tile: (s > 0) + (b > 0).
  std::vector<std::atomic<std::uint8_t>> deps;
  /// Remaining tiles per retirement unit (the hand-off to the driver).
  std::vector<std::atomic<Index>> unit_left;

  /// std::deque, not vector: WorkStealingDeque holds atomics and is immovable.
  std::deque<WorkStealingDeque> deques;

  /// Highest unit admitted to run: retired units + window. Written by the
  /// driver under queue_mutex; workers read it lock-free for the fast path
  /// and re-check under the mutex before parking a tile.
  std::atomic<Index> admit_limit{0};

  /// Injector + window gate, one mutex: deque-overflow spillover and tiles
  /// parked past the admit limit.
  std::mutex queue_mutex;
  std::deque<std::int64_t> injector CUDALIGN_GUARDED_BY(queue_mutex);
  std::vector<std::int64_t> parked CUDALIGN_GUARDED_BY(queue_mutex);

  /// Quiescence epoch + stop flag (early stop or captured exception).
  std::atomic<std::int64_t> tiles_done{0};
  std::atomic<bool> stop{false};

  /// Driver wake-up: unit completion flags and the first captured error.
  std::mutex done_mutex;
  std::condition_variable done_cv;
  std::vector<std::uint8_t> unit_complete CUDALIGN_GUARDED_BY(done_mutex);
  std::exception_ptr error CUDALIGN_GUARDED_BY(done_mutex);

  std::mutex stats_mutex;
  SchedStats stats CUDALIGN_GUARDED_BY(stats_mutex);

  const std::function<void(Index, Index, int)>* body = nullptr;

  [[nodiscard]] Index unit_of(std::int64_t tile) const {
    return opt.unit_of(tile / opt.blocks, tile % opt.blocks);
  }

  void fail(std::exception_ptr e) {
    {
      std::lock_guard<std::mutex> lock(done_mutex);
      if (!error) error = std::move(e);
    }
    stop.store(true, std::memory_order_release);
    done_cv.notify_all();
  }

  void inject(std::int64_t tile) {
    std::lock_guard<std::mutex> lock(queue_mutex);
    injector.push_back(tile);
  }

  void enqueue(int worker, std::int64_t tile) {
    if (!deques[static_cast<std::size_t>(worker)].push(tile)) inject(tile);
  }

  /// `tile` just became dependency-free; run it only if its unit is inside
  /// the window, otherwise park it for the driver to release.
  void gate_tile(int worker, std::int64_t tile) {
    const Index unit = unit_of(tile);
    if (unit <= admit_limit.load(std::memory_order_acquire)) {
      enqueue(worker, tile);
      return;
    }
    {
      std::lock_guard<std::mutex> lock(queue_mutex);
      // order: relaxed — the driver only stores admit_limit under queue_mutex.
      if (unit > admit_limit.load(std::memory_order_relaxed)) {
        parked.push_back(tile);
        return;
      }
    }
    enqueue(worker, tile);
  }

  void execute(std::int64_t tile, int worker) {
    const Index s = tile / opt.blocks;
    const Index b = tile % opt.blocks;
    try {
      (*body)(s, b, worker);
    } catch (...) {
      // Successors stay blocked (their inputs were never published); the
      // driver observes the error and stops the run.
      fail(std::current_exception());
      return;
    }
    // Release successors: the acq_rel decrement hands the tile's bus writes
    // to whichever worker observes the counter reach zero.
    if (b + 1 < opt.blocks &&
        deps[static_cast<std::size_t>(tile + 1)].fetch_sub(1, std::memory_order_acq_rel) == 1) {
      gate_tile(worker, tile + 1);
    }
    if (s + 1 < opt.strips) {
      const std::int64_t down = tile + opt.blocks;
      if (deps[static_cast<std::size_t>(down)].fetch_sub(1, std::memory_order_acq_rel) == 1) {
        gate_tile(worker, down);
      }
    }
    tiles_done.fetch_add(1, std::memory_order_release);
    const Index unit = opt.unit_of(s, b);
    if (unit_left[static_cast<std::size_t>(unit)].fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lock(done_mutex);
      unit_complete[static_cast<std::size_t>(unit)] = 1;
      done_cv.notify_all();
    }
  }

  bool pop_injector(std::int64_t* out) {
    std::lock_guard<std::mutex> lock(queue_mutex);
    if (injector.empty()) return false;
    *out = injector.front();
    injector.pop_front();
    return true;
  }

  void worker_loop(int w) {
    SchedStats local;
    int idle_spins = 0;
    for (;;) {
      std::int64_t tile = -1;
      if (!deques[static_cast<std::size_t>(w)].pop(&tile)) {
        tile = -1;
        if (!pop_injector(&tile)) {
          tile = -1;
          for (int i = 1; i < opt.workers; ++i) {
            if (deques[static_cast<std::size_t>((w + i) % opt.workers)].steal(&tile)) {
              ++local.tiles_stolen;
              break;
            }
            tile = -1;
          }
        }
      }
      if (tile < 0) {
        if (stop.load(std::memory_order_acquire) ||
            tiles_done.load(std::memory_order_acquire) >= total) {
          break;
        }
        ++local.starvation_waits;
        if (++idle_spins < 64) {
          std::this_thread::yield();
        } else {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
        continue;
      }
      idle_spins = 0;
      if (stop.load(std::memory_order_acquire)) break;  // Abandon the tile.
      execute(tile, w);
      ++local.tiles_executed;
    }
    std::lock_guard<std::mutex> lock(stats_mutex);
    stats.tiles_executed += local.tiles_executed;
    stats.tiles_stolen += local.tiles_stolen;
    stats.starvation_waits += local.starvation_waits;
  }
};

}  // namespace

SchedStats run_tile_graph(const SchedOptions& options,
                          const std::function<void(Index s, Index b, int worker)>& body,
                          const std::function<bool(Index unit)>& unit_done) {
  CUDALIGN_CHECK(options.strips > 0 && options.blocks > 0, "tile graph must be non-empty");
  CUDALIGN_CHECK(options.workers > 0, "tile graph needs at least one worker");
  CUDALIGN_CHECK(options.window > 0, "unit window must be positive");
  CUDALIGN_CHECK(body != nullptr, "tile graph needs a body");

  const Index unit_count = options.unit_count();

  if (options.workers == 1) {
    // Inline: every unit's tiles in retirement order — a topological order
    // of the tile graph, since a tile's inputs sit in earlier units (or, for
    // strip units, earlier in the same unit).
    SchedStats stats;
    for (Index u = 0; u < unit_count; ++u) {
      options.for_each_tile(u, [&](Index s, Index b) { body(s, b, 0); });
      stats.tiles_executed += options.unit_size(u);
      if (unit_done && !unit_done(u)) break;
    }
    return stats;
  }

  GraphRun run;
  run.opt = options;
  run.total = static_cast<std::int64_t>(options.strips) * options.blocks;
  run.body = &body;
  run.deps = std::vector<std::atomic<std::uint8_t>>(static_cast<std::size_t>(run.total));
  for (Index s = 0; s < options.strips; ++s) {
    for (Index b = 0; b < options.blocks; ++b) {
      const std::uint8_t inputs = s > 0 && b > 0 ? 2 : (s > 0 || b > 0 ? 1 : 0);
      // order: relaxed — pre-start initialization; thread creation publishes it.
      run.deps[static_cast<std::size_t>(s * options.blocks + b)].store(
          inputs, std::memory_order_relaxed);
    }
  }
  run.unit_left = std::vector<std::atomic<Index>>(static_cast<std::size_t>(unit_count));
  for (Index u = 0; u < unit_count; ++u) {
    // order: relaxed — pre-start initialization; thread creation publishes it.
    run.unit_left[static_cast<std::size_t>(u)].store(options.unit_size(u),
                                                     std::memory_order_relaxed);
  }
  run.unit_complete.assign(static_cast<std::size_t>(unit_count), 0);
  // order: relaxed — pre-start initialization; thread creation publishes it.
  run.admit_limit.store(options.window, std::memory_order_relaxed);
  // Each in-flight strip contributes at most one ready tile (within-strip
  // execution is sequential), so this capacity is never the limit in
  // practice; overflow spills to the injector anyway.
  const Index in_flight =
      options.window + 1 + (options.diagonal_units() ? options.blocks - 1 : 0);
  const std::size_t deque_capacity = ceil_pow2(static_cast<std::size_t>(in_flight) + 1) * 2;
  for (int w = 0; w < options.workers; ++w) run.deques.emplace_back(deque_capacity);

  // Seed the root: worker 0's deque starts with tile (0, 0).
  (void)run.deques[0].push(0);

  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(options.workers));
  for (int w = 0; w < options.workers; ++w) {
    workers.emplace_back([&run, w] { run.worker_loop(w); });
  }

  // Driver loop: retire units in ascending order.
  std::exception_ptr driver_error;
  {
    std::unique_lock<std::mutex> lock(run.done_mutex);
    for (Index u = 0; u < unit_count; ++u) {
      run.done_cv.wait(lock, [&run, u] {
        return run.error != nullptr || run.unit_complete[static_cast<std::size_t>(u)] != 0;
      });
      if (run.error != nullptr) break;
      lock.unlock();
      bool keep_going = true;
      if (unit_done) {
        try {
          keep_going = unit_done(u);
        } catch (...) {
          driver_error = std::current_exception();
          keep_going = false;
        }
      }
      if (keep_going) {
        // Advance the window and release parked tiles that now fit.
        std::lock_guard<std::mutex> gate(run.queue_mutex);
        const Index limit = u + 1 + options.window;
        run.admit_limit.store(limit, std::memory_order_release);
        const auto fits = [&run, limit](std::int64_t tile) { return run.unit_of(tile) <= limit; };
        for (std::int64_t tile : run.parked) {
          if (fits(tile)) run.injector.push_back(tile);
        }
        std::erase_if(run.parked, fits);
      } else {
        run.stop.store(true, std::memory_order_release);
      }
      lock.lock();
      if (!keep_going) break;
    }
  }
  run.stop.store(true, std::memory_order_release);
  for (std::thread& t : workers) t.join();

  if (driver_error) std::rethrow_exception(driver_error);
  {
    std::lock_guard<std::mutex> lock(run.done_mutex);
    if (run.error) std::rethrow_exception(run.error);
  }
  return run.stats;
}

}  // namespace cudalign::engine::sched
