#include "engine/sched.hpp"

#include <algorithm>
#include <chrono>
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

/// deps value of a tile that has completed (its inputs count only 0..2).
constexpr std::uint8_t kDone = 0xFF;

/// Shared run state. Tiles are identified as s * blocks + b.
struct GraphRun {
  SchedOptions opt;
  std::int64_t total = 0;
  int workers = 1;

  /// Unsatisfied inputs per tile, (s > 0) + (b > 0), decremented lock-free;
  /// kDone once the tile has completed, stored and read under `mutex`.
  std::vector<std::atomic<std::uint8_t>> deps;

  /// std::deque, not vector: WorkStealingDeque holds atomics and is immovable.
  std::deque<WorkStealingDeque> deques;

  /// Highest unit admitted to run: oldest unretired unit + window. Written by
  /// the retirer under `mutex`; workers read it lock-free for the fast path
  /// and re-check under the mutex before parking a tile.
  std::atomic<Index> admit_limit{0};

  /// The scheduler mutex: deque-overflow spillover, tiles parked past the
  /// admit limit, the retirement cursor and role, and the first error.
  std::mutex mutex;
  std::deque<std::int64_t> injector CUDALIGN_GUARDED_BY(mutex);
  std::vector<std::int64_t> parked CUDALIGN_GUARDED_BY(mutex);
  /// Next tile to retire, in retirement order; total once all have retired.
  std::int64_t next_retire CUDALIGN_GUARDED_BY(mutex) = 0;
  /// True while a worker runs retire calls outside the mutex.
  bool retiring CUDALIGN_GUARDED_BY(mutex) = false;
  std::exception_ptr error CUDALIGN_GUARDED_BY(mutex);
  SchedStats stats CUDALIGN_GUARDED_BY(mutex);

  /// Quiescence epoch + stop flag (early stop or captured exception).
  std::atomic<std::int64_t> tiles_done{0};
  std::atomic<bool> stop{false};

  const std::function<void(Index, Index, int)>* body = nullptr;
  const std::function<bool(Index, Index)>* retire = nullptr;

  void fail(std::exception_ptr e) CUDALIGN_REQUIRES(mutex) {
    if (!error) error = std::move(e);
    stop.store(true, std::memory_order_release);
  }

  void inject(std::int64_t tile) {
    std::lock_guard<std::mutex> lock(mutex);
    injector.push_back(tile);
  }

  void enqueue(int worker, std::int64_t tile) {
    if (!deques[static_cast<std::size_t>(worker)].push(tile)) inject(tile);
  }

  /// `tile` just became dependency-free; run it only if its unit is inside
  /// the window, otherwise park it until retirement releases it.
  void gate_tile(int worker, std::int64_t tile) {
    const Index unit = opt.unit_of(tile);
    if (unit <= admit_limit.load(std::memory_order_acquire)) {
      enqueue(worker, tile);
      return;
    }
    {
      std::lock_guard<std::mutex> lock(mutex);
      // order: relaxed — admit_limit is only stored under the mutex.
      if (unit > admit_limit.load(std::memory_order_relaxed)) {
        parked.push_back(tile);
        return;
      }
    }
    enqueue(worker, tile);
  }

  /// Moves the window to `limit` and releases parked tiles that now fit.
  void open_window(Index limit) CUDALIGN_REQUIRES(mutex) {
    // order: relaxed — admit_limit is only stored under the mutex.
    if (limit <= admit_limit.load(std::memory_order_relaxed)) return;
    admit_limit.store(limit, std::memory_order_release);
    const auto fits = [this, limit](std::int64_t tile) { return opt.unit_of(tile) <= limit; };
    for (std::int64_t tile : parked) {
      if (fits(tile)) injector.push_back(tile);
    }
    std::erase_if(parked, fits);
  }

  /// Marks `tile` done, then — unless another worker holds the role —
  /// retires every done tile in order, stopping at the first one not yet
  /// done. The role is taken and given back under the mutex, after a last
  /// look at the next tile, so a tile marked done while the retirer runs a
  /// retire call is always picked up by it.
  void complete(std::int64_t tile) {
    std::unique_lock<std::mutex> lock(mutex);
    // order: relaxed — the done mark is written and read only under the mutex.
    deps[static_cast<std::size_t>(tile)].store(kDone, std::memory_order_relaxed);
    if (retiring) return;
    retiring = true;
    // order: relaxed — the done mark is written and read only under the mutex.
    while (next_retire < total && !stop.load(std::memory_order_acquire) &&
           deps[static_cast<std::size_t>(next_retire)].load(std::memory_order_relaxed) == kDone) {
      const std::int64_t t = next_retire;
      lock.unlock();
      bool keep_going = true;
      std::exception_ptr retire_error;
      if (*retire) {
        try {
          keep_going = (*retire)(t / opt.blocks, t % opt.blocks);
        } catch (...) {
          retire_error = std::current_exception();
        }
      }
      lock.lock();
      if (retire_error) {
        fail(retire_error);
        break;
      }
      if (!keep_going) {
        stop.store(true, std::memory_order_release);
        break;
      }
      next_retire = opt.next_in_order(t);
      if (next_retire < total) open_window(opt.unit_of(next_retire) + opt.window);
    }
    retiring = false;
  }

  void execute(std::int64_t tile, int worker) {
    const Index s = tile / opt.blocks;
    const Index b = tile % opt.blocks;
    try {
      (*body)(s, b, worker);
    } catch (...) {
      // Successors stay blocked (their inputs were never published) and the
      // tile never retires; the stop flag winds the run down.
      std::lock_guard<std::mutex> lock(mutex);
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
    complete(tile);
  }

  bool pop_injector(std::int64_t* out) {
    std::lock_guard<std::mutex> lock(mutex);
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
          for (int i = 1; i < workers; ++i) {
            if (deques[static_cast<std::size_t>((w + i) % workers)].steal(&tile)) {
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
    std::lock_guard<std::mutex> lock(mutex);
    stats.tiles_executed += local.tiles_executed;
    stats.tiles_stolen += local.tiles_stolen;
    stats.starvation_waits += local.starvation_waits;
  }
};

}  // namespace

int graph_threads(const ThreadPool& pool, Index blocks) {
  const auto pool_workers = static_cast<int>(pool.worker_count());
  return ThreadPool::inside_job() || blocks == 1 || pool_workers <= 1 ? 1 : pool_workers + 1;
}

SchedStats run_tile_graph(const SchedOptions& options, ThreadPool& pool,
                          const std::function<void(Index s, Index b, int worker)>& body,
                          const std::function<bool(Index s, Index b)>& retire) {
  CUDALIGN_CHECK(options.strips > 0 && options.blocks > 0, "tile graph must be non-empty");
  CUDALIGN_CHECK(options.window > 0, "unit window must be positive");
  CUDALIGN_CHECK(body != nullptr, "tile graph needs a body");

  GraphRun run;
  run.opt = options;
  run.total = options.tile_count();
  run.workers = graph_threads(pool, options.blocks);
  run.body = &body;
  run.retire = &retire;
  run.deps = std::vector<std::atomic<std::uint8_t>>(static_cast<std::size_t>(run.total));
  for (Index s = 0; s < options.strips; ++s) {
    for (Index b = 0; b < options.blocks; ++b) {
      const std::uint8_t inputs = s > 0 && b > 0 ? 2 : (s > 0 || b > 0 ? 1 : 0);
      // order: relaxed — pre-start initialization; the job publication publishes it.
      run.deps[static_cast<std::size_t>(options.tile_id(s, b))].store(inputs,
                                                                      std::memory_order_relaxed);
    }
  }
  // order: relaxed — pre-start initialization; the job publication publishes it.
  run.admit_limit.store(options.window, std::memory_order_relaxed);
  // Each in-flight strip contributes at most one ready tile (within-strip
  // execution is sequential), so this capacity is never the limit in
  // practice; overflow spills to the injector anyway.
  const Index in_flight =
      options.window + 1 + (options.diagonal_units() ? options.blocks - 1 : 0);
  const std::size_t deque_capacity = ceil_pow2(static_cast<std::size_t>(in_flight) + 1) * 2;
  for (int w = 0; w < run.workers; ++w) run.deques.emplace_back(deque_capacity);

  // Seed the root: worker 0's deque starts with tile (0, 0).
  (void)run.deques[0].push(0);

  // One iteration per participant; with one, parallel_for runs it inline.
  pool.parallel_for(static_cast<std::size_t>(run.workers),
                    [&run](std::size_t w) { run.worker_loop(static_cast<int>(w)); });

  std::lock_guard<std::mutex> lock(run.mutex);
  if (run.error) std::rethrow_exception(run.error);
  return run.stats;
}

}  // namespace cudalign::engine::sched
