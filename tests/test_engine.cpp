// The wavefront engine vs the single-sweep reference: identical DP values,
// special rows, taps and best cells for every grid shape and worker count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>

#include "common/rng.hpp"
#include "dp/linear.hpp"
#include "engine/executor.hpp"
#include "engine/kernel_registry.hpp"
#include "test_util.hpp"

namespace cudalign {
namespace {

using dp::AlignMode;
using dp::CellState;
using engine::BusCell;
using engine::GridSpec;
using engine::HookAction;
using engine::Hooks;
using engine::ProblemSpec;
using test::rand_seq;

scoring::Scheme paper() { return scoring::Scheme::paper_defaults(); }

GridSpec tiny_grid(Index blocks, Index threads, Index alpha) {
  GridSpec g;
  g.blocks = blocks;
  g.threads = threads;
  g.alpha = alpha;
  g.multiprocessors = 1;
  return g;
}

TEST(Grid, MinimumSizeRequirementShrinksBlocks) {
  GridSpec g = tiny_grid(60, 128, 4);
  g.multiprocessors = 30;
  // width 1000 << 2*8*128 (the chunk target's 8-block floor): B must shrink
  // to 1000/(2*128) = 3.
  const GridSpec fit = engine::fit_to_width(g, 1000);
  EXPECT_EQ(fit.blocks, 3);
  // Wide problems keep the full grid once 60 chunks are CPU-sized.
  EXPECT_EQ(engine::fit_to_width(g, 60 * engine::kCpuChunkColumns).blocks, 60);
  // 2*60*128 satisfies the minimum size, but the chunk target caps B at 8.
  EXPECT_EQ(engine::fit_to_width(g, 2 * 60 * 128).blocks, 8);
}

TEST(Grid, FitPrefersMultiprocessorMultiples) {
  // The minimum-size shrink only binds below the chunk target's 8-block
  // floor, so its multiprocessor rounding shows on boards with few SMs.
  GridSpec g = tiny_grid(240, 64, 4);
  g.multiprocessors = 4;
  // width 1000: B = 1000/128 = 7 -> rounded down to 4.
  EXPECT_EQ(engine::fit_to_width(g, 1000).blocks, 4);
}

TEST(Grid, FitNeverReturnsZeroBlocks) {
  GridSpec g = tiny_grid(8, 64, 4);
  EXPECT_EQ(engine::fit_to_width(g, 1).blocks, 1);
  EXPECT_EQ(engine::fit_to_width(g, 0).blocks, 1);
}

TEST(Grid, ChunkTargetTable) {
  struct Row {
    Index width, stage1_blocks, stage23_blocks;
  };
  // Stage 1 is {240, 64, 4, 30}, Stages 2/3 {60, 128, 4, 30}. Below 2*8*T
  // columns the paper's minimum-size shrink takes over from the 8-block floor.
  const Row table[] = {
      {0, 1, 1},          {100, 1, 1},           {5'000, 8, 8},  {16'383, 8, 8},
      {52'270, 25, 25},   {71'460, 34, 34},      {491'520, 240, 60},
      {46'944'323, 240, 60},  // The paper's human chr21 width: the cap holds.
  };
  for (const Row& row : table) {
    EXPECT_EQ(engine::fit_to_width(GridSpec::stage1_defaults(), row.width).blocks,
              row.stage1_blocks)
        << "stage 1, width " << row.width;
    EXPECT_EQ(engine::fit_to_width(GridSpec::stage23_defaults(), row.width).blocks,
              row.stage23_blocks)
        << "stage 2/3, width " << row.width;
  }
  // At paper scale the chunks are ~195K columns wide (64-bit Index).
  const Index paper_width = 46'944'323;
  const Index blocks = engine::fit_to_width(GridSpec::stage1_defaults(), paper_width).blocks;
  EXPECT_EQ((paper_width + blocks - 1) / blocks, 195'602);
}

TEST(Grid, ChunkTargetLeavesSmallGridsUnchanged) {
  // Every grid of at most kMinCpuBlocks blocks keeps the block count of the
  // paper's rule alone, whatever its width: the test suites' multi-block
  // grids (PipelineFuzz B <= 6, CheckpointResume 3 and 2, EngineEquivalence
  // and EngineFuzz B <= 8, the kernel equivalence suites 2 and 3) do not
  // collapse to fewer chunks.
  const auto paper_rule = [](const GridSpec& g, Index width) {
    if (width >= g.min_width()) return g.blocks;
    Index b = width / (2 * g.threads);
    if (b >= g.multiprocessors) b -= b % g.multiprocessors;
    return std::max<Index>(1, b);
  };
  for (Index blocks = 1; blocks <= engine::kMinCpuBlocks; ++blocks) {
    for (const Index threads : {1, 2, 4, 8, 16, 64, 128}) {
      for (const Index sms : {1, 2, 30}) {
        GridSpec g = tiny_grid(blocks, threads, 2);
        g.multiprocessors = sms;
        for (Index width = 0; width <= 4'096; ++width) {
          ASSERT_EQ(engine::fit_to_width(g, width).blocks, paper_rule(g, width))
              << "B " << blocks << " T " << threads << " SMs " << sms << " width " << width;
        }
        ASSERT_EQ(engine::fit_to_width(g, 1'000'000).blocks, blocks);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Engine vs reference equivalence, parameterized over grid shapes, modes and
// sizes (the key substrate property: the wavefront decomposition with buses
// is exact).
// ---------------------------------------------------------------------------

struct EngineCase {
  Index m, n;
  Index blocks, threads, alpha;
  int mode;  // 0 local, 1 global-H, 2 global-E, 3 global-F.
  std::uint64_t seed;
};

class EngineEquivalence : public ::testing::TestWithParam<EngineCase> {};

struct Captured {
  std::map<Index, std::vector<BusCell>> special_rows;
  std::map<Index, dp::LocalBest> flush_best;
  std::map<std::pair<Index, Index>, std::vector<BusCell>> taps;  // (col, first_row).
};

Captured run_with_hooks(const ProblemSpec& spec, Index interval, std::vector<Index> taps,
                        bool reference, dp::LocalBest* best_out) {
  Captured captured;
  Hooks hooks;
  hooks.special_row_interval = interval;
  if (interval > 0) {
    hooks.on_special_row = [&](Index row, std::span<const BusCell> cells,
                               const dp::LocalBest& best) {
      captured.special_rows[row] = std::vector<BusCell>(cells.begin(), cells.end());
      captured.flush_best[row] = best;
    };
  }
  hooks.tap_columns = std::move(taps);
  if (!hooks.tap_columns.empty()) {
    hooks.on_tap = [&](Index col, Index first_row, std::span<const BusCell> cells) {
      captured.taps[{col, first_row}] = std::vector<BusCell>(cells.begin(), cells.end());
      return HookAction::kContinue;
    };
  }
  const auto result =
      reference ? engine::run_reference(spec, hooks) : engine::run_wavefront(spec, hooks);
  if (best_out) *best_out = result.best;
  return captured;
}

TEST_P(EngineEquivalence, MatchesReferenceSweep) {
  const auto p = GetParam();
  const auto a = rand_seq(p.m, p.seed);
  const auto b = rand_seq(p.n, p.seed ^ 0xf00d);

  ProblemSpec spec;
  spec.a = a.bases();
  spec.b = b.bases();
  spec.grid = tiny_grid(p.blocks, p.threads, p.alpha);
  const CellState start = p.mode == 2   ? CellState::kE
                          : p.mode == 3 ? CellState::kF
                                        : CellState::kH;
  spec.recurrence = p.mode == 0 ? engine::Recurrence::local(paper())
                                : engine::Recurrence::global_start(start, paper());

  const Index interval = 2;
  std::vector<Index> taps{std::max<Index>(1, p.n / 3), std::max<Index>(1, p.n / 2), p.n};
  taps.erase(std::unique(taps.begin(), taps.end()), taps.end());

  dp::LocalBest engine_best, reference_best;
  const Captured engine_out = run_with_hooks(spec, interval, taps, false, &engine_best);
  const Captured reference_out = run_with_hooks(spec, interval, taps, true, &reference_best);

  EXPECT_EQ(engine_best.score, reference_best.score);
  EXPECT_EQ(engine_best.i, reference_best.i);
  EXPECT_EQ(engine_best.j, reference_best.j);

  ASSERT_EQ(engine_out.special_rows.size(), reference_out.special_rows.size());
  for (const auto& [row, cells] : reference_out.special_rows) {
    ASSERT_TRUE(engine_out.special_rows.contains(row)) << "missing special row " << row;
    EXPECT_EQ(engine_out.special_rows.at(row), cells) << "special row " << row;
    EXPECT_EQ(engine_out.flush_best.at(row), reference_out.flush_best.at(row))
        << "best at special row " << row;
  }
  ASSERT_EQ(engine_out.taps.size(), reference_out.taps.size());
  for (const auto& [key, cells] : reference_out.taps) {
    ASSERT_TRUE(engine_out.taps.contains(key))
        << "missing tap col " << key.first << " first_row " << key.second;
    EXPECT_EQ(engine_out.taps.at(key), cells)
        << "tap col " << key.first << " first_row " << key.second;
  }
}

std::vector<EngineCase> engine_cases() {
  std::vector<EngineCase> cases;
  std::uint64_t seed = 11000;
  for (const auto& [blocks, threads, alpha] :
       {std::tuple<Index, Index, Index>{1, 2, 1}, {3, 2, 2}, {4, 4, 1}, {7, 2, 3}}) {
    for (int mode = 0; mode < 4; ++mode) {
      cases.push_back(EngineCase{37, 53, blocks, threads, alpha, mode, seed++});
      cases.push_back(EngineCase{24, 100, blocks, threads, alpha, mode, seed++});
    }
  }
  // Degenerate geometries.
  cases.push_back(EngineCase{1, 40, 4, 2, 2, 0, seed++});
  cases.push_back(EngineCase{40, 1, 4, 2, 2, 0, seed++});
  cases.push_back(EngineCase{5, 5, 8, 8, 4, 1, seed++});  // Grid larger than problem.
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Shapes, EngineEquivalence, ::testing::ValuesIn(engine_cases()),
                         [](const ::testing::TestParamInfo<EngineCase>& tpi) {
                           const auto& p = tpi.param;
                           std::string name("m");
                           name += std::to_string(p.m);
                           name += "_n";
                           name += std::to_string(p.n);
                           name += "_B";
                           name += std::to_string(p.blocks);
                           name += "_T";
                           name += std::to_string(p.threads);
                           name += "_a";
                           name += std::to_string(p.alpha);
                           name += "_mode";
                           name += std::to_string(p.mode);
                           return name;
                         });

// The block count changes how columns are chunked, never a value: on a
// tie-heavy pair (a tandem repeat against two copies of a shorter one, so many
// cells share the best score in several rows and columns) every B gives
// run_reference's best cell — ties broken toward the smallest (i, j) — and
// its special rows. Checkpoints rely on this: they record the spec grid, not
// the chunking fit_to_width derives from it.
TEST(Engine, BlockCountNeverChangesBestOrSpecialRows) {
  // A T-free unit and an all-T spacer: no match can extend a copy, so each
  // copy of repeat_b scores the same at every offset of repeat_a.
  const std::string unit = "ACGGCAG";
  std::string repeat_a, repeat_b;
  for (int k = 0; k < 40; ++k) repeat_a += unit;
  for (int k = 0; k < 12; ++k) repeat_b += unit;
  const std::string spacer(100, 'T');
  const auto a = seq::Sequence::from_string("a", repeat_a);
  const auto b = seq::Sequence::from_string("b", repeat_b + spacer + repeat_b);

  ProblemSpec spec;
  spec.a = a.bases();
  spec.b = b.bases();
  spec.recurrence = engine::Recurrence::local(paper());

  // Tie-heavy: the best score is reached in many cells, in more than one row
  // and more than one column.
  const Score best_score = dp::linear_local_best(spec.a, spec.b, paper()).score;
  std::set<Index> tie_rows, tie_cols;
  int ties = 0;
  (void)dp::sweep_rows(spec.a, spec.b, paper(), AlignMode::kLocal, CellState::kH,
                       [&](const dp::RowView& row) {
                         for (std::size_t j = 1; j < row.h.size(); ++j) {
                           if (row.h[j] != best_score) continue;
                           ++ties;
                           tie_rows.insert(row.i);
                           tie_cols.insert(static_cast<Index>(j));
                         }
                       });
  ASSERT_GE(ties, 20);
  ASSERT_GT(tie_rows.size(), 1u);
  ASSERT_GT(tie_cols.size(), 1u);

  const Index interval = 3;
  spec.grid = tiny_grid(1, 2, 2);
  dp::LocalBest reference_best;
  const Captured reference = run_with_hooks(spec, interval, {}, true, &reference_best);
  ASSERT_FALSE(reference.special_rows.empty());
  for (const Index blocks : {1, 2, 3, 5, 8}) {
    spec.grid = tiny_grid(blocks, 2, 2);
    ASSERT_EQ(engine::fit_to_width(spec.grid, static_cast<Index>(spec.b.size())).blocks, blocks);
    dp::LocalBest best;
    const Captured out = run_with_hooks(spec, interval, {}, false, &best);
    EXPECT_EQ(best, reference_best) << "B " << blocks;
    EXPECT_EQ(out.special_rows, reference.special_rows) << "B " << blocks;
    EXPECT_EQ(out.flush_best, reference.flush_best) << "B " << blocks;
  }
}

// Fuzz: random geometry, grids, modes and tap sets, engine vs reference.
class EngineFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineFuzz, RandomConfigurationMatchesReference) {
  Rng rng(GetParam());
  const Index m = 1 + static_cast<Index>(rng.below(120));
  const Index n = 1 + static_cast<Index>(rng.below(120));
  const auto a = rand_seq(m, rng.next());
  const auto b = rand_seq(n, rng.next());

  ProblemSpec spec;
  spec.a = a.bases();
  spec.b = b.bases();
  spec.grid = tiny_grid(1 + static_cast<Index>(rng.below(8)), 1 + static_cast<Index>(rng.below(6)),
                        1 + static_cast<Index>(rng.below(4)));
  const int mode = static_cast<int>(rng.below(4));
  const CellState start = mode == 2 ? CellState::kE : mode == 3 ? CellState::kF : CellState::kH;
  spec.recurrence = mode == 0 ? engine::Recurrence::local(paper())
                              : engine::Recurrence::global_start(start, paper());

  // Random ascending unique tap set.
  std::vector<Index> taps;
  for (Index c = 1; c <= n; ++c) {
    if (rng.chance(0.05)) taps.push_back(c);
  }
  const Index interval = 1 + static_cast<Index>(rng.below(4));

  dp::LocalBest eb, rb;
  const Captured engine_out = run_with_hooks(spec, interval, taps, false, &eb);
  const Captured reference_out = run_with_hooks(spec, interval, taps, true, &rb);
  EXPECT_EQ(eb.score, rb.score);
  EXPECT_EQ(eb.i, rb.i);
  EXPECT_EQ(eb.j, rb.j);
  EXPECT_EQ(engine_out.special_rows, reference_out.special_rows);
  EXPECT_EQ(engine_out.flush_best, reference_out.flush_best);
  EXPECT_EQ(engine_out.taps, reference_out.taps);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineFuzz, ::testing::Range<std::uint64_t>(1, 33));

TEST(Engine, DeterministicAcrossWorkerCounts) {
  const auto a = rand_seq(120, 501);
  const auto b = rand_seq(130, 502);
  ProblemSpec spec;
  spec.a = a.bases();
  spec.b = b.bases();
  spec.grid = tiny_grid(5, 4, 2);
  spec.recurrence = engine::Recurrence::local(paper());

  ThreadPool one(1), four(4);
  Hooks hooks;
  const auto r1 = engine::run_wavefront(spec, hooks, &one);
  const auto r4 = engine::run_wavefront(spec, hooks, &four);
  EXPECT_EQ(r1.best.score, r4.best.score);
  EXPECT_EQ(r1.best.i, r4.best.i);
  EXPECT_EQ(r1.best.j, r4.best.j);
  EXPECT_EQ(r1.stats.cells, r4.stats.cells);
}

TEST(Engine, LocalBestMatchesLinearReference) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const auto pair = seq::make_related_pair(150, 160, 600 + seed);
    ProblemSpec spec;
    spec.a = pair.s0.bases();
    spec.b = pair.s1.bases();
    spec.grid = tiny_grid(3, 8, 2);
    spec.recurrence = engine::Recurrence::local(paper());
    const auto run = engine::run_wavefront(spec, Hooks{});
    const auto expected = dp::linear_local_best(pair.s0.bases(), pair.s1.bases(), paper());
    EXPECT_EQ(run.best.score, expected.score);
    EXPECT_EQ(run.best.i, expected.i);
    EXPECT_EQ(run.best.j, expected.j);
  }
}

TEST(Engine, CellsCountIsExact) {
  const auto a = rand_seq(33, 701);
  const auto b = rand_seq(47, 702);
  ProblemSpec spec;
  spec.a = a.bases();
  spec.b = b.bases();
  spec.grid = tiny_grid(4, 2, 2);
  spec.recurrence = engine::Recurrence::local(paper());
  const auto run = engine::run_wavefront(spec, Hooks{});
  EXPECT_EQ(run.stats.cells, 33 * 47);
  EXPECT_FALSE(run.stopped_early);
}

TEST(Engine, FindValueProbeStopsEarly) {
  // Identical sequences: H == m at the last diagonal cell; probe for a small
  // value must stop long before the full matrix is processed.
  const auto a = rand_seq(200, 801);
  ProblemSpec spec;
  spec.a = a.bases();
  spec.b = a.bases();
  spec.grid = tiny_grid(4, 4, 2);
  spec.recurrence = engine::Recurrence::local(paper());
  Hooks hooks;
  hooks.find_value = 10;
  const auto run = engine::run_wavefront(spec, hooks);
  ASSERT_TRUE(run.found);
  EXPECT_TRUE(run.stopped_early);
  EXPECT_LT(run.stats.cells, 200 * 200);
  // The found cell must actually have H == 10 (verify against the reference).
  const auto full = dp::compute_full(a.bases(), a.bases(), paper(), AlignMode::kLocal);
  EXPECT_EQ(full.at(run.found_i, run.found_j).h, 10);
}

TEST(Engine, TapStopEndsRun) {
  const auto a = rand_seq(100, 901);
  const auto b = rand_seq(100, 902);
  ProblemSpec spec;
  spec.a = a.bases();
  spec.b = b.bases();
  spec.grid = tiny_grid(2, 4, 2);
  spec.recurrence = engine::Recurrence::global_start(CellState::kH, paper());
  Hooks hooks;
  hooks.tap_columns = {50};
  int calls = 0;
  hooks.on_tap = [&](Index, Index first_row, std::span<const BusCell>) {
    ++calls;
    // Stop as soon as rows past 16 arrive.
    return first_row > 16 ? HookAction::kStop : HookAction::kContinue;
  };
  const auto run = engine::run_wavefront(spec, hooks);
  EXPECT_TRUE(run.stopped_early);
  EXPECT_LT(run.stats.cells, 100 * 100);
  EXPECT_GT(calls, 1);
}

TEST(Engine, EmptyProblemDeliversBoundaryTaps) {
  const auto b = rand_seq(3, 1);
  ProblemSpec spec;
  spec.b = b.bases();  // a stays empty: a 0 x 3 problem.
  spec.grid = tiny_grid(2, 2, 2);
  spec.recurrence = engine::Recurrence::global_start(CellState::kH, paper());
  Hooks hooks;
  hooks.tap_columns = {2};
  int calls = 0;
  hooks.on_tap = [&](Index col, Index first_row, std::span<const BusCell> cells) {
    ++calls;
    EXPECT_EQ(col, 2);
    EXPECT_EQ(first_row, 0);
    EXPECT_EQ(cells.size(), 1u);
    EXPECT_EQ(cells[0].h, -(5 + 2));  // Gap run of length 2 on row 0.
    return HookAction::kContinue;
  };
  const auto run = engine::run_wavefront(spec, hooks);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(run.stats.cells, 0);
}

TEST(Engine, TapColumnZeroRejected) {
  const auto a = rand_seq(4, 2);
  ProblemSpec spec;
  spec.a = a.bases();
  spec.b = a.bases();
  spec.grid = tiny_grid(1, 1, 1);
  spec.recurrence = engine::Recurrence::global_start(CellState::kH, paper());
  Hooks hooks;
  hooks.tap_columns = {0};
  hooks.on_tap = [](Index, Index, std::span<const BusCell>) { return HookAction::kContinue; };
  EXPECT_THROW((void)engine::run_wavefront(spec, hooks), Error);
}

TEST(Engine, BusMemoryIsLinear) {
  const auto a = rand_seq(400, 1001);
  const auto b = rand_seq(400, 1002);
  ProblemSpec spec;
  spec.a = a.bases();
  spec.b = b.bases();
  spec.grid = tiny_grid(4, 4, 2);
  spec.recurrence = engine::Recurrence::local(paper());
  const auto run = engine::run_wavefront(spec, Hooks{});
  // Far below quadratic: buses are O(n + B*strip).
  EXPECT_LT(run.stats.bus_bytes, 100u * 1024u);
}

TEST(Engine, UnsortedTapColumnsRejected) {
  ProblemSpec spec;
  spec.recurrence = engine::Recurrence::global_start(CellState::kH, paper());
  spec.grid = tiny_grid(1, 1, 1);
  Hooks hooks;
  hooks.tap_columns = {5, 3};
  hooks.on_tap = [](Index, Index, std::span<const BusCell>) { return HookAction::kContinue; };
  EXPECT_THROW((void)engine::run_wavefront(spec, hooks), Error);
}

TEST(Engine, SpecialRowsNeedSink) {
  ProblemSpec spec;
  spec.recurrence = engine::Recurrence::local(paper());
  spec.grid = tiny_grid(1, 1, 1);
  Hooks hooks;
  hooks.special_row_interval = 2;
  EXPECT_THROW((void)engine::run_wavefront(spec, hooks), Error);
}

// ---------------------------------------------------------------------------
// Schedule independence. Tiles run on the dataflow scheduler in any
// interleaving but retire in a fixed order, so everything observable — best
// cell, cell and prune counts, kernel tallies, every flushed special row byte
// and the best handed with it, every tap segment and the stop point — must
// be identical for any worker count (1 = inline on the caller), ISA and
// kernel pin, and equal to run_reference.
// ---------------------------------------------------------------------------

struct Flush {
  Index row = 0;
  std::vector<BusCell> cells;
  dp::LocalBest best;
};

struct Tap {
  Index col = 0, first_row = 0;
  std::vector<BusCell> cells;

  friend bool operator==(const Tap&, const Tap&) = default;
};

struct ExecRun {
  engine::RunResult result;
  std::vector<Flush> flushes;
  std::vector<Tap> taps;
};

/// Runs `spec` with special rows every `interval` strips and the given taps
/// (stopping once a tap segment starting past `stop_after_row` arrives; 0 =
/// never), on a pool of `workers` threads — or through run_reference when
/// `workers` is 0.
ExecRun run_observed(const ProblemSpec& spec, int workers, Index interval,
                     std::vector<Index> taps = {}, std::optional<Score> probe = {},
                     Index stop_after_row = 0) {
  ExecRun out;
  Hooks hooks;
  hooks.special_row_interval = interval;
  hooks.on_special_row = [&](Index row, std::span<const BusCell> cells,
                             const dp::LocalBest& best) {
    out.flushes.push_back({row, {cells.begin(), cells.end()}, best});
  };
  hooks.tap_columns = std::move(taps);
  hooks.on_tap = [&](Index col, Index first_row, std::span<const BusCell> cells) {
    out.taps.push_back({col, first_row, {cells.begin(), cells.end()}});
    return stop_after_row > 0 && first_row > stop_after_row ? HookAction::kStop
                                                            : HookAction::kContinue;
  };
  hooks.find_value = probe;
  if (workers == 0) {
    out.result = engine::run_reference(spec, hooks);
  } else {
    ThreadPool pool(static_cast<std::size_t>(workers));
    out.result = engine::run_wavefront(spec, hooks, &pool);
  }
  return out;
}

void expect_same_best(const dp::LocalBest& want, const dp::LocalBest& got,
                      const std::string& label) {
  EXPECT_EQ(got.score, want.score) << label;
  EXPECT_EQ(got.i, want.i) << label;
  EXPECT_EQ(got.j, want.j) << label;
}

/// `got` must reproduce `want`'s observable behaviour. The reference has no
/// kernel tallies and prunes nothing, so against it the tallies are skipped
/// and pruned cells count as computed.
void expect_same_run(const ExecRun& want, const ExecRun& got, const std::string& label,
                     bool want_is_reference = false) {
  const engine::RunResult& w = want.result;
  const engine::RunResult& g = got.result;
  expect_same_best(w.best, g.best, label);
  EXPECT_EQ(g.found, w.found) << label;
  EXPECT_EQ(g.found_i, w.found_i) << label;
  EXPECT_EQ(g.found_j, w.found_j) << label;
  EXPECT_EQ(g.stopped_early, w.stopped_early) << label;
  EXPECT_EQ(g.stats.tiles, w.stats.tiles) << label;
  EXPECT_EQ(g.stats.strips, w.stats.strips) << label;
  if (want_is_reference) {
    EXPECT_EQ(g.stats.cells + g.stats.pruned_cells, w.stats.cells) << label;
  } else {
    EXPECT_EQ(g.stats.cells, w.stats.cells) << label;
    EXPECT_EQ(g.stats.pruned_cells, w.stats.pruned_cells) << label;
    EXPECT_EQ(g.stats.pruned_tiles, w.stats.pruned_tiles) << label;
    EXPECT_EQ(g.stats.kernels, w.stats.kernels) << label;
    EXPECT_EQ(g.stats.hbus_bytes, w.stats.hbus_bytes) << label;
    EXPECT_EQ(g.stats.vbus_bytes, w.stats.vbus_bytes) << label;
  }
  EXPECT_TRUE(got.taps == want.taps) << label << ": tap sequences differ";
  ASSERT_EQ(got.flushes.size(), want.flushes.size()) << label;
  for (std::size_t k = 0; k < want.flushes.size(); ++k) {
    EXPECT_EQ(got.flushes[k].row, want.flushes[k].row) << label;
    ASSERT_EQ(got.flushes[k].cells.size(), want.flushes[k].cells.size()) << label;
    EXPECT_EQ(std::memcmp(got.flushes[k].cells.data(), want.flushes[k].cells.data(),
                          want.flushes[k].cells.size() * sizeof(BusCell)),
              0)
        << label << " flushed row " << want.flushes[k].row << " diverged";
    expect_same_best(want.flushes[k].best, got.flushes[k].best,
                     label + " best at row " + std::to_string(want.flushes[k].row));
  }
}

/// Calls `body(isa)` with each SIMD backend pinned that this build and CPU
/// support, then clears the pin.
template <typename Body>
void for_each_available_isa(Body&& body) {
  for (const engine::SimdIsa isa : {engine::SimdIsa::kGeneric, engine::SimdIsa::kSse2,
                                    engine::SimdIsa::kAvx2, engine::SimdIsa::kAvx512}) {
    try {
      engine::set_simd_isa_override(isa);
    } catch (const Error&) {
      continue;  // Backend not compiled in / CPU lacks it.
    }
    body(isa);
  }
  engine::clear_simd_isa_override();
}

TEST(ScheduleIndependence, MatchesReferenceAcrossShapesWorkersPruningIsasAndFlush) {
  std::uint64_t seed = 61000;
  for (const auto& [blocks, threads, alpha] :
       {std::tuple<Index, Index, Index>{1, 2, 1}, {3, 2, 2}, {4, 4, 1}, {7, 2, 3}}) {
    const auto pair = seq::make_related_pair(230, 240, seed++);
    ProblemSpec spec;
    spec.a = pair.s0.bases();
    spec.b = pair.s1.bases();
    spec.grid = tiny_grid(blocks, threads, alpha);
    spec.recurrence = engine::Recurrence::local(paper());
    for (const Index interval : {Index{0}, Index{2}}) {
      const ExecRun reference = run_observed(spec, 0, interval);
      for (const bool prune : {false, true}) {
        spec.block_pruning = prune;
        for_each_available_isa([&](engine::SimdIsa isa) {
          const std::string shape =
              "B=" + std::to_string(blocks) + " T=" + std::to_string(threads) +
              " a=" + std::to_string(alpha) + " interval=" + std::to_string(interval) +
              " prune=" + (prune ? "1" : "0") + " isa=" + std::string(engine::simd_isa_name(isa));
          // Pruned tiles publish lower bounds, so flushed rows of a pruned run
          // differ from the exact DP: there the inline run is the baseline
          // and the reference only checks the best cell.
          const ExecRun inline_run = run_observed(spec, 1, interval);
          expect_same_best(reference.result.best, inline_run.result.best, shape);
          if (!prune) expect_same_run(reference, inline_run, shape, /*want_is_reference=*/true);
          for (const int workers : {2, 4, 8}) {
            expect_same_run(inline_run, run_observed(spec, workers, interval),
                            shape + " workers=" + std::to_string(workers));
          }
        });
      }
    }
  }
}

// A checkpoint carries no schedule: a run resumed from a flushed special row
// on an executor of any width (1/2/4/8 workers) and under any ISA must
// reproduce the uninterrupted inline run's remaining flushes and final best.
TEST(Engine, DataflowResumeFromSpecialRowMatchesFullRunAcrossExecutors) {
  std::uint64_t seed = 61000;
  for (const auto& [blocks, threads, alpha] :
       {std::tuple<Index, Index, Index>{1, 2, 1}, {3, 2, 2}, {4, 4, 1}, {7, 2, 3}}) {
    const auto pair = seq::make_related_pair(230, 240, seed++);
    ProblemSpec spec;
    spec.a = pair.s0.bases();
    spec.b = pair.s1.bases();
    spec.grid = tiny_grid(blocks, threads, alpha);
    spec.recurrence = engine::Recurrence::local(paper());
    for (const bool prune : {false, true}) {
      spec.block_pruning = prune;
      for_each_available_isa([&](engine::SimdIsa isa) {
        const std::string shape =
            "B=" + std::to_string(blocks) + " T=" + std::to_string(threads) +
            " a=" + std::to_string(alpha) + " prune=" + (prune ? "1" : "0") +
            " isa=" + std::string(engine::simd_isa_name(isa));
        const ExecRun full = run_observed(spec, 1, 2);
        ASSERT_GE(full.flushes.size(), 2u) << shape;
        ProblemSpec resumed = spec;
        resumed.start_row = full.flushes[0].row;
        resumed.initial_hbus = full.flushes[0].cells;
        resumed.initial_best = full.flushes[0].best;
        for (const int workers : {1, 2, 4, 8}) {
          const std::string label = shape + " workers=" + std::to_string(workers);
          const ExecRun tail = run_observed(resumed, workers, 2);
          expect_same_best(full.result.best, tail.result.best, label);
          ASSERT_EQ(tail.flushes.size(), full.flushes.size() - 1) << label;
          for (std::size_t k = 0; k < tail.flushes.size(); ++k) {
            const Flush& want = full.flushes[k + 1];
            EXPECT_EQ(tail.flushes[k].row, want.row) << label;
            EXPECT_EQ(tail.flushes[k].cells, want.cells) << label << " row " << want.row;
            expect_same_best(want.best, tail.flushes[k].best, label + " best");
          }
        }
      });
    }
  }
}

/// A Stage-2-shaped problem: reverse global recurrence, B >= 4 chunks, one
/// tap column at the last column (the matching vector) and special rows.
struct Stage2Shape {
  seq::Sequence a, b;
  ProblemSpec spec;
};

Stage2Shape stage2_shape(std::uint64_t seed) {
  Stage2Shape shape{rand_seq(180, seed), rand_seq(96, seed + 1), {}};
  shape.spec.a = shape.a.bases();
  shape.spec.b = shape.b.bases();
  shape.spec.grid = tiny_grid(6, 4, 2);  // 96 >= 2 * 6 * 4: all six chunks stay.
  shape.spec.recurrence = engine::Recurrence::global_end(CellState::kH, paper());
  return shape;
}

/// An H value of `spec`'s recurrence that occurs exactly once in the
/// matrix, at a row >= min_row: a probe that hits late in the run.
Score unique_late_h(const ProblemSpec& spec, Index min_row) {
  std::map<Score, std::pair<int, Index>> seen;  // Value -> (count, first row).
  (void)dp::sweep_rows_from(spec.a, spec.b, spec.recurrence.scheme, spec.recurrence.corner,
                            [&](const dp::RowView& row) {
                              for (std::size_t j = 1; j < row.h.size(); ++j) {
                                auto& [count, first_row] = seen[row.h[j]];
                                if (count++ == 0) first_row = row.i;
                              }
                            });
  for (const auto& [value, where] : seen) {
    if (where.first == 1 && where.second >= min_row) return value;
  }
  ADD_FAILURE() << "no unique H value at row >= " << min_row;
  return 0;
}

TEST(ScheduleIndependence, Stage2ShapedRunIsIdenticalAcrossWorkerCounts) {
  const Stage2Shape shape = stage2_shape(65001);
  ASSERT_GE(engine::fit_to_width(shape.spec.grid, 96).blocks, 4);
  const Score probe = unique_late_h(shape.spec, 100);
  // Probe only, probe + a tap stop, and a tap stop alone.
  for (const auto& [use_probe, stop_after_row] :
       {std::pair<bool, Index>{true, 0}, {true, 60}, {false, 60}}) {
    const std::optional<Score> value = use_probe ? std::optional<Score>(probe) : std::nullopt;
    const ExecRun reference = run_observed(shape.spec, 0, 2, {96}, value, stop_after_row);
    EXPECT_TRUE(reference.result.stopped_early);
    EXPECT_GT(reference.taps.size(), 2u);
    EXPECT_FALSE(reference.flushes.empty());
    const ExecRun one = run_observed(shape.spec, 1, 2, {96}, value, stop_after_row);
    const std::string label = "probe=" + std::to_string(use_probe) +
                              " stop_after_row=" + std::to_string(stop_after_row);
    expect_same_run(reference, one, label + " vs reference", /*want_is_reference=*/true);
    EXPECT_LT(one.result.stats.cells, 180 * 96) << label;
    for (const int workers : {2, 4, 8}) {
      expect_same_run(one, run_observed(shape.spec, workers, 2, {96}, value, stop_after_row),
                      label + " workers=" + std::to_string(workers));
    }
  }
}

TEST(ScheduleIndependence, EarlierDiagonalProbeHitBeatsLaterTapStop) {
  // 40 x 40, strips of 4 rows, four chunks of 10 columns. All mismatches
  // (H = 0) except a planted 5 x 5 block of matches whose corner (16, 8) is
  // the only cell with H = 5: tile (3, 0), external diagonal 3. The tap at
  // column 40 lives in chunk 3 and stops the run at strip 1, i.e. tile
  // (1, 3) on diagonal 4 — retired strip by strip the stop would come first.
  std::string a_text(40, 'A'), b_text(40, 'C');
  a_text.replace(11, 5, "GGGGG");
  b_text.replace(3, 5, "GGGGG");
  const auto a = seq::Sequence::from_string("a", a_text);
  const auto b = seq::Sequence::from_string("b", b_text);
  ProblemSpec spec;
  spec.a = a.bases();
  spec.b = b.bases();
  spec.grid = tiny_grid(4, 2, 2);
  spec.recurrence = engine::Recurrence::local(paper());
  const ExecRun reference = run_observed(spec, 0, 0, {40}, Score{5}, /*stop_after_row=*/4);
  ASSERT_TRUE(reference.result.found);
  EXPECT_EQ(reference.result.found_i, 16);
  EXPECT_EQ(reference.result.found_j, 8);
  // Row 0 and strip 0 (tile (0, 3), diagonal 3, retired before (3, 0)); the
  // stopping segment of strip 1 is never delivered.
  ASSERT_EQ(reference.taps.size(), 2u);
  EXPECT_EQ(reference.taps[1].first_row, 1);
  for (const int workers : {1, 2, 4, 8}) {
    expect_same_run(reference, run_observed(spec, workers, 0, {40}, Score{5}, 4),
                    "workers=" + std::to_string(workers), /*want_is_reference=*/true);
  }
}

TEST(DataflowEquivalence, StealHeavyGridMatchesReference) {
  // Many tiny tiles (200 strips x 8 chunks of height 2) with more workers
  // than chunks: maximizes steals, parking and starvation scans. Primarily a
  // ThreadSanitizer target — the CI TSan lane runs the full suite.
  const auto pair = seq::make_related_pair(400, 420, 8801);
  ProblemSpec spec;
  spec.a = pair.s0.bases();
  spec.b = pair.s1.bases();
  spec.grid = tiny_grid(8, 2, 1);
  spec.recurrence = engine::Recurrence::local(paper());
  spec.block_pruning = true;
  // Pruned tiles publish lower bounds, so the inline run is the baseline
  // for flushed bytes and the reference checks the best cell.
  const ExecRun reference = run_observed(spec, 0, 4);
  const ExecRun inline_run = run_observed(spec, 1, 4);
  const ExecRun dataflow = run_observed(spec, 8, 4);
  expect_same_best(reference.result.best, dataflow.result.best, "steal-heavy");
  expect_same_run(inline_run, dataflow, "steal-heavy vs inline");
  EXPECT_GT(dataflow.result.stats.pruned_tiles, 0);
  EXPECT_EQ(inline_run.result.stats.tiles_stolen, 0);
  EXPECT_EQ(inline_run.result.stats.starvation_waits, 0);
}

TEST(DataflowEquivalence, DegenerateGeometries) {
  for (const auto& [m, n] : {std::pair<Index, Index>{1, 40}, {40, 1}, {5, 5}, {1, 1}}) {
    const auto a = rand_seq(m, 62001);
    const auto b = rand_seq(n, 62002);
    ProblemSpec spec;
    spec.a = a.bases();
    spec.b = b.bases();
    spec.grid = tiny_grid(8, 8, 4);  // Grid larger than the problem.
    spec.recurrence = engine::Recurrence::local(paper());
    expect_same_run(run_observed(spec, 0, 1), run_observed(spec, 4, 1),
                    "m=" + std::to_string(m) + " n=" + std::to_string(n),
                    /*want_is_reference=*/true);
  }
}

TEST(DataflowProgress, PerTileFractionIsMonotoneAndComplete) {
  const auto a = rand_seq(200, 63001);
  const auto b = rand_seq(210, 63002);
  // Strip retirement, and diagonal retirement (a tap column).
  for (const bool with_tap : {false, true}) {
    ProblemSpec spec;
    spec.a = a.bases();
    spec.b = b.bases();
    spec.grid = tiny_grid(4, 4, 2);
    spec.recurrence = engine::Recurrence::local(paper());
    Hooks hooks;
    if (with_tap) {
      hooks.tap_columns = {100};
      hooks.on_tap = [](Index, Index, std::span<const BusCell>) { return HookAction::kContinue; };
    }
    Index last_done = 0, last_total = 0;
    int calls = 0;
    hooks.on_progress = [&](Index done, Index total) {
      EXPECT_GE(done, last_done) << "progress went backwards";
      EXPECT_LE(done, total);
      last_done = done;
      last_total = total;
      ++calls;
    };
    ThreadPool pool(4);
    (void)engine::run_wavefront(spec, hooks, &pool);
    EXPECT_GT(calls, 1) << "with_tap=" << with_tap;
    EXPECT_EQ(last_done, last_total) << "with_tap=" << with_tap;
    EXPECT_GT(last_total, 0) << "with_tap=" << with_tap;
  }
}

TEST(Engine, NestedCallInsidePoolJobRunsInline) {
  // Stage 3 runs one engine problem per partition from inside
  // pool.parallel_for: those runs execute on the calling thread and must
  // match a top-level run exactly.
  const auto pair = seq::make_related_pair(150, 160, 66001);
  ProblemSpec spec;
  spec.a = pair.s0.bases();
  spec.b = pair.s1.bases();
  spec.grid = tiny_grid(4, 4, 2);
  spec.recurrence = engine::Recurrence::global_start(CellState::kH, paper());
  const ExecRun top = run_observed(spec, 4, 1, {40, 160});
  ThreadPool pool(4);
  std::vector<engine::RunResult> nested(8);
  pool.parallel_for(nested.size(), [&](std::size_t k) {
    Hooks hooks;
    hooks.tap_columns = {40, 160};
    hooks.on_tap = [](Index, Index, std::span<const BusCell>) { return HookAction::kContinue; };
    nested[k] = engine::run_wavefront(spec, hooks, &pool);
  });
  for (const engine::RunResult& run : nested) {
    EXPECT_EQ(run.stats.cells, top.result.stats.cells);
    EXPECT_EQ(run.stats.kernels, top.result.stats.kernels);
    EXPECT_EQ(run.stats.tiles_stolen, 0);  // Inline: no graph workers.
  }
}

TEST(Engine, RetireHookThrowingOnPoolWorkerReachesCallerAndPoolRecovers) {
  // Tiles retire on whichever worker completes them, so hooks run on pool
  // threads too. A hook that throws there must surface on the run_wavefront
  // caller, and the same pool must then complete a normal run.
  const auto a = rand_seq(600, 67001);
  const auto b = rand_seq(640, 67002);
  ProblemSpec spec;
  spec.a = a.bases();
  spec.b = b.bases();
  spec.grid = tiny_grid(8, 4, 2);  // 75 strips x 8 blocks.
  spec.recurrence = engine::Recurrence::local(paper());
  ThreadPool pool(4);
  const auto caller = std::this_thread::get_id();
  // Which worker retires a given tile is up to the schedule: retry until a
  // tap lands on a pool worker (the first attempt almost always does).
  bool thrown_on_worker = false;
  for (int attempt = 0; attempt < 20 && !thrown_on_worker; ++attempt) {
    Hooks hooks;
    hooks.tap_columns = {320};
    hooks.on_tap = [&](Index, Index, std::span<const BusCell>) {
      if (std::this_thread::get_id() != caller) throw std::runtime_error("tap sink failed");
      return HookAction::kContinue;
    };
    try {
      (void)engine::run_wavefront(spec, hooks, &pool);
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "tap sink failed");
      thrown_on_worker = true;
    }
  }
  ASSERT_TRUE(thrown_on_worker) << "no tap was ever delivered on a pool worker";

  std::vector<Tap> got_taps, want_taps;
  const auto hooks_into = [](std::vector<Tap>& taps) {
    Hooks hooks;
    hooks.tap_columns = {320};
    hooks.on_tap = [&taps](Index col, Index first_row, std::span<const BusCell> cells) {
      taps.push_back({col, first_row, {cells.begin(), cells.end()}});
      return HookAction::kContinue;
    };
    return hooks;
  };
  const engine::RunResult got = engine::run_wavefront(spec, hooks_into(got_taps), &pool);
  const engine::RunResult want = engine::run_reference(spec, hooks_into(want_taps));
  expect_same_best(want.best, got.best, "after a failed run");
  EXPECT_EQ(got.stats.cells, want.stats.cells);
  EXPECT_EQ(got.stats.tiles, want.stats.tiles);
  EXPECT_FALSE(got.stopped_early);
  EXPECT_TRUE(got_taps == want_taps) << "tap sequences differ";
}

// The checkpoint/resume contract at the engine layer: restarting from a
// flushed special row (start_row + initial_hbus + initial_best) must replay
// the remaining strips exactly — same flushed rows byte for byte, same
// merged best. The pipeline's crash-recovery correctness reduces to this.
TEST(Engine, ResumeFromSpecialRowMatchesFullRun) {
  const auto a = rand_seq(250, 2201);
  const auto b = rand_seq(240, 2202);
  ProblemSpec spec;
  spec.a = a.bases();
  spec.b = b.bases();
  spec.grid = tiny_grid(3, 8, 2);  // Strip height 16.
  spec.recurrence = engine::Recurrence::local(paper());

  const auto collect = [&](ProblemSpec run_spec) {
    std::vector<Flush> flushes;
    Hooks hooks;
    hooks.special_row_interval = 2;  // Every 32 rows.
    hooks.on_special_row = [&](Index row, std::span<const BusCell> bus,
                               const dp::LocalBest& best) {
      flushes.push_back({row, {bus.begin(), bus.end()}, best});
    };
    const auto run = engine::run_wavefront(run_spec, hooks);
    return std::pair{flushes, run.best};
  };

  const auto [full_flushes, full_best] = collect(spec);
  ASSERT_GE(full_flushes.size(), 3u);

  const Flush& middle = full_flushes[1];
  ProblemSpec resumed_spec = spec;
  resumed_spec.start_row = middle.row;
  resumed_spec.initial_hbus = middle.cells;
  resumed_spec.initial_best = middle.best;
  const auto [resumed_flushes, resumed_best] = collect(resumed_spec);

  EXPECT_EQ(resumed_best.score, full_best.score);
  EXPECT_EQ(resumed_best.i, full_best.i);
  EXPECT_EQ(resumed_best.j, full_best.j);
  ASSERT_EQ(resumed_flushes.size(), full_flushes.size() - 2);
  for (std::size_t k = 0; k < resumed_flushes.size(); ++k) {
    const Flush& want = full_flushes[k + 2];
    const Flush& got = resumed_flushes[k];
    EXPECT_EQ(got.row, want.row);
    ASSERT_EQ(got.cells.size(), want.cells.size());
    EXPECT_EQ(std::memcmp(got.cells.data(), want.cells.data(), got.cells.size() * sizeof(BusCell)),
              0)
        << "flushed row " << got.row << " diverged after resume";
    EXPECT_EQ(got.best.score, want.best.score);
    EXPECT_EQ(got.best.i, want.best.i);
    EXPECT_EQ(got.best.j, want.best.j);
  }
}

}  // namespace
}  // namespace cudalign
