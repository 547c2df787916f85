// Kernel-family equivalence: every registered kernel variant must be
// byte-identical to the legacy loop (tile level) and to run_reference
// (problem level) on everything it claims to run — buses, taps, best cell and
// probe results — across modes, feature combinations, odd tile shapes and
// boundary corners.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <regex>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "engine/executor.hpp"
#include "engine/kernel_registry.hpp"
#include "test_util.hpp"

namespace cudalign {
namespace {

using engine::BusCell;
using engine::KernelId;
using engine::KernelVariant;
using engine::Recurrence;
using engine::TileJob;
using engine::TileResult;
using engine::TileScratch;
using test::rand_seq;

scoring::Scheme paper() { return scoring::Scheme::paper_defaults(); }

/// A self-contained tile problem: owns the sequences and bus buffers so each
/// kernel variant can run on a fresh copy.
struct TileCase {
  std::string name;
  Index r0 = 0, r1 = 0, c0 = 0, c1 = 0;
  seq::Sequence a, b;
  Recurrence recurrence;
  std::vector<BusCell> hbus, vbus_in;
  std::vector<Index> tap_cols;
  bool track_best = false;
  std::optional<Score> find_value;
};

struct TileOutputs {
  std::vector<BusCell> hbus, vbus_out;
  TileResult result;
};

/// A job view of the case, running on the caller's copies of the output
/// buses (fresh copies keep every variant's run independent).
TileJob make_job(const TileCase& tc, std::vector<BusCell>& hbus, std::vector<BusCell>& vbus_out) {
  hbus = tc.hbus;
  vbus_out.assign(tc.vbus_in.size(), BusCell{});
  TileJob job;
  job.r0 = tc.r0;
  job.r1 = tc.r1;
  job.c0 = tc.c0;
  job.c1 = tc.c1;
  job.a = tc.a.bases();
  job.b = tc.b.bases();
  job.recurrence = &tc.recurrence;
  job.hbus = hbus;
  job.vbus_in = tc.vbus_in;
  job.vbus_out = vbus_out;
  job.tap_cols = tc.tap_cols;
  job.track_best = tc.track_best;
  job.find_value = tc.find_value;
  return job;
}

TileOutputs run_variant(const TileCase& tc, const KernelVariant& variant) {
  TileOutputs out;
  const TileJob job = make_job(tc, out.hbus, out.vbus_out);
  TileScratch scratch;
  out.result = variant.run(job, scratch);
  return out;
}

bool variant_accepts(const TileCase& tc, const KernelVariant& variant) {
  std::vector<BusCell> hbus, vbus_out;
  return variant.can_run(make_job(tc, hbus, vbus_out));
}

void expect_identical(const TileOutputs& expected, const TileOutputs& got,
                      const std::string& label) {
  EXPECT_EQ(expected.hbus, got.hbus) << label << ": horizontal bus differs";
  EXPECT_EQ(expected.vbus_out, got.vbus_out) << label << ": vertical bus differs";
  EXPECT_EQ(expected.result.taps, got.result.taps) << label << ": taps differ";
  EXPECT_EQ(expected.result.best.score, got.result.best.score) << label;
  EXPECT_EQ(expected.result.best.i, got.result.best.i) << label;
  EXPECT_EQ(expected.result.best.j, got.result.best.j) << label;
  EXPECT_EQ(expected.result.found, got.result.found) << label;
  EXPECT_EQ(expected.result.found_i, got.result.found_i) << label;
  EXPECT_EQ(expected.result.found_j, got.result.found_j) << label;
  EXPECT_EQ(expected.result.cells, got.result.cells) << label;
}

/// Runs every eligible registry variant on the case and compares against the
/// legacy loop byte for byte. Returns how many variants (beyond legacy) ran.
int check_all_variants(const TileCase& tc) {
  const KernelVariant& legacy = engine::kernel_info(KernelId::kLegacy);
  const TileOutputs expected = run_variant(tc, legacy);
  int ran = 0;
  for (const KernelVariant& variant : engine::kernel_registry()) {
    if (variant.id == KernelId::kLegacy) continue;
    if (!variant_accepts(tc, variant)) continue;
    ++ran;
    const TileOutputs got = run_variant(tc, variant);
    expect_identical(expected, got, tc.name + " / " + variant.name);
  }
  return ran;
}

BusCell random_bus_cell(Rng& rng, bool local) {
  const Score h = local ? static_cast<Score>(rng.below(60))
                        : static_cast<Score>(rng.below(100)) - 40;
  const Score gap = rng.chance(0.2) ? kNegInf : static_cast<Score>(rng.below(80)) - 20;
  return BusCell{h, gap};
}

TileCase make_case(Rng& rng, Index rows, Index w, int mode, bool best, bool taps, bool find,
                   const scoring::Scheme& scheme, const std::string& name) {
  TileCase tc;
  tc.name = name;
  tc.r0 = static_cast<Index>(rng.below(5));
  tc.c0 = static_cast<Index>(rng.below(5));
  tc.r1 = tc.r0 + rows;
  tc.c1 = tc.c0 + w;
  tc.a = rand_seq(tc.r1, rng.next());
  tc.b = rand_seq(tc.c1, rng.next());
  const bool local = mode == 0;
  if (local) {
    tc.recurrence = Recurrence::local(scheme);
  } else if (mode == 1) {
    tc.recurrence = Recurrence::global_start(dp::CellState::kH, scheme);
  } else if (mode == 2) {
    tc.recurrence = Recurrence::global_start(dp::CellState::kE, scheme);
  } else if (mode == 3) {
    tc.recurrence = Recurrence::global_end(dp::CellState::kF, scheme);
  } else {
    tc.recurrence = Recurrence::global_end(dp::CellState::kE, scheme);
  }
  tc.hbus.resize(static_cast<std::size_t>(w) + 1);
  for (auto& cell : tc.hbus) cell = random_bus_cell(rng, local);
  tc.vbus_in.resize(static_cast<std::size_t>(rows) + 1);
  for (auto& cell : tc.vbus_in) cell = random_bus_cell(rng, local);
  if (taps && w >= 1) {
    for (Index c = tc.c0 + 1; c <= tc.c1; ++c) {
      if (rng.chance(0.15)) tc.tap_cols.push_back(c);
    }
    if (tc.tap_cols.empty()) tc.tap_cols.push_back(tc.c0 + 1 + static_cast<Index>(rng.below(w)));
  }
  tc.track_best = best;
  if (find) tc.find_value = static_cast<Score>(rng.below(30));
  return tc;
}

// Every (mode, feature) combination over a fixed set of odd shapes.
TEST(KernelEquivalence, FeatureMatrixAcrossShapes) {
  Rng rng(2024);
  const std::vector<std::pair<Index, Index>> shapes = {
      {1, 1}, {1, 9}, {9, 1}, {3, 4}, {7, 13}, {8, 8}, {16, 16}, {5, 33}, {33, 5}, {40, 64}};
  int vector_runs = 0;
  for (const auto& [rows, w] : shapes) {
    for (int mode = 0; mode < 5; ++mode) {
      for (int feat = 0; feat < 8; ++feat) {
        const bool best = feat & 1;
        const bool taps = feat & 2;
        const bool find = feat & 4;
        const std::string name = "shape" + std::to_string(rows) + "x" + std::to_string(w) +
                                 "_mode" + std::to_string(mode) + "_feat" + std::to_string(feat);
        const TileCase tc =
            make_case(rng, rows, w, mode, best, taps, find, paper(), name);
        vector_runs += check_all_variants(tc);
      }
    }
  }
  // The matrix must actually exercise the specialized kernels, vector ones
  // included (local plain/best cases with in-range buses).
  EXPECT_GT(vector_runs, 100);
}

// Random fuzz over shapes, schemes and bus contents.
TEST(KernelEquivalence, FuzzRandomTiles) {
  Rng rng(77);
  const std::vector<scoring::Scheme> schemes = {paper(), scoring::Scheme{2, -1, 3, 1},
                                                scoring::Scheme{3, -2, 7, 2}};
  for (int iter = 0; iter < 200; ++iter) {
    const Index rows = 1 + static_cast<Index>(rng.below(40));
    const Index w = 1 + static_cast<Index>(rng.below(40));
    const int mode = static_cast<int>(rng.below(5));
    const TileCase tc = make_case(rng, rows, w, mode, rng.chance(0.5), rng.chance(0.4),
                                  rng.chance(0.3), schemes[iter % schemes.size()],
                                  "fuzz" + std::to_string(iter));
    check_all_variants(tc);
  }
}

// The 16-bit kernel must refuse tiles whose scores could leave its lanes, and
// dispatch must quietly fall back to an exact variant.
TEST(KernelEquivalence, Vector16OverflowFallsBackToWideKernel) {
  Rng rng(99);
  TileCase tc = make_case(rng, 24, 24, 0, true, false, false, paper(), "overflow");
  // A bus value near the int16 ceiling makes the reachable-score bound fail.
  tc.hbus[5].h = 30000;
  const KernelVariant* v16 = engine::find_kernel("v16-local+best");
  ASSERT_NE(v16, nullptr);
  EXPECT_FALSE(variant_accepts(tc, *v16));
  const KernelVariant* v32 = engine::find_kernel("v32-local+best");
  ASSERT_NE(v32, nullptr);
  ASSERT_TRUE(variant_accepts(tc, *v32));
  expect_identical(run_variant(tc, engine::kernel_info(KernelId::kLegacy)),
                   run_variant(tc, *v32), "overflow/v32");

  // Oversized penalties are rejected up front too.
  TileCase big = make_case(rng, 8, 8, 0, true, false, false,
                           scoring::Scheme{5000, -5000, 5000, 5000}, "big-scheme");
  EXPECT_FALSE(variant_accepts(big, *v16));
}

// Sentinel H inputs (unreachable states) drift below kNegInf in 32-bit
// arithmetic; the 16-bit kernel cannot reproduce that and must refuse.
TEST(KernelEquivalence, Vector16RejectsSentinelHInputs) {
  Rng rng(123);
  TileCase tc = make_case(rng, 16, 16, 0, true, false, false, paper(), "sentinel-h");
  tc.vbus_in[3].h = kNegInf;
  const KernelVariant* v16 = engine::find_kernel("v16-local+best");
  ASSERT_NE(v16, nullptr);
  EXPECT_FALSE(variant_accepts(tc, *v16));
  // The 32-bit kernel performs the exact sentinel arithmetic and stays in.
  const KernelVariant* v32 = engine::find_kernel("v32-local+best");
  ASSERT_NE(v32, nullptr);
  ASSERT_TRUE(variant_accepts(tc, *v32));
  expect_identical(run_variant(tc, engine::kernel_info(KernelId::kLegacy)),
                   run_variant(tc, *v32), "sentinel-h/v32");
}

// ---------------------------------------------------------------------------
// Problem level: run_wavefront pinned to each variant vs run_reference.
// ---------------------------------------------------------------------------

/// Pins a kernel for the process while in scope ("" = automatic). The whole
/// suite shares one process, so the pin is cleared on every exit path.
class ScopedKernelPin {
 public:
  explicit ScopedKernelPin(const std::string& kernel) { engine::set_kernel_override(kernel); }
  ~ScopedKernelPin() { engine::set_kernel_override(""); }
  ScopedKernelPin(const ScopedKernelPin&) = delete;
  ScopedKernelPin& operator=(const ScopedKernelPin&) = delete;
};

engine::RunResult run_pinned(const std::string& kernel, Index m, Index n, std::uint64_t seed) {
  const auto a = rand_seq(m, seed);
  const auto b = rand_seq(n, seed ^ 0xbeef);
  engine::ProblemSpec spec;
  spec.a = a.bases();
  spec.b = b.bases();
  spec.grid = engine::GridSpec{3, 8, 4, 1};  // strip_rows 32, chunks ~n/3.
  spec.recurrence = Recurrence::local(paper());
  const ScopedKernelPin pin(kernel);
  return engine::run_wavefront(spec, engine::Hooks{});
}

TEST(KernelDispatch, EveryVariantMatchesReferenceOnLocalProblems) {
  const Index m = 150, n = 170;
  const auto a = rand_seq(m, 31337);
  const auto b = rand_seq(n, 31337 ^ 0xbeef);
  engine::ProblemSpec spec;
  spec.a = a.bases();
  spec.b = b.bases();
  spec.grid = engine::GridSpec{3, 8, 4, 1};
  spec.recurrence = Recurrence::local(paper());
  const auto expected = engine::run_reference(spec, engine::Hooks{});
  for (const KernelVariant& variant : engine::kernel_registry()) {
    const auto run = run_pinned(variant.name, m, n, 31337);
    EXPECT_EQ(run.best.score, expected.best.score) << variant.name;
    EXPECT_EQ(run.best.i, expected.best.i) << variant.name;
    EXPECT_EQ(run.best.j, expected.best.j) << variant.name;
    EXPECT_EQ(run.stats.cells, static_cast<WideScore>(m) * n) << variant.name;
  }
}

TEST(KernelDispatch, PinnedVariantActuallyRunsAndIsCounted) {
  const auto run = run_pinned("v16-local+best", 160, 180, 4242);
  const auto& tally =
      run.stats.kernels[static_cast<std::size_t>(KernelId::kVec16LocalBest)];
  EXPECT_GT(tally.tiles, 0);
  EXPECT_GT(tally.cells, 0);
  // Tallies are complete: every non-pruned tile is attributed to a variant.
  Index tiles = 0;
  WideScore cells = 0;
  for (const auto& t : run.stats.kernels) {
    tiles += t.tiles;
    cells += t.cells;
  }
  EXPECT_EQ(tiles, run.stats.tiles - run.stats.pruned_tiles);
  EXPECT_EQ(cells, run.stats.cells);
  EXPECT_FALSE(engine::kernel_usage_summary(run.stats).empty());
}

TEST(KernelDispatch, AutomaticSelectionPrefersStripedKernelOnStage1Tiles) {
  // Small random Stage-1 tiles sit inside the 8-bit envelope, so the cheapest
  // variant — the striped 8-bit sweep — wins the automatic selection.
  const auto run = run_pinned("", 160, 180, 555);
  const auto& striped8 =
      run.stats.kernels[static_cast<std::size_t>(KernelId::kStriped8LocalBest)];
  EXPECT_GT(striped8.tiles, 0) << engine::kernel_usage_summary(run.stats);
}

TEST(KernelDispatch, UnknownOverrideNameIsRejected) {
  EXPECT_THROW(engine::set_kernel_override("no-such-kernel"), Error);
  EXPECT_EQ(engine::kernel_override(), nullptr);
}

TEST(KernelDispatch, ProcessOverridePinsSelection) {
  const auto run = run_pinned("legacy", 100, 120, 777);
  EXPECT_EQ(engine::kernel_override(), nullptr);  // The pin ended with its scope.
  const auto& legacy = run.stats.kernels[static_cast<std::size_t>(KernelId::kLegacy)];
  EXPECT_EQ(legacy.tiles, run.stats.tiles - run.stats.pruned_tiles)
      << engine::kernel_usage_summary(run.stats);
}

// ---------------------------------------------------------------------------
// Lane-envelope boundaries: the narrow-kernel prechecks must admit every job
// they are exact for (no over-rejection at the exact boundary) and refuse one
// step beyond it.
// ---------------------------------------------------------------------------

TEST(LaneEnvelope, Int16CeilingBoundaryStaysAdmittedAndExact) {
  Rng rng(4242);
  TileCase tc = make_case(rng, 24, 24, 0, true, false, false, paper(), "ceiling-16");
  // paper match = 1, max(rows, w) = 24: the reachable-score bound is
  // max_h + 24, so max_h = 27976 lands exactly on the 28000 ceiling.
  tc.hbus[5].h = 27976;
  const KernelVariant* v16 = engine::find_kernel("v16-local+best");
  const KernelVariant* s16 = engine::find_kernel("striped16-local+best");
  ASSERT_NE(v16, nullptr);
  ASSERT_NE(s16, nullptr);
  EXPECT_TRUE(variant_accepts(tc, *v16));
  EXPECT_TRUE(variant_accepts(tc, *s16));
  const TileOutputs expected = run_variant(tc, engine::kernel_info(KernelId::kLegacy));
  expect_identical(expected, run_variant(tc, *v16), "ceiling-16/v16");
  expect_identical(expected, run_variant(tc, *s16), "ceiling-16/striped16");
  // One above the boundary the bound can leave the lanes: both must refuse.
  tc.hbus[5].h = 27977;
  EXPECT_FALSE(variant_accepts(tc, *v16));
  EXPECT_FALSE(variant_accepts(tc, *s16));
}

TEST(LaneEnvelope, Int16GapFloorBoundary) {
  Rng rng(4243);
  TileCase tc = make_case(rng, 20, 20, 0, true, false, false, paper(), "floor-16");
  // A gap-chain value grazing the real floor: admitted and bit-exact (its
  // decayed continuations lose to genuine >= -gap_first values before any
  // published cell, so lane drift below the floor is unobservable).
  tc.vbus_in[4].gap = -4096;
  const KernelVariant* v16 = engine::find_kernel("v16-local+best");
  const KernelVariant* s16 = engine::find_kernel("striped16-local+best");
  ASSERT_NE(v16, nullptr);
  ASSERT_NE(s16, nullptr);
  EXPECT_TRUE(variant_accepts(tc, *v16));
  EXPECT_TRUE(variant_accepts(tc, *s16));
  const TileOutputs expected = run_variant(tc, engine::kernel_info(KernelId::kLegacy));
  expect_identical(expected, run_variant(tc, *v16), "floor-16/v16");
  expect_identical(expected, run_variant(tc, *s16), "floor-16/striped16");
  tc.vbus_in[4].gap = -4097;
  EXPECT_FALSE(variant_accepts(tc, *v16));
  EXPECT_FALSE(variant_accepts(tc, *s16));
}

TEST(LaneEnvelope, Int8CeilingEscalatesToWiderLanes) {
  Rng rng(4244);
  TileCase tc = make_case(rng, 16, 16, 0, true, false, false, paper(), "ceiling-8");
  // Reachable-score bound = max_h + 16; 84 lands exactly on the 100 ceiling.
  tc.hbus[3].h = 84;
  const KernelVariant* s8 = engine::find_kernel("striped8-local+best");
  const KernelVariant* s16 = engine::find_kernel("striped16-local+best");
  ASSERT_NE(s8, nullptr);
  ASSERT_NE(s16, nullptr);
  EXPECT_TRUE(variant_accepts(tc, *s8));
  const TileOutputs expected = run_variant(tc, engine::kernel_info(KernelId::kLegacy));
  expect_identical(expected, run_variant(tc, *s8), "ceiling-8/striped8");
  // One above: the 8-bit lanes could overflow, so the precheck escalates the
  // tile to the 16-bit variant, which stays exact.
  tc.hbus[3].h = 85;
  EXPECT_FALSE(variant_accepts(tc, *s8));
  ASSERT_TRUE(variant_accepts(tc, *s16));
  expect_identical(run_variant(tc, engine::kernel_info(KernelId::kLegacy)),
                   run_variant(tc, *s16), "ceiling-8-escalated/striped16");
}

TEST(LaneEnvelope, Int8GapFloorEscalatesToWiderLanes) {
  Rng rng(4245);
  TileCase tc = make_case(rng, 16, 16, 0, true, false, false, paper(), "floor-8");
  tc.hbus[2].gap = -64;  // Exactly the 8-bit real floor: still admitted.
  const KernelVariant* s8 = engine::find_kernel("striped8-local+best");
  const KernelVariant* s16 = engine::find_kernel("striped16-local+best");
  ASSERT_NE(s8, nullptr);
  ASSERT_NE(s16, nullptr);
  EXPECT_TRUE(variant_accepts(tc, *s8));
  expect_identical(run_variant(tc, engine::kernel_info(KernelId::kLegacy)),
                   run_variant(tc, *s8), "floor-8/striped8");
  tc.hbus[2].gap = -65;
  EXPECT_FALSE(variant_accepts(tc, *s8));
  ASSERT_TRUE(variant_accepts(tc, *s16));
  expect_identical(run_variant(tc, engine::kernel_info(KernelId::kLegacy)),
                   run_variant(tc, *s16), "floor-8-escalated/striped16");
}

// ---------------------------------------------------------------------------
// ISA dispatch: every compiled backend must produce byte-identical tiles.
// ---------------------------------------------------------------------------

TEST(StripedIsa, EveryCompiledBackendMatchesLegacyByteForByte) {
  const std::vector<engine::SimdIsa> isas = {engine::SimdIsa::kGeneric, engine::SimdIsa::kSse2,
                                             engine::SimdIsa::kAvx2, engine::SimdIsa::kAvx512};
  Rng rng(5150);
  std::vector<TileCase> cases;
  for (int iter = 0; iter < 12; ++iter) {
    const Index rows = 1 + static_cast<Index>(rng.below(40));
    const Index w = 1 + static_cast<Index>(rng.below(70));
    cases.push_back(
        make_case(rng, rows, w, 0, true, false, false, paper(), "isa" + std::to_string(iter)));
  }
  int forced = 0;
  for (const engine::SimdIsa isa : isas) {
    try {
      engine::set_simd_isa_override(isa);
    } catch (const Error&) {
      continue;  // Backend not compiled in / CPU lacks it; nothing to force.
    }
    ++forced;
    for (const TileCase& tc : cases) {
      const TileOutputs expected = run_variant(tc, engine::kernel_info(KernelId::kLegacy));
      for (const char* name : {"striped8-local+best", "striped16-local+best"}) {
        const KernelVariant* variant = engine::find_kernel(name);
        ASSERT_NE(variant, nullptr) << name;
        if (!variant_accepts(tc, *variant)) continue;
        expect_identical(expected, run_variant(tc, *variant),
                         tc.name + " / " + name + " / " +
                             std::string(engine::simd_isa_name(isa)));
      }
    }
  }
  engine::clear_simd_isa_override();
  EXPECT_GE(forced, 1);  // The generic baseline is always available.
}

TEST(StripedIsa, ForcedGenericBaselineMatchesReferenceProblemLevel) {
  engine::set_simd_isa_override(engine::SimdIsa::kGeneric);
  const auto run = run_pinned("striped16-local+best", 150, 170, 6001);
  engine::clear_simd_isa_override();
  const auto ref = run_pinned("legacy", 150, 170, 6001);
  EXPECT_EQ(run.best.score, ref.best.score);
  EXPECT_EQ(run.best.i, ref.best.i);
  EXPECT_EQ(run.best.j, ref.best.j);
  const auto& tally = run.stats.kernels[static_cast<std::size_t>(KernelId::kStriped16LocalBest)];
  EXPECT_GT(tally.tiles, 0) << engine::kernel_usage_summary(run.stats);
}

// The executor run inline (one worker) and on a four-thread pool must flush
// byte-identical special rows with the striped kernel pinned.
TEST(StripedIsa, CrossExecutorSpecialRowsIdenticalWithStripedPinned) {
  const auto a = rand_seq(200, 7007);
  const auto b = rand_seq(230, 7008);
  const ScopedKernelPin pin("striped16-local+best");
  auto run_one = [&](std::size_t workers) {
    engine::ProblemSpec spec;
    spec.a = a.bases();
    spec.b = b.bases();
    spec.grid = engine::GridSpec{3, 8, 4, 1};
    spec.recurrence = Recurrence::local(paper());
    std::map<Index, std::vector<BusCell>> rows;
    engine::Hooks hooks;
    hooks.special_row_interval = 3;
    hooks.on_special_row = [&](Index row, std::span<const BusCell> cells, const dp::LocalBest&) {
      rows[row] = std::vector<BusCell>(cells.begin(), cells.end());
    };
    ThreadPool pool(workers);
    const auto result = engine::run_wavefront(spec, hooks, &pool);
    const auto& tally =
        result.stats.kernels[static_cast<std::size_t>(KernelId::kStriped16LocalBest)];
    EXPECT_GT(tally.tiles, 0) << engine::kernel_usage_summary(result.stats);
    return rows;
  };
  const auto inline_rows = run_one(1);
  const auto pooled_rows = run_one(4);
  ASSERT_EQ(inline_rows.size(), pooled_rows.size());
  for (const auto& [row, cells] : inline_rows) {
    const auto it = pooled_rows.find(row);
    ASSERT_NE(it, pooled_rows.end()) << "row " << row;
    ASSERT_EQ(cells.size(), it->second.size()) << "row " << row;
    EXPECT_EQ(0, std::memcmp(cells.data(), it->second.data(),
                             cells.size() * sizeof(BusCell)))
        << "row " << row << " bytes differ";
  }
}

// ---------------------------------------------------------------------------
// Environment overrides reject unknown names with an actionable Error on
// every call, instead of silently falling back to automatic selection.
// ---------------------------------------------------------------------------

/// The message of the Error `call` throws ("" if it returns).
template <typename Call>
std::string error_of(Call&& call) {
  try {
    call();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(KernelOverrideEnv, UnknownKernelNameThrowsOnEveryCall) {
  setenv("CUDALIGN_KERNEL", "no-such-kernel", 1);
  const std::string what = error_of([] { engine::reload_kernel_override_from_env(); });
  EXPECT_TRUE(std::regex_search(what, std::regex("unknown kernel name in CUDALIGN_KERNEL.*"
                                                 "no-such-kernel")))
      << what;
  // The message is actionable: it lists every valid kernel name.
  EXPECT_TRUE(std::regex_search(what, std::regex("valid names: legacy.*striped16-local"))) << what;
  // Not cached as "no pin": the next lookup throws the same error.
  EXPECT_EQ(error_of([] { (void)engine::kernel_override(); }), what);
  unsetenv("CUDALIGN_KERNEL");
  engine::reload_kernel_override_from_env();  // Restore the no-override state.
}

TEST(KernelOverrideDeathTest, KnownEnvKernelNameIsAdopted) {
  setenv("CUDALIGN_KERNEL", "striped16-local+best", 1);
  engine::reload_kernel_override_from_env();
  EXPECT_EQ(engine::kernel_override(), engine::find_kernel("striped16-local+best"));
  unsetenv("CUDALIGN_KERNEL");
  engine::reload_kernel_override_from_env();
  EXPECT_EQ(engine::kernel_override(), nullptr);
}

TEST(KernelOverrideEnv, UnknownSimdIsaThrowsOnEveryCall) {
  setenv("CUDALIGN_SIMD", "sse9", 1);
  const std::string what = error_of([] { engine::reload_simd_isa_from_env(); });
  EXPECT_TRUE(std::regex_search(what, std::regex("unknown SIMD ISA in CUDALIGN_SIMD.*sse9")))
      << what;
  EXPECT_EQ(error_of([] { (void)engine::active_simd_isa(); }), what);
  unsetenv("CUDALIGN_SIMD");
  engine::reload_simd_isa_from_env();
}

TEST(KernelOverrideEnv, BadKernelEnvFailsRunOnCallerAndPoolStaysUsable) {
  const auto a = rand_seq(150, 4711);
  const auto b = rand_seq(170, 4712);
  engine::ProblemSpec spec;
  spec.a = a.bases();
  spec.b = b.bases();
  spec.grid = engine::GridSpec{3, 8, 4, 1};
  spec.recurrence = Recurrence::local(paper());
  const engine::RunResult expected = engine::run_reference(spec, engine::Hooks{});
  ThreadPool pool(4);

  setenv("CUDALIGN_KERNEL", "no-such-kernel", 1);
  EXPECT_THROW(engine::reload_kernel_override_from_env(), Error);
  EXPECT_THROW((void)engine::run_wavefront(spec, engine::Hooks{}, &pool), Error);
  unsetenv("CUDALIGN_KERNEL");
  engine::reload_kernel_override_from_env();

  const engine::RunResult run = engine::run_wavefront(spec, engine::Hooks{}, &pool);
  EXPECT_EQ(run.best.score, expected.best.score);
  EXPECT_EQ(run.best.i, expected.best.i);
  EXPECT_EQ(run.best.j, expected.best.j);
  EXPECT_EQ(run.stats.cells, expected.stats.cells);
}

TEST(KernelDispatch, GlobalModeUsesSpecializedScalarSweep) {
  const auto a = rand_seq(90, 9001);
  const auto b = rand_seq(110, 9002);
  engine::ProblemSpec spec;
  spec.a = a.bases();
  spec.b = b.bases();
  spec.grid = engine::GridSpec{2, 8, 2, 1};
  spec.recurrence = Recurrence::global_start(dp::CellState::kH, paper());
  const auto run = engine::run_wavefront(spec, engine::Hooks{});
  const auto& tally =
      run.stats.kernels[static_cast<std::size_t>(KernelId::kScalarGlobal)];
  EXPECT_EQ(tally.tiles, run.stats.tiles) << engine::kernel_usage_summary(run.stats);
}

// Every registered variant must earn its place: automatic dispatch picks it
// for some job the executor can produce. The executor tracks the best exactly
// in local mode, and only the global Stages 2-3 set taps or a probe; the
// shapes straddle the 16x8 vector gate and the buses fit int8, fit only
// int16, or pass int16.
TEST(KernelRegistry, EveryVariantIsAutoSelectedForSomeExecutorJob) {
  ASSERT_EQ(engine::kernel_override(), nullptr);
  Rng rng(1313);
  const std::vector<std::pair<Index, Index>> shapes = {{4, 8}, {7, 40}, {8, 16}, {32, 64}};
  const std::vector<Score> peak_h = {0, 1000, 30000};  // int8 / int16 / int32 lanes.
  std::map<KernelId, int> picks;
  for (const auto& [rows, w] : shapes) {
    for (int mode = 0; mode < 5; ++mode) {
      const bool local = mode == 0;
      for (int feat = 0; feat < 4; ++feat) {
        const bool taps = (feat & 1) != 0;
        const bool find = (feat & 2) != 0;
        if (local && (taps || find)) continue;  // Stage 1 sets neither.
        for (const Score h : peak_h) {
          TileCase tc = make_case(rng, rows, w, mode, local, taps, find, paper(), "roster");
          if (h > 0) tc.hbus[1].h = h;
          std::vector<BusCell> hbus, vbus_out;
          ++picks[engine::select_kernel(make_job(tc, hbus, vbus_out)).id];
        }
      }
    }
  }
  for (const KernelVariant& variant : engine::kernel_registry()) {
    if (variant.id == KernelId::kVec16LocalBest) {
      // Same envelope as striped16-local+best at a higher cost, so it never
      // wins. It stays registered because the benchmark's per-layer metric
      // list names its cell tally.
      EXPECT_EQ(picks[variant.id], 0) << variant.name;
    } else {
      EXPECT_GT(picks[variant.id], 0) << variant.name << " is never auto-selected";
    }
  }
}

// The benchmark's traced run fails when a per-layer metric it lists is
// missing, and it emits one kernel_cells metric per registered variant ('+'
// spelled '_'). So every kernel name BENCHMARK.json lists must stay
// registered.
TEST(KernelRegistry, EveryBenchmarkKernelMetricNamesARegisteredVariant) {
  std::ifstream in(std::string(CUDALIGN_REPO_ROOT) + "/BENCHMARK.json");
  ASSERT_TRUE(in) << "cannot read BENCHMARK.json";
  const std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  std::set<std::string> registered;
  for (const KernelVariant& variant : engine::kernel_registry()) {
    std::string suffix = variant.name;
    std::replace(suffix.begin(), suffix.end(), '+', '_');
    registered.insert(suffix);
  }
  const std::regex metric(R"re("core\.stage\d\.kernel_cells\.([A-Za-z0-9_-]+)")re");
  int listed = 0;
  for (auto it = std::sregex_iterator(text.begin(), text.end(), metric);
       it != std::sregex_iterator(); ++it) {
    ++listed;
    EXPECT_TRUE(registered.count((*it)[1].str()) > 0)
        << (*it)[0].str() << " names no registered kernel variant";
  }
  EXPECT_GT(listed, 0) << "BENCHMARK.json lists no kernel_cells metric";
}

}  // namespace
}  // namespace cudalign
