// Layer probes of the traced run: each one calls a single layer's public
// functions directly, so its time and counts belong to that layer alone.
#pragma once

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <vector>

#include "engine/executor.hpp"
#include "engine/kernel_registry.hpp"

namespace perfbench {

using cudalign::Index;
using Clock = std::chrono::steady_clock;

inline double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median of a non-empty sample.
inline double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// engine::run_wavefront on the Stage-1 problem with no hooks (paper Table
/// IV "No Flush"): median seconds over `repeats` runs and the last run.
struct ScoreOnlyProbe {
  double seconds = 0;
  cudalign::engine::RunResult last;
};
[[nodiscard]] ScoreOnlyProbe probe_score_only(const cudalign::engine::ProblemSpec& spec,
                                              cudalign::ThreadPool& pool, int repeats);

/// A tile of the given shape cut from the pair at (r0, c0), with fresh
/// boundary buses for `recurrence`.
struct TileCut {
  cudalign::seq::SequenceView a, b;
  Index r0 = 0, c0 = 0, rows = 0, cols = 0;
};

/// Single-thread GCUPS of `variant.run` on the cut. The job gets the
/// feature set (best/taps/find) for which automatic selection picks
/// `variant`; 0 when no feature set admits it.
[[nodiscard]] double probe_kernel_gcups(const cudalign::engine::KernelVariant& variant,
                                        const cudalign::engine::Recurrence& recurrence,
                                        const TileCut& cut);

/// Replays `rows` rows of `cells` bus cells through a fresh SRA store in
/// `dir`: every put, then every CRC-verified get, each timed.
struct SraProbe {
  double put_mbps = 0;
  double get_mbps = 0;
};
[[nodiscard]] SraProbe probe_sra(const std::filesystem::path& dir, Index rows, Index cells);

/// MB/s of common::crc32 over a buffer of `bytes` bytes.
[[nodiscard]] double probe_crc32_mbps(std::size_t bytes);

}  // namespace perfbench
