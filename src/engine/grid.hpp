// The CUDAlign execution grid (paper §III-C, §IV).
//
// CUDAlign divides the DP matrix into a grid processed in wavefront order:
// row strips of height alpha*T (each CUDA block runs T threads, each thread
// owns alpha rows) by B column chunks. Blocks on the same *external diagonal*
// are independent; the horizontal bus carries (H, F) across strip boundaries
// and the vertical bus carries (H, E) across chunk boundaries.
//
// `fit_to_width` picks the block count of a problem from two rules:
//  1. CPU chunk target. The paper sized B for the GTX 285's 30 SMs; on a CPU
//     a column chunk is one tile kernel call, and the striped kernel needs
//     wide tiles: it runs at about half its peak rate at 217 columns (a
//     52K-column row in 240 chunks) and slows again past ~4K columns, when a
//     row sweep no longer fits L1d (EXPERIMENTS.md "Stage-1 chunk width").
//     So B is at most max(8, width / 2048). The spec's B (240 in Stage 1) is
//     the cap, reached only at paper scale (>= 491,520 columns).
//  2. The paper's *minimum size requirement*: the problem must be at least
//     2*B*T columns wide so same-diagonal blocks never touch the same bus
//     region; when a sub-problem is too narrow the number of blocks is reduced
//     at runtime (paper §V: "The number of blocks may be reduced during runtime
//     in order to satisfy the minimum size requirement in each stage"),
//     preferably to a multiple of the multiprocessor count.
// The result depends on the spec and the width only, never on the thread
// pool, so tile shapes, run reports and checkpoints are the same for every
// worker count.
#pragma once

#include "common/error.hpp"
#include "common/types.hpp"

namespace cudalign::engine {

struct GridSpec {
  Index blocks = 60;            ///< B_k: CUDA blocks (CPU: column chunks).
  Index threads = 128;          ///< T_k: threads per block.
  Index alpha = 4;              ///< Rows per thread.
  Index multiprocessors = 30;   ///< SMs on the modelled board (GTX 285: 30).

  /// Rows processed per strip (the paper's block height alpha*T).
  [[nodiscard]] Index strip_rows() const noexcept { return alpha * threads; }

  /// Minimum problem width for hazard-free shared-bus access (2*B*T).
  [[nodiscard]] Index min_width() const noexcept { return 2 * blocks * threads; }

  void validate() const {
    CUDALIGN_CHECK(blocks > 0, "grid needs at least one block");
    CUDALIGN_CHECK(threads > 0, "grid needs at least one thread per block");
    CUDALIGN_CHECK(alpha > 0, "alpha must be positive");
    CUDALIGN_CHECK(multiprocessors > 0, "multiprocessor count must be positive");
  }

  /// The paper's GTX 285 Stage-1 configuration (alpha = 4, B1 = 240,
  /// T1 = 2^6). B1 = 240 is the cap: `fit_to_width`'s CPU chunk target sets
  /// B below it for any problem narrower than 240 * 2048 columns.
  static constexpr GridSpec stage1_defaults() noexcept { return GridSpec{240, 64, 4, 30}; }
  /// Stage 2/3 configuration (B = 60, T = 2^7).
  static constexpr GridSpec stage23_defaults() noexcept { return GridSpec{60, 128, 4, 30}; }
};

/// Target column-chunk width of the CPU tile kernels (a 2048-column chunk's
/// horizontal-bus segment is 16 KB of 8-byte `BusCell`s, inside L1d).
inline constexpr Index kCpuChunkColumns = 2048;
/// The chunk target never cuts the grid below this many blocks, so small
/// problems and small test grids keep their block counts.
inline constexpr Index kMinCpuBlocks = 8;

/// Caps `spec.blocks` at max(kMinCpuBlocks, width / kCpuChunkColumns), then
/// shrinks it until the minimum size requirement holds for a problem `width`
/// columns wide, preferring multiples of the multiprocessor count (paper §V).
/// Never returns fewer than 1 block; a width of zero is accepted (degenerate
/// problems run on one block).
[[nodiscard]] GridSpec fit_to_width(GridSpec spec, Index width);

}  // namespace cudalign::engine
