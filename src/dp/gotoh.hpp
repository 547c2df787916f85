// Quadratic-space Gotoh dynamic programming (paper §II-A).
//
// This is the exact-reference implementation: it materializes all H/E/F
// values and tracebacks by value inspection. It is used (a) as ground truth
// in tests, (b) by Stage 5 to solve the constant-size partitions produced by
// Stage 4, and (c) by the full-matrix baseline. Memory is O(m*n); callers are
// responsible for keeping inputs small.
#pragma once

#include <vector>

#include "check/checked.hpp"
#include "dp/transcript.hpp"
#include "dp/dp_common.hpp"
#include "seq/sequence.hpp"

namespace cudalign::dp {

/// All (m+1) x (n+1) DP vertices.
class FullMatrices {
 public:
  FullMatrices(Index m, Index n) : m_(m), n_(n), cells_((m + 1) * (n + 1)) {}

  [[nodiscard]] Index m() const noexcept { return m_; }
  [[nodiscard]] Index n() const noexcept { return n_; }
  [[nodiscard]] const CellHEF& at(Index i, Index j) const { return cells_[flat(i, j)]; }
  [[nodiscard]] CellHEF& at(Index i, Index j) { return cells_[flat(i, j)]; }

 private:
  /// Row-major flat offset, overflow-checked: `at` is reachable from the
  /// envelope/bound code paths, so its index math must fail loudly too.
  [[nodiscard]] std::size_t flat(Index i, Index j) const {
    const Index row = check::checked_mul(i, check::checked_add(n_, Index{1}));
    return static_cast<std::size_t>(check::checked_add(row, j));
  }

  Index m_, n_;
  std::vector<CellHEF> cells_;
};

/// Computes every DP vertex. In kLocal mode H floors at zero and `start` must
/// be kH; in kGlobal mode the corner is seeded by start_corner(start).
[[nodiscard]] FullMatrices compute_full(seq::SequenceView a, seq::SequenceView b,
                                        const scoring::Scheme& scheme, AlignMode mode,
                                        CellState start = CellState::kH);

struct LocalBest {
  Score score = 0;
  Index i = 0;  ///< End vertex row (paper's "end position" is this vertex).
  Index j = 0;

  friend bool operator==(const LocalBest&, const LocalBest&) = default;
};

/// Highest H value and its vertex; ties break toward the smallest (i, j) in
/// row-major order (deterministic, and matches the wavefront engine).
[[nodiscard]] LocalBest find_local_best(const FullMatrices& dp);

struct GlobalResult {
  Score score = 0;
  Transcript transcript;
};

/// Global alignment with a traceback, entering in state `start` (gap-open
/// discount per §IV-A) and exiting in state `end`. Throws if the end state is
/// unreachable (e.g. kE with an empty b).
[[nodiscard]] GlobalResult align_global(seq::SequenceView a, seq::SequenceView b,
                                        const scoring::Scheme& scheme,
                                        CellState start = CellState::kH,
                                        CellState end = CellState::kH);

struct LocalResult {
  Score score = 0;
  Index i0 = 0, j0 = 0;  ///< Start vertex of the optimal local alignment.
  Index i1 = 0, j1 = 0;  ///< End vertex.
  Transcript transcript;
};

/// Best local alignment with a traceback (Smith-Waterman phase 2, Figure 2).
[[nodiscard]] LocalResult align_local(seq::SequenceView a, seq::SequenceView b,
                                      const scoring::Scheme& scheme);

}  // namespace cudalign::dp
