#include "engine/grid.hpp"

#include <algorithm>

namespace cudalign::engine {

GridSpec fit_to_width(GridSpec spec, Index width) {
  spec.validate();
  CUDALIGN_CHECK(width >= 0, "problem width must be non-negative");
  // CPU chunk target (grid.hpp): chunks of at least kCpuChunkColumns, except
  // that up to kMinCpuBlocks blocks are always allowed.
  spec.blocks = std::min(spec.blocks, std::max(kMinCpuBlocks, width / kCpuChunkColumns));
  if (width >= spec.min_width()) return spec;

  // Largest B with 2*B*T <= width.
  Index b = width / (2 * spec.threads);
  if (b >= spec.multiprocessors) {
    // Round down to a multiple of the multiprocessor count so no SM idles at
    // the end of an external diagonal (paper §V).
    b -= b % spec.multiprocessors;
  }
  spec.blocks = std::max<Index>(1, b);
  return spec;
}

}  // namespace cudalign::engine
