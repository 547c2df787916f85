#include "probes.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <vector>

#include "common/crc32.hpp"
#include "sra/sra.hpp"

namespace perfbench {

namespace engine = cudalign::engine;

namespace {

/// Owns the buses of one tile job so the timed loop can restore them.
struct TileJobBuffers {
  std::vector<engine::BusCell> hbus0, hbus, vin, vout;
  std::vector<Index> taps;

  TileJobBuffers(const engine::Recurrence& rec, const TileCut& cut)
      : hbus0(static_cast<std::size_t>(cut.cols) + 1),
        vin(static_cast<std::size_t>(cut.rows) + 1),
        vout(static_cast<std::size_t>(cut.rows) + 1) {
    for (Index j = 0; j <= cut.cols; ++j) hbus0[static_cast<std::size_t>(j)] = rec.top_boundary(j);
    for (Index i = 0; i <= cut.rows; ++i) vin[static_cast<std::size_t>(i)] = rec.left_boundary(i);
    hbus = hbus0;
  }

  engine::TileJob job(const engine::Recurrence& rec, const TileCut& cut, bool best, bool tap,
                      bool find) {
    taps.clear();
    if (tap) taps.push_back(cut.c0 + cut.cols);
    engine::TileJob j;
    j.r0 = cut.r0;
    j.r1 = cut.r0 + cut.rows;
    j.c0 = cut.c0;
    j.c1 = cut.c0 + cut.cols;
    j.a = cut.a;
    j.b = cut.b;
    j.recurrence = &rec;
    j.hbus = hbus;
    j.vbus_in = vin;
    j.vbus_out = vout;
    j.tap_cols = taps;
    j.track_best = best;
    if (find) j.find_value = cudalign::kNegInf / 8;  // Never hit: the full tile is scanned.
    return j;
  }
};

}  // namespace

ScoreOnlyProbe probe_score_only(const engine::ProblemSpec& spec, cudalign::ThreadPool& pool,
                                int repeats) {
  ScoreOnlyProbe probe;
  std::vector<double> samples;
  for (int r = 0; r < repeats; ++r) {
    const auto t0 = Clock::now();
    probe.last = engine::run_wavefront(spec, engine::Hooks{}, &pool);
    samples.push_back(since(t0));
  }
  probe.seconds = median(samples);
  return probe;
}

double probe_kernel_gcups(const engine::KernelVariant& variant,
                          const engine::Recurrence& recurrence, const TileCut& cut) {
  TileJobBuffers buffers(recurrence, cut);
  std::optional<engine::TileJob> chosen;
  for (int features = 0; features < 8 && !chosen; ++features) {
    engine::TileJob job = buffers.job(recurrence, cut, (features & 1) != 0, (features & 2) != 0,
                                      (features & 4) != 0);
    if (engine::select_kernel(job).id == variant.id) chosen = job;
  }
  if (!chosen) return 0;

  engine::TileScratch scratch;
  (void)variant.run(*chosen, scratch);  // Warm-up: scratch and profile allocation.
  std::vector<double> batches;
  const auto start = Clock::now();
  while (batches.size() < 5 || since(start) < 0.25) {
    long iterations = 0;
    const auto t0 = Clock::now();
    double elapsed = 0;
    do {
      std::copy(buffers.hbus0.begin(), buffers.hbus0.end(), buffers.hbus.begin());
      const engine::TileResult result = variant.run(*chosen, scratch);
      if (result.cells != cut.rows * cut.cols) throw std::runtime_error("kernel probe: cell count");
      ++iterations;
      elapsed = since(t0);
    } while (elapsed < 0.04);
    batches.push_back(static_cast<double>(cut.rows) * static_cast<double>(cut.cols) *
                      static_cast<double>(iterations) / elapsed / 1e9);
  }
  return median(batches);
}

SraProbe probe_sra(const std::filesystem::path& dir, Index rows, Index cells) {
  namespace sra = cudalign::sra;
  const std::int64_t row_bytes = cells * static_cast<std::int64_t>(sizeof(engine::BusCell));
  sra::SpecialRowsArea area(dir, std::int64_t{1} << 40, sra::Durability::kFast);
  std::vector<engine::BusCell> row(static_cast<std::size_t>(cells));
  std::vector<std::size_t> ids;
  double put_seconds = 0;
  for (Index r = 0; r < rows; ++r) {
    for (Index j = 0; j < cells; ++j) {
      row[static_cast<std::size_t>(j)] =
          engine::BusCell{static_cast<cudalign::Score>((r * 7919 + j) % 4093),
                          static_cast<cudalign::Score>((r + j * 31) % 2039) - 1000};
    }
    const auto t0 = Clock::now();
    ids.push_back(area.put(sra::RowKey{(r + 1) * 256, 0, cells - 1, 1}, row));
    put_seconds += since(t0);
  }
  double get_seconds = 0;
  for (const std::size_t id : ids) {
    const auto t0 = Clock::now();
    const std::vector<engine::BusCell> back = area.get(id);
    get_seconds += since(t0);
    if (static_cast<Index>(back.size()) != cells) throw std::runtime_error("sra probe: short row");
  }
  const double bytes = static_cast<double>(rows) * static_cast<double>(row_bytes);
  return SraProbe{bytes / put_seconds / 1e6, bytes / get_seconds / 1e6};
}

double probe_crc32_mbps(std::size_t bytes) {
  std::vector<unsigned char> buffer(bytes);
  for (std::size_t k = 0; k < bytes; ++k) buffer[k] = static_cast<unsigned char>(k * 131 + 7);
  std::uint32_t sink = cudalign::common::crc32(buffer.data(), buffer.size());  // Warm-up.
  std::vector<double> batches;
  const auto start = Clock::now();
  while (batches.size() < 5 || since(start) < 0.2) {
    long iterations = 0;
    const auto t0 = Clock::now();
    double elapsed = 0;
    do {
      buffer[0] = static_cast<unsigned char>(sink);  // Each pass depends on the last.
      sink = cudalign::common::crc32(buffer.data(), buffer.size());
      ++iterations;
      elapsed = since(t0);
    } while (elapsed < 0.03);
    batches.push_back(static_cast<double>(bytes) * static_cast<double>(iterations) / elapsed / 1e6);
  }
  return median(batches);
}

}  // namespace perfbench
