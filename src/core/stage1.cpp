// Stage 1 (paper §IV-B): CUDAlign 1.0's wavefront Smith-Waterman with one
// modification — special rows are flushed from the horizontal bus to the SRA
// at the flush interval derived from the SRA budget.
#include "core/stages.hpp"

#include <optional>
#include <utility>

#include "common/timer.hpp"
#include "sra/async_writer.hpp"

namespace cudalign::core {

Stage1Result run_stage1(seq::SequenceView s0, seq::SequenceView s1, const Stage1Config& config) {
  config.scheme.validate();
  Timer timer;
  Stage1Result result;

  const Index m = static_cast<Index>(s0.size());
  const Index n = static_cast<Index>(s1.size());

  engine::ProblemSpec spec;
  spec.a = s0;
  spec.b = s1;
  spec.recurrence = engine::Recurrence::local(config.scheme);
  spec.grid = config.grid;
  spec.block_pruning = config.block_pruning;
  spec.start_row = config.resume_row;
  spec.initial_hbus = config.resume_hbus;
  spec.initial_best = config.resume_best;

  engine::Hooks hooks;
  hooks.bus_audit = config.bus_audit;
  if (config.progress) {
    hooks.on_progress = [&](Index done, Index total) {
      config.progress(static_cast<double>(done) / static_cast<double>(total));
    };
  }
  std::optional<sra::AsyncSraWriter> writer;
  if (config.rows_area != nullptr && m > 0 && n > 0) {
    result.flush_interval = sra::flush_interval_for_budget(
        m, n, config.grid.strip_rows(), config.rows_area->budget_bytes());
    hooks.special_row_interval = result.flush_interval;
    if (config.sra_async) {
      // Async flush pipeline (DESIGN.md "Stage-1 I/O overlap"): the hook
      // copies the row into the writer's queue on the retiring worker
      // (serialized, in retirement order) and the writer thread performs the
      // put() + checkpoint ack off the compute critical path.
      writer.emplace(*config.rows_area);
      hooks.on_special_row = [&](Index row, std::span<const engine::BusCell> cells,
                                 const dp::LocalBest& best) {
        std::function<void()> ack;
        if (config.on_checkpoint) {
          const Index rows_saved = result.special_rows_saved + 1;
          ack = [&config, row, rows_saved, best] { config.on_checkpoint(row, rows_saved, best); };
        }
        writer->submit(sra::RowKey{row, 0, n, config.group}, cells, std::move(ack));
        ++result.special_rows_saved;
      };
    } else {
      hooks.on_special_row = [&](Index row, std::span<const engine::BusCell> cells,
                                 const dp::LocalBest& best) {
        config.rows_area->put(sra::RowKey{row, 0, n, config.group}, cells);
        ++result.special_rows_saved;
        // After the put, so the row the checkpoint references is already
        // durable (SRA-before-manifest write ordering).
        if (config.on_checkpoint) config.on_checkpoint(row, result.special_rows_saved, best);
      };
    }
  }

  const std::int64_t flushed_before =
      config.rows_area != nullptr ? config.rows_area->total_bytes_written() : 0;
  const engine::RunResult run = engine::run_wavefront(spec, hooks, config.pool);
  if (writer) {
    // Rethrows a writer-thread failure (a failed put(), or the pipeline's
    // fault-injected checkpoint throw) and hands ownership of the rows area
    // and the checkpoint state back to this thread.
    writer->drain();
    const sra::AsyncWriterStats ws = writer->stats();
    result.stats.sra_rows_acked = ws.rows_acked;
    result.stats.sra_flush_queue_peak = ws.queue_peak;
    result.stats.sra_writer_busy_seconds = ws.writer_busy_seconds;
  }
  result.end_point = Crosspoint{run.best.i, run.best.j, run.best.score, dp::CellState::kH};
  result.pruned_cells = run.stats.pruned_cells;
  result.stats.add_run(run.stats);
  if (config.rows_area != nullptr) {
    result.stats.sra_rows_flushed = result.special_rows_saved;
    if (!config.sra_async) result.stats.sra_rows_acked = result.special_rows_saved;
    result.stats.sra_bytes_flushed = config.rows_area->total_bytes_written() - flushed_before;
  }
  result.stats.crosspoints = 1;  // L_1 = {*, C_1}.
  result.stats.seconds = timer.seconds();
  return result;
}

}  // namespace cudalign::core
