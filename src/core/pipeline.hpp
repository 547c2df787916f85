// The CUDAlign 2.0 pipeline driver (paper §IV): chains the six stages,
// manages the SRA, and collects the statistics behind Tables IV-IX.
#pragma once

#include <array>
#include <filesystem>
#include <memory>
#include <optional>

#include "core/stages.hpp"

namespace cudalign::core {

struct PipelineOptions {
  scoring::Scheme scheme = scoring::Scheme::paper_defaults();

  /// SRA budget in bytes for special rows, and separately for special
  /// columns. The paper's chromosome run uses 10-50 GB for rows; scaled-down
  /// problems use proportionally smaller budgets.
  std::int64_t sra_rows_budget = 64 << 20;
  std::int64_t sra_cols_budget = 64 << 20;

  /// Working directory for SRA files; empty = a fresh temp dir per run.
  std::filesystem::path workdir;

  /// Checkpoint/resume (DESIGN.md "Checkpoint & resume"): when set, the SRA
  /// stores move under this directory in durable mode and the pipeline keeps
  /// an atomically-updated manifest there recording stage progress — after
  /// every stage-1 special-row flush and at every stage boundary. A killed
  /// run re-invoked with `resume = true` continues from the last durable
  /// point instead of recomputing from scratch. Takes precedence over
  /// `workdir` for SRA placement.
  std::filesystem::path checkpoint_dir;
  /// Continue the checkpoint in `checkpoint_dir`. Refused (cudalign::Error,
  /// naming every differing field) when the manifest's envelope — sequences,
  /// scheme, grids, budgets, stage options, kernel pin — does not match this
  /// invocation, when no manifest exists, or when the run already completed.
  /// Without `resume`, a fresh run refuses to start over an existing
  /// manifest: checkpoints are never silently recomputed over.
  bool resume = false;
  /// Fault injection (tests): throw cudalign::Error right after the Nth
  /// stage-1 checkpoint save (0 = off). The environment variable
  /// CUDALIGN_CHECKPOINT_CRASH_AFTER does the same but raises SIGKILL — the
  /// CLI smoke test's kill switch for whole-process crash realism.
  Index checkpoint_crash_after_flushes = 0;

  engine::GridSpec grid_stage1 = engine::GridSpec::stage1_defaults();
  engine::GridSpec grid_stage23 = engine::GridSpec::stage23_defaults();

  Index max_partition_size = 16;

  bool flush_special_rows = true;   ///< Off = score-only (Table IV "No Flush").
  bool block_pruning = false;       ///< Stage-1 block pruning (engine/executor.hpp).
  /// Unread; kept only because perfbench/main.cpp assigns it (see
  /// engine::ExecutorKind).
  engine::ExecutorKind executor = engine::ExecutorKind::kDataflow;
  /// Asynchronous stage-1 special-row flushing (`--sra-async`; DESIGN.md
  /// "Stage-1 I/O overlap"): rows are handed to a dedicated SRA writer
  /// thread so strip retirement overlaps the CRC'd write + fsync + manifest
  /// save instead of stalling on them. The checkpoint cursor still advances
  /// only on durable-ack, in row order, so the store, the manifest sequence
  /// and kill-and-resume behavior are byte-identical to the synchronous
  /// path — which stays selectable (`--sra-async=off`) as the reference to
  /// diff against. Deliberately NOT part of the checkpoint envelope: a
  /// checkpoint taken under one setting may be resumed under the other.
  bool sra_async = true;
  bool save_special_columns = true; ///< Off = skip Stage 3 (Stage 4 absorbs it).
  bool balanced_splitting = true;   ///< Stage 4 ablation (Figure 10).
  bool orthogonal_stage4 = true;    ///< Stage 4 ablation (Table IX).
  bool run_stage6 = true;

  /// Progress callback: stage (1-6) and completed fraction of that stage's
  /// cells. Invoked from the retiring worker (serialized, in retirement
  /// order) as Stage-1 strips retire, and between stages otherwise —
  /// chromosome-scale runs take hours (18.5 h in the paper) and need
  /// liveness reporting.
  std::function<void(int stage, double fraction)> progress;

  /// Opt-in bus hand-off auditing for every engine run of Stages 1-3
  /// (check/bus_audit.hpp; the CLI's --audit-bus). The caller inspects the
  /// auditor after the pipeline returns.
  check::BusAuditor* bus_audit = nullptr;

  /// Opt-in span telemetry (obs/telemetry.hpp; the CLI's --report): the
  /// pipeline records a "pipeline" span with one child per stage (Stages 2-4
  /// add per-iteration / per-phase children). Driver-thread only; the
  /// caller reads the tree after the pipeline returns (obs/report.hpp turns
  /// it plus this result into the versioned JSON run report).
  obs::Telemetry* telemetry = nullptr;

  ThreadPool* pool = nullptr;
};

/// What resume actually did — the run report's `resume` block.
struct ResumeInfo {
  bool enabled = false;         ///< A checkpoint directory was configured.
  bool resumed = false;         ///< Progress was restored from a manifest.
  int resumed_stage = 0;        ///< Stage work restarted in (1-6; 0 = fresh).
  Index resumed_from_row = 0;   ///< Stage-1 restart row (0 unless mid-stage-1).
  /// Stage-1 DP cells not recomputed: resumed_from_row * n mid-stage-1, m*n
  /// when stage 1 was already complete.
  WideScore cells_skipped = 0;
  /// Special rows restored from the checkpointed SRA instead of reflushed.
  Index rows_restored = 0;
  /// Manifest I/O (SRA traffic is accounted in the per-stage stats).
  std::int64_t checkpoint_bytes_written = 0;
  std::int64_t checkpoint_bytes_read = 0;
  Index checkpoint_updates = 0;
};

struct PipelineResult {
  /// Empty optimal alignment (best score 0) short-circuits after Stage 1.
  bool empty = false;

  ResumeInfo resume;

  Crosspoint end_point;
  Crosspoint start_point;
  Score best_score = 0;

  alignment::Alignment alignment;
  alignment::BinaryAlignment binary;
  std::optional<Stage6Result> visualization;

  /// Per-stage statistics, index 0 = Stage 1 ... index 5 = Stage 6.
  std::array<StageStats, 6> stages{};
  std::vector<Stage4Iteration> stage4_iterations;

  /// |L_k| after stages 1..4 (Table VIII).
  std::array<Index, 4> crosspoint_counts{};
  /// Largest partition dimensions after Stage 3 (Table VIII's Hmax/Wmax).
  Index h_max_after_stage3 = 0;
  Index w_max_after_stage3 = 0;

  WideScore stage1_pruned_cells = 0;
  Index special_rows_saved = 0;
  Index special_cols_saved = 0;
  Index flush_interval = 0;
  std::int64_t sra_peak_bytes = 0;

  /// Stage-5 partition statistics (run report).
  Index stage5_partitions = 0;
  Index stage5_h_max = 0;
  Index stage5_w_max = 0;

  [[nodiscard]] double total_seconds() const noexcept {
    double total = 0;
    for (const auto& s : stages) total += s.seconds;
    return total;
  }
};

/// Runs all stages. S0 is the vertical sequence (rows, size m), S1 horizontal
/// (columns, size n) — the paper's convention.
[[nodiscard]] PipelineResult align_pipeline(const seq::Sequence& s0, const seq::Sequence& s1,
                                            const PipelineOptions& options = {});

}  // namespace cudalign::core
