// Checkpoint/resume: the manifest format (round trip, tamper detection,
// envelope matching) and the pipeline property that matters — a run killed at
// any checkpoint and resumed produces the byte-identical alignment of an
// uninterrupted run, while corrupt or mismatched checkpoints are refused.
#include <gtest/gtest.h>

#include <fstream>

#include "common/io_util.hpp"
#include "core/checkpoint.hpp"
#include "core/pipeline.hpp"
#include "obs/report.hpp"
#include "obs/telemetry.hpp"
#include "test_util.hpp"

namespace cudalign::core {
namespace {

engine::GridSpec tiny_grid(Index blocks, Index threads, Index alpha) {
  engine::GridSpec g;
  g.blocks = blocks;
  g.threads = threads;
  g.alpha = alpha;
  g.multiprocessors = 1;
  return g;
}

PipelineOptions small_options() {
  PipelineOptions o;
  o.grid_stage1 = tiny_grid(3, 4, 2);
  o.grid_stage23 = tiny_grid(2, 4, 2);
  // A roomy rows budget gives flush interval 1: one special row (and thus
  // one checkpoint save) per strip, plenty of crash points on small problems.
  o.sra_rows_budget = 1 << 20;
  o.sra_cols_budget = 1 << 20;
  o.max_partition_size = 16;
  return o;
}

CheckpointEnvelope sample_envelope() {
  CheckpointEnvelope e;
  e.s0_digest = 0x0123456789abcdefull;
  e.s1_digest = 0xfedcba9876543210ull;
  e.s0_length = 300;
  e.s1_length = 240;
  e.grid_stage1 = tiny_grid(3, 4, 2);
  e.grid_stage23 = tiny_grid(2, 4, 2);
  e.sra_rows_budget = 1 << 16;
  e.sra_cols_budget = 1 << 20;
  e.max_partition_size = 16;
  return e;
}

CheckpointState sample_state() {
  CheckpointState s;
  s.envelope = sample_envelope();
  s.stage = CheckpointStage::kStage1;
  s.stage1.last_flushed_row = 16;  // Strip height 8, interval 2.
  s.stage1.special_rows_saved = 1;
  s.stage1.flush_interval = 2;
  s.stage1.best_score = 42;
  s.stage1.best_i = 15;
  s.stage1.best_j = 99;
  return s;
}

TEST(CheckpointEnvelopeTest, IdenticalEnvelopesHaveNoMismatches) {
  EXPECT_TRUE(sample_envelope().mismatches(sample_envelope()).empty());
}

TEST(CheckpointEnvelopeTest, EveryDifferingFieldIsNamed) {
  const CheckpointEnvelope a = sample_envelope();
  CheckpointEnvelope b = a;
  b.s0_digest ^= 1;
  b.scheme.match = 99;
  b.block_pruning = !b.block_pruning;
  b.kernel_override = "legacy";
  const std::vector<std::string> diffs = a.mismatches(b);
  ASSERT_EQ(diffs.size(), 4u);
  EXPECT_NE(diffs[0].find("sequence 0 digest"), std::string::npos);
  EXPECT_NE(diffs[1].find("scheme.match"), std::string::npos);
  EXPECT_NE(diffs[2].find("block_pruning"), std::string::npos);
  EXPECT_NE(diffs[3].find("kernel_override"), std::string::npos);
}

TEST(CheckpointManifestTest, SaveLoadRoundTrip) {
  TempDir dir;
  CheckpointManifest manifest(dir.path());
  EXPECT_FALSE(manifest.exists());
  CheckpointState state = sample_state();
  manifest.save(state);
  EXPECT_TRUE(manifest.exists());
  EXPECT_GT(manifest.bytes_written(), 0);
  EXPECT_EQ(manifest.updates(), 1);
  EXPECT_EQ(manifest.load(), state);

  // A later stage with crosspoint lists round-trips too.
  state.stage = CheckpointStage::kStage4;
  state.end_point = Crosspoint{280, 230, 120, dp::CellState::kH};
  state.l2 = {Crosspoint{0, 0, 0, dp::CellState::kH}, state.end_point};
  state.l3 = {Crosspoint{0, 0, 0, dp::CellState::kH},
              Crosspoint{140, 110, 60, dp::CellState::kE}, state.end_point};
  state.special_cols_saved = 3;
  manifest.save(state);
  EXPECT_EQ(manifest.load(), state);
  EXPECT_EQ(manifest.updates(), 2);
}

TEST(CheckpointManifestTest, MissingManifestThrows) {
  TempDir dir;
  CheckpointManifest manifest(dir.path());
  EXPECT_THROW((void)manifest.load(), Error);
}

TEST(CheckpointManifestTest, InvalidJsonRefusedWithDiagnostic) {
  TempDir dir;
  CheckpointManifest manifest(dir.path());
  manifest.save(sample_state());
  write_file(manifest.path(), "{ torn halfway");
  try {
    (void)manifest.load();
    FAIL() << "invalid JSON was not refused";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("not valid JSON"), std::string::npos) << e.what();
  }
}

TEST(CheckpointManifestTest, BodyTamperFailsCrc) {
  TempDir dir;
  CheckpointManifest manifest(dir.path());
  manifest.save(sample_state());
  std::string text = read_file(manifest.path());
  const auto pos = text.find("\"last_flushed_row\": 16");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 22, "\"last_flushed_row\": 24");
  write_file(manifest.path(), text);
  try {
    (void)manifest.load();
    FAIL() << "tampered body was not refused";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("CRC-32"), std::string::npos) << e.what();
  }
}

TEST(CheckpointManifestTest, FormatVersionBumpRefused) {
  TempDir dir;
  CheckpointManifest manifest(dir.path());
  manifest.save(sample_state());
  std::string text = read_file(manifest.path());
  const auto pos = text.find("\"format_version\": 1");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 19, "\"format_version\": 9");
  write_file(manifest.path(), text);
  try {
    (void)manifest.load();
    FAIL() << "future format version was not refused";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("format version"), std::string::npos) << e.what();
  }
}

TEST(CheckpointManifestTest, StateInvariantsEnforced) {
  // Flushed row off the strip/flush boundary.
  CheckpointState state = sample_state();
  state.stage1.last_flushed_row = 13;
  EXPECT_THROW(validate_checkpoint_state(state), Error);
  // Stage cursor implies a crosspoint list that is absent.
  state = sample_state();
  state.stage = CheckpointStage::kStage3;
  state.end_point = Crosspoint{280, 230, 120, dp::CellState::kH};
  state.l2.clear();
  EXPECT_THROW(validate_checkpoint_state(state), Error);
}

// ---------------------------------------------------------------------------
// Pipeline-level crash/resume.
// ---------------------------------------------------------------------------

/// Runs the uninterrupted pipeline and a crash-at-save-k + resume pair on the
/// same problem and asserts byte-identical results.
void expect_resume_equivalence(Index crash_after_saves) {
  const auto pair = seq::make_related_pair(300, 290, 4242);
  PipelineOptions options = small_options();
  const PipelineResult reference = align_pipeline(pair.s0, pair.s1, options);
  ASSERT_GT(reference.best_score, 0);
  ASSERT_GT(reference.special_rows_saved, 2);

  TempDir dir;
  options.checkpoint_dir = dir.path() / "ckpt";
  options.checkpoint_crash_after_flushes = crash_after_saves;
  EXPECT_THROW((void)align_pipeline(pair.s0, pair.s1, options), Error);

  options.checkpoint_crash_after_flushes = 0;
  options.resume = true;
  const PipelineResult resumed = align_pipeline(pair.s0, pair.s1, options);

  EXPECT_EQ(resumed.best_score, reference.best_score);
  EXPECT_EQ(resumed.end_point, reference.end_point);
  EXPECT_EQ(resumed.start_point, reference.start_point);
  EXPECT_TRUE(resumed.alignment.transcript == reference.alignment.transcript);
  EXPECT_EQ(resumed.binary, reference.binary);
  EXPECT_EQ(resumed.special_rows_saved, reference.special_rows_saved);
  EXPECT_TRUE(resumed.resume.resumed);
  EXPECT_EQ(resumed.resume.resumed_stage, 1);
  EXPECT_GT(resumed.resume.resumed_from_row, 0);
  EXPECT_GT(resumed.resume.rows_restored, 0);
  EXPECT_GT(resumed.resume.cells_skipped, 0);
  EXPECT_GT(resumed.resume.checkpoint_updates, 0);
}

TEST(CheckpointResume, KilledAfterFirstSaveMatchesUninterrupted) {
  expect_resume_equivalence(1);
}

TEST(CheckpointResume, KilledAfterThirdSaveMatchesUninterrupted) {
  expect_resume_equivalence(3);
}

TEST(CheckpointResume, ManifestRecordsTheSpecGridNotTheFittedChunking) {
  // A checkpoint records the grid options, not the block count fit_to_width
  // derives from them, so a checkpoint written under an older chunking rule
  // records the same {240, 64, 4, 30} as today's default and still resumes.
  const auto pair = seq::make_related_pair(300, 290, 4242);
  PipelineOptions options = small_options();
  options.grid_stage1 = engine::GridSpec::stage1_defaults();
  ASSERT_LT(engine::fit_to_width(options.grid_stage1, 290).blocks, 240);
  TempDir dir;
  options.checkpoint_dir = dir.path() / "ckpt";
  (void)align_pipeline(pair.s0, pair.s1, options);
  const CheckpointState state = CheckpointManifest(options.checkpoint_dir).load();
  const engine::GridSpec recorded = state.envelope.grid_stage1;
  EXPECT_EQ(recorded.blocks, 240);
  EXPECT_EQ(recorded.threads, 64);
  EXPECT_EQ(recorded.alpha, 4);
  EXPECT_EQ(recorded.multiprocessors, 30);
}

TEST(CheckpointResume, RowsFromAnotherChunkingResumeToTheSameAlignment) {
  // Stage-1 rows and best are the same for every block count
  // (Engine.BlockCountNeverChangesBestOrSpecialRows), so a checkpoint whose
  // rows were written under 8 chunks resumes under 3 to the alignment of an
  // uninterrupted 3-chunk run: what a pre-chunk-target checkpoint meets.
  const auto pair = seq::make_related_pair(300, 290, 4242);
  PipelineOptions options = small_options();
  const PipelineResult reference = align_pipeline(pair.s0, pair.s1, options);

  PipelineOptions wide = options;
  wide.grid_stage1 = tiny_grid(8, 4, 2);
  ASSERT_EQ(engine::fit_to_width(wide.grid_stage1, 290).blocks, 8);
  ASSERT_EQ(engine::fit_to_width(options.grid_stage1, 290).blocks, 3);
  TempDir dir;
  wide.checkpoint_dir = dir.path() / "ckpt";
  wide.checkpoint_crash_after_flushes = 3;
  EXPECT_THROW((void)align_pipeline(pair.s0, pair.s1, wide), Error);

  CheckpointManifest manifest(wide.checkpoint_dir);
  CheckpointState state = manifest.load();
  ASSERT_EQ(state.stage, CheckpointStage::kStage1);
  state.envelope.grid_stage1 = options.grid_stage1;
  manifest.save(state);

  options.checkpoint_dir = wide.checkpoint_dir;
  options.resume = true;
  const PipelineResult resumed = align_pipeline(pair.s0, pair.s1, options);
  EXPECT_TRUE(resumed.resume.resumed);
  EXPECT_GT(resumed.resume.rows_restored, 0);
  EXPECT_EQ(resumed.best_score, reference.best_score);
  EXPECT_EQ(resumed.end_point, reference.end_point);
  EXPECT_EQ(resumed.binary, reference.binary);
}

TEST(CheckpointResume, StageBoundaryResumeMatchesUninterrupted) {
  const auto pair = seq::make_related_pair(300, 290, 777);
  PipelineOptions options = small_options();
  const PipelineResult reference = align_pipeline(pair.s0, pair.s1, options);
  ASSERT_GT(reference.best_score, 0);

  TempDir dir;
  options.checkpoint_dir = dir.path() / "ckpt";
  const PipelineResult full = align_pipeline(pair.s0, pair.s1, options);
  EXPECT_EQ(full.binary, reference.binary);

  // Rewind the completed checkpoint to each stage boundary and resume: every
  // restart must reproduce the uninterrupted alignment byte-for-byte.
  CheckpointManifest manifest(options.checkpoint_dir);
  const CheckpointState done = manifest.load();
  ASSERT_EQ(done.stage, CheckpointStage::kDone);
  options.resume = true;
  for (const CheckpointStage stage :
       {CheckpointStage::kStage2, CheckpointStage::kStage3, CheckpointStage::kStage4,
        CheckpointStage::kStage5}) {
    CheckpointState rewound = done;
    rewound.stage = stage;
    manifest.save(rewound);
    const PipelineResult resumed = align_pipeline(pair.s0, pair.s1, options);
    EXPECT_EQ(resumed.best_score, reference.best_score);
    EXPECT_EQ(resumed.binary, reference.binary) << "stage " << static_cast<int>(stage);
    EXPECT_TRUE(resumed.resume.resumed);
    EXPECT_EQ(resumed.resume.resumed_stage, static_cast<int>(stage));
    EXPECT_EQ(resumed.resume.cells_skipped,
              static_cast<WideScore>(pair.s0.size()) * static_cast<WideScore>(pair.s1.size()));
  }
}

TEST(CheckpointResume, DifferentSequenceRefused) {
  const auto pair = seq::make_related_pair(300, 290, 31);
  const auto other = seq::make_related_pair(300, 290, 32);
  PipelineOptions options = small_options();
  TempDir dir;
  options.checkpoint_dir = dir.path() / "ckpt";
  options.checkpoint_crash_after_flushes = 1;
  EXPECT_THROW((void)align_pipeline(pair.s0, pair.s1, options), Error);
  options.checkpoint_crash_after_flushes = 0;
  options.resume = true;
  try {
    (void)align_pipeline(other.s0, pair.s1, options);
    FAIL() << "resume with a different sequence was not refused";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("digest"), std::string::npos) << e.what();
  }
}

TEST(CheckpointResume, DifferentOptionsRefused) {
  const auto pair = seq::make_related_pair(300, 290, 33);
  PipelineOptions options = small_options();
  TempDir dir;
  options.checkpoint_dir = dir.path() / "ckpt";
  options.checkpoint_crash_after_flushes = 1;
  EXPECT_THROW((void)align_pipeline(pair.s0, pair.s1, options), Error);
  options.checkpoint_crash_after_flushes = 0;
  options.resume = true;
  options.scheme.gap_ext = 1;
  try {
    (void)align_pipeline(pair.s0, pair.s1, options);
    FAIL() << "resume with a different scheme was not refused";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("scheme.gap_ext"), std::string::npos) << e.what();
  }
}

TEST(CheckpointResume, FreshRunOverExistingCheckpointRefused) {
  const auto pair = seq::make_related_pair(300, 290, 34);
  PipelineOptions options = small_options();
  TempDir dir;
  options.checkpoint_dir = dir.path() / "ckpt";
  options.checkpoint_crash_after_flushes = 1;
  EXPECT_THROW((void)align_pipeline(pair.s0, pair.s1, options), Error);
  options.checkpoint_crash_after_flushes = 0;
  EXPECT_THROW((void)align_pipeline(pair.s0, pair.s1, options), Error);
}

TEST(CheckpointResume, ResumeWithoutManifestRefused) {
  const auto pair = seq::make_related_pair(120, 110, 35);
  PipelineOptions options = small_options();
  TempDir dir;
  options.checkpoint_dir = dir.path() / "ckpt";
  options.resume = true;
  EXPECT_THROW((void)align_pipeline(pair.s0, pair.s1, options), Error);
}

TEST(CheckpointResume, ResumeOfCompletedRunRefused) {
  const auto pair = seq::make_related_pair(200, 190, 36);
  PipelineOptions options = small_options();
  TempDir dir;
  options.checkpoint_dir = dir.path() / "ckpt";
  (void)align_pipeline(pair.s0, pair.s1, options);
  options.resume = true;
  try {
    (void)align_pipeline(pair.s0, pair.s1, options);
    FAIL() << "resume of a completed run was not refused";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("completed"), std::string::npos) << e.what();
  }
}

TEST(CheckpointResume, ManifestReferencingMissingSraRowRefused) {
  const auto pair = seq::make_related_pair(300, 290, 37);
  PipelineOptions options = small_options();
  TempDir dir;
  options.checkpoint_dir = dir.path() / "ckpt";
  options.checkpoint_crash_after_flushes = 2;
  EXPECT_THROW((void)align_pipeline(pair.s0, pair.s1, options), Error);
  // Remove one referenced special row: the SRA store itself detects the
  // missing file when the resume reopens it.
  bool removed = false;
  for (const auto& entry :
       std::filesystem::directory_iterator(options.checkpoint_dir / "rows")) {
    if (entry.path().filename() != "manifest.bin") {
      std::filesystem::remove(entry.path());
      removed = true;
      break;
    }
  }
  ASSERT_TRUE(removed);
  options.checkpoint_crash_after_flushes = 0;
  options.resume = true;
  try {
    (void)align_pipeline(pair.s0, pair.s1, options);
    FAIL() << "missing special row was not refused";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("missing"), std::string::npos) << e.what();
  }
}

TEST(CheckpointResume, ResumedRunReportValidates) {
  const auto pair = seq::make_related_pair(300, 290, 38);
  PipelineOptions options = small_options();
  TempDir dir;
  options.checkpoint_dir = dir.path() / "ckpt";
  options.checkpoint_crash_after_flushes = 2;
  EXPECT_THROW((void)align_pipeline(pair.s0, pair.s1, options), Error);
  options.checkpoint_crash_after_flushes = 0;
  options.resume = true;
  obs::Telemetry telemetry;
  options.telemetry = &telemetry;
  const PipelineResult resumed = align_pipeline(pair.s0, pair.s1, options);
  telemetry.finish();

  obs::ReportContext ctx;
  ctx.s0_name = "s0";
  ctx.s0_length = static_cast<Index>(pair.s0.size());
  ctx.s1_name = "s1";
  ctx.s1_length = static_cast<Index>(pair.s1.size());
  ctx.options = &options;
  ctx.result = &resumed;
  ctx.telemetry = &telemetry;
  const obs::Json report = obs::build_run_report(ctx);
  const std::vector<std::string> problems = obs::validate_run_report(report);
  EXPECT_TRUE(problems.empty()) << (problems.empty() ? "" : problems.front());
  const obs::Json* resume = report.find("resume");
  ASSERT_NE(resume, nullptr);
  EXPECT_TRUE(resume->at("resumed").as_bool());
  EXPECT_GT(resume->at("cells_skipped").as_int(), 0);
}

TEST(CheckpointResume, EmptyAlignmentCheckpointCompletes) {
  // All-N sequences never match: best score 0, the pipeline short-circuits,
  // and the checkpoint must still land on kDone.
  seq::Sequence s0 = seq::Sequence::from_string("n0", "nnnnnnnnnnnnnnnn");
  seq::Sequence s1 = seq::Sequence::from_string("n1", "nnnnnnnnnnnnnnnn");
  PipelineOptions options = small_options();
  TempDir dir;
  options.checkpoint_dir = dir.path() / "ckpt";
  const PipelineResult result = align_pipeline(s0, s1, options);
  EXPECT_TRUE(result.empty);
  CheckpointManifest manifest(options.checkpoint_dir);
  EXPECT_EQ(manifest.load().stage, CheckpointStage::kDone);
}

TEST(CheckpointResume, SaveFailureOnPoolSurfacesWithExactlyKRowsStored) {
  // The checkpoint save that throws runs on the SRA writer thread while pool
  // workers keep retiring strips into its queue. The failure must reach the
  // caller, and the writer must not put a row past the failed ack: the store
  // holds exactly the k rows the manifest referenced.
  const auto pair = seq::make_related_pair(300, 290, 4242);
  ThreadPool pool(4);
  for (const Index k : {1, 3}) {
    SCOPED_TRACE(k);
    PipelineOptions options = small_options();
    options.pool = &pool;
    TempDir dir;
    options.checkpoint_dir = dir.path() / "ckpt";
    options.checkpoint_crash_after_flushes = k;
    try {
      (void)align_pipeline(pair.s0, pair.s1, options);
      FAIL() << "fault-injected checkpoint save did not surface";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("fault injection"), std::string::npos) << e.what();
    }
    const sra::SpecialRowsArea rows(options.checkpoint_dir / "rows", options.sra_rows_budget);
    EXPECT_EQ(static_cast<Index>(rows.group_members(1).size()), k);
    EXPECT_EQ(CheckpointManifest(options.checkpoint_dir).load().stage1.special_rows_saved, k);
  }
}

}  // namespace
}  // namespace cudalign::core
