// perfbench — the repository benchmark (README.md in this directory).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-file PATH] [--reference-cache DIR] [--scale F]
//
// Drives the cudalign library from outside: core::align_pipeline for the
// end-to-end numbers (--trace 0), and core::run_stage1..6 plus one probe per
// layer, each wrapped in a benchmark-side span, for the per-layer numbers
// (--trace 1). Every alignment is output-checked. The last stdout line is
// one JSON object {"correct", "attempted", "failed", "metrics"}; everything
// before it is the human-readable report.
#include <sched.h>
#include <sys/resource.h>
#include <sys/statfs.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/crc32.hpp"
#include "common/io_util.hpp"
#include "core/pipeline.hpp"
#include "dp/linear.hpp"
#include "probes.hpp"
#include "seq/generator.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

namespace core = cudalign::core;
namespace engine = cudalign::engine;
namespace seq = cudalign::seq;
namespace sra = cudalign::sra;
using cudalign::Score;
using cudalign::ThreadPool;

constexpr std::int64_t kMiB = std::int64_t{1} << 20;

/// One benchmark workload. Sizes are the Table II stand-ins of the paper
/// roster at scale 1 (paper kbp x 10): 5227Kx5229K and 7146Kx5227K.
struct Workload {
  const char* name;
  bool related;        ///< Related pair (long alignment) vs unrelated + island.
  Index n0, n1;        ///< S0 rows x S1 columns.
  Index island;        ///< Planted common segment of the unrelated pair.
  std::int64_t sra_budget;  ///< Rows and columns budget, as `cudalign align --sra`.
};

constexpr Workload kWorkloads[] = {
    {"related", true, 52270, 52290, 0, 256 * kMiB},
    {"unrelated", false, 71460, 52270, 96, 256 * kMiB},
    {"related-tight-sra", true, 52270, 52290, 0, 8 * kMiB},
};

/// setup_s is the median of the set-ups before the warm-up plus those
/// repeated before each timed call. Spreading them over the run keeps a
/// short burst of host contention from deciding the median.
constexpr int kSetupRepeats = 7;
constexpr int kSetupRepeatsPerCall = 3;
constexpr std::size_t kMinSamples = 3;
constexpr int kScoreOnlyRepeats = 3;

/// The CPUs this process may run on, as `nproc` counts them. A container
/// or taskset can allow fewer than std::thread::hardware_concurrency().
std::size_t usable_cpus() {
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  if (sched_getaffinity(0, sizeof cpus, &cpus) != 0) return 1;
  return static_cast<std::size_t>(std::max(1, CPU_COUNT(&cpus)));
}

/// Pool workers: enough for one compute thread per usable CPU but one,
/// which is left to the SRA writer thread. ThreadPool::parallel_for runs
/// on the caller thread as well, so nproc - 2 workers make nproc - 1
/// compute threads. A pool of nproc workers, as `cudalign align` makes,
/// puts nproc + 2 busy threads on nproc CPUs, and the runs then time the
/// scheduler. ThreadPool(1) runs every job inline on the caller, so one
/// worker is the single-threaded pool of a host with three CPUs or fewer.
std::size_t pool_workers() {
  const std::size_t cpus = usable_cpus();
  return cpus > 3 ? cpus - 2 : 1;
}

/// Compute threads `pool` uses, its caller included.
std::size_t threads_of(const ThreadPool& pool) {
  return pool.worker_count() > 1 ? pool.worker_count() + 1 : 1;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string trace_file;       ///< Chrome-trace output; empty = none.
  std::string reference_cache;  ///< Directory of reference scores; empty = none.
  double scale = 1.0;  ///< Shrinks the pairs (the self-test's small sizes).
};

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload related|unrelated|related-tight-sra "
               "--seed N --seconds S --trace 0|1 [--trace-file PATH] [--reference-cache DIR] "
               "[--scale F]\n",
               message.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int k = 1; k < argc; k += 2) {
    const std::string key = argv[k];
    if (k + 1 >= argc) usage_error("missing value for " + key);
    const std::string value = argv[k + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      args.trace = value == "0" ? 0 : value == "1" ? 1 : -1;
    } else if (key == "--trace-file") {
      args.trace_file = value;
    } else if (key == "--reference-cache") {
      args.reference_cache = value;
    } else if (key == "--scale") {
      args.scale = std::strtod(value.c_str(), &end);
    } else {
      usage_error("unknown option " + key);
    }
    if (end != nullptr && *end != '\0') usage_error("bad value for " + key + ": " + value);
  }
  if (args.workload.empty()) usage_error("--workload is required");
  if (args.seconds <= 0) usage_error("--seconds must be positive");
  if (args.trace < 0) usage_error("--trace must be 0 or 1");
  if (!(args.scale > 0 && args.scale <= 1)) usage_error("--scale must be in (0, 1]");
  return args;
}

// ---------------------------------------------------------------------------
// Host/build fingerprint and the refusal rules.
// ---------------------------------------------------------------------------

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitizerBuild = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer) || __has_feature(undefined_behavior_sanitizer)
constexpr bool kSanitizerBuild = true;
#else
constexpr bool kSanitizerBuild = false;
#endif
#else
constexpr bool kSanitizerBuild = false;
#endif

#ifdef NDEBUG
constexpr bool kAssertionsOn = false;
#else
constexpr bool kAssertionsOn = true;
#endif

/// Refuses any setting that would make the run measure a different program.
void refuse_foreign_configuration() {
  for (const char* var : {"CUDALIGN_KERNEL", "CUDALIGN_SIMD", "CUDALIGN_BENCH_SCALE"}) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr, "perfbench: refusing to run with %s set (it changes what is measured)\n",
                   var);
      std::exit(2);
    }
  }
  if (kSanitizerBuild || kAssertionsOn || std::strcmp(PERFBENCH_BUILD_TYPE, "Debug") == 0) {
    std::fprintf(stderr, "perfbench: refusing to run in a %s build (%s)\n", PERFBENCH_BUILD_TYPE,
                 kSanitizerBuild ? "sanitizer" : "assertions on");
    std::exit(2);
  }
}

std::string filesystem_name(const std::filesystem::path& path) {
  struct statfs info {};
  if (statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x6969: return "nfs";
    case 0x65735546: return "fuse";
    case 0x2FC12FC1: return "zfs";
    case 0x01021997: return "9p";
    default: break;
  }
  char hex[32];
  std::snprintf(hex, sizeof hex, "0x%lx", static_cast<unsigned long>(info.f_type));
  return hex;
}

std::string fingerprint_json(const Args& args, const ThreadPool& pool) {
  char buf[1024];
  std::snprintf(buf, sizeof buf,
                "{\"workload\": \"%s\", \"seed\": %llu, \"scale\": %g, \"simd_isa\": \"%s\", "
                "\"nproc\": %zu, \"workers\": %zu, \"compute_threads\": %zu, \"compiler\": \"%s\", "
                "\"build_type\": \"%s\", \"sra_fs\": \"%s\"}",
                args.workload.c_str(), static_cast<unsigned long long>(args.seed), args.scale,
                std::string(engine::simd_isa_name(engine::active_simd_isa())).c_str(),
                usable_cpus(), pool.worker_count(), threads_of(pool),
                PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
                filesystem_name(std::filesystem::temp_directory_path()).c_str());
  return buf;
}

// ---------------------------------------------------------------------------
// Metrics and sample statistics.
// ---------------------------------------------------------------------------

/// "median X min Y max Z (n=N, ...)": the sample count, plus the highest of
/// p75/p90/p95/p99 that has at least ten samples beyond it when the count
/// allows one.
std::string describe_samples(const std::vector<double>& samples) {
  std::vector<double> v = samples;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  std::string text = "median " + std::to_string(median(v)) + " min " + std::to_string(v.front()) +
                     " max " + std::to_string(v.back()) + " (n=" + std::to_string(n);
  for (const int p : {99, 95, 90, 75}) {
    const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
    if (rank >= 1 && n - rank >= 10) {
      text += ", p" + std::to_string(p) + " " + std::to_string(v[rank - 1]);
      return text + ")";
    }
  }
  return text + ", too few samples for a tail percentile)";
}

/// Every sample, in the order taken.
std::string list_samples(const std::vector<double>& samples) {
  std::string text;
  char buf[32];
  for (const double v : samples) {
    std::snprintf(buf, sizeof buf, " %.4f", v);
    text += buf;
  }
  return text;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Metrics {
 public:
  void add(std::string name, double value, std::string unit) {
    metrics_.push_back(Metric{std::move(name), value, std::move(unit)});
  }

  void print_table() const {
    for (const Metric& m : metrics_) {
      if (m.value == 0 && m.name.find(".kernel_cells.") != std::string::npos) continue;
      std::printf("  %-52s %20.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }

  /// Throws on a value JSON cannot carry (NaN or infinite).
  [[nodiscard]] std::string json() const {
    std::string out = "{";
    char buf[64];
    for (std::size_t k = 0; k < metrics_.size(); ++k) {
      if (!std::isfinite(metrics_[k].value)) {
        throw std::runtime_error("metric " + metrics_[k].name + " is not a finite number");
      }
      std::snprintf(buf, sizeof buf, "%.17g", metrics_[k].value);
      out += (k == 0 ? "\"" : ", \"") + metrics_[k].name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + metrics_[k].unit + "\"}";
    }
    return out + "}";
  }

 private:
  std::vector<Metric> metrics_;
};

// ---------------------------------------------------------------------------
// Output check: every alignment is validated; failures are counted, never
// dropped.
// ---------------------------------------------------------------------------

class OutputCheck {
 public:
  OutputCheck(const seq::SequencePair& pair, const cudalign::scoring::Scheme& scheme)
      : pair_(pair), scheme_(scheme) {}

  /// Validates one pipeline result: alignment::validate, the recomputed
  /// transcript score equals best_score, and best_score equals every
  /// earlier call's.
  void check(const core::PipelineResult& result) {
    ++attempted_;
    const auto v0 = pair_.s0.bases();
    const auto v1 = pair_.s1.bases();
    try {
      if (result.empty || result.best_score <= 0) throw std::runtime_error("empty alignment");
      cudalign::alignment::validate(result.alignment, v0, v1, scheme_);
      const cudalign::alignment::Alignment& a = result.alignment;
      const Score rescored =
          cudalign::alignment::score_transcript(v0, v1, a.transcript, a.i0, a.j0, scheme_);
      if (rescored != result.best_score) {
        throw std::runtime_error("transcript scores " + std::to_string(rescored) +
                                 ", best_score is " + std::to_string(result.best_score));
      }
      if (!expected_) expected_ = result.best_score;
      if (*expected_ != result.best_score) {
        throw std::runtime_error("best_score " + std::to_string(result.best_score) +
                                 " differs from the first run's " + std::to_string(*expected_));
      }
    } catch (const std::exception& e) {
      record_failure(e.what());
    }
  }

  /// A call that threw instead of returning a result.
  void call_failed(const std::exception& e) {
    ++attempted_;
    record_failure(std::string("alignment threw: ") + e.what());
  }

  /// Untimed quadratic reference: best_score must equal
  /// dp::linear_local_best. A mismatch makes every alignment of this pair
  /// wrong (they all agreed on the score). The reference takes tens of
  /// seconds at full size, so its score is kept in `cache_dir` under a
  /// digest of the pair and the scheme; `related` and `related-tight-sra`
  /// share their pair.
  void check_reference(const std::string& cache_dir) {
    const auto s0 = pair_.s0.bases();
    const auto s1 = pair_.s1.bases();
    char key[96];
    std::snprintf(key, sizeof key, "ref-%zu-%08x-%zu-%08x-%d_%d_%d_%d.txt", s0.size(),
                  cudalign::common::crc32(s0.data(), s0.size_bytes()), s1.size(),
                  cudalign::common::crc32(s1.data(), s1.size_bytes()), scheme_.match,
                  scheme_.mismatch, scheme_.gap_first, scheme_.gap_ext);
    const std::filesystem::path cached =
        cache_dir.empty() ? std::filesystem::path() : std::filesystem::path(cache_dir) / key;
    std::optional<Score> ref;
    if (!cached.empty() && std::filesystem::exists(cached)) {
      ref = std::stoi(cudalign::read_file(cached));
      std::printf("reference: cached in %s\n", cached.string().c_str());
    } else {
      ref = cudalign::dp::linear_local_best(s0, s1, scheme_).score;
      if (!cached.empty()) {
        std::filesystem::create_directories(cache_dir);
        const auto tmp = std::filesystem::path(cached.string() + ".tmp");
        cudalign::write_file(tmp, std::to_string(*ref));
        std::filesystem::rename(tmp, cached);
      }
    }
    std::printf("reference: dp::linear_local_best = %d, pipeline best_score = %s\n", *ref,
                expected_ ? std::to_string(*expected_).c_str() : "none");
    if (!expected_ || *ref != *expected_) {
      failed_ = attempted_;
      std::printf("check failed: reference score mismatch\n");
    }
  }

  [[nodiscard]] Index attempted() const noexcept { return attempted_; }
  [[nodiscard]] Index failed() const noexcept { return failed_; }

 private:
  void record_failure(const std::string& why) {
    ++failed_;
    std::printf("check failed: %s\n", why.c_str());
  }

  const seq::SequencePair& pair_;
  cudalign::scoring::Scheme scheme_;
  std::optional<Score> expected_;
  Index attempted_ = 0;
  Index failed_ = 0;
};

// ---------------------------------------------------------------------------
// Set-up.
// ---------------------------------------------------------------------------

struct Setup {
  seq::SequencePair pair;
  std::unique_ptr<ThreadPool> pool;
  std::vector<double> seconds;  ///< One sample per repetition.
};

/// One timed set-up: pair generation and pool creation, replacing the
/// pair and pool `s` holds.
void set_up_once(const Workload& w, const Args& args, Setup& s) {
  const auto scaled = [&](Index n) {
    const double scaled_n = static_cast<double>(n) * args.scale;
    return std::max<Index>(256, static_cast<Index>(std::llround(scaled_n)));
  };
  s.pool.reset();
  const auto t0 = Clock::now();
  s.pair = w.related ? seq::make_related_pair(scaled(w.n0), scaled(w.n1), args.seed)
                     : seq::make_unrelated_pair(scaled(w.n0), scaled(w.n1), w.island, args.seed);
  s.pool = std::make_unique<ThreadPool>(pool_workers());
  s.seconds.push_back(since(t0));
}

/// The options `cudalign align` uses with no flags, except the workload's
/// SRA budget.
core::PipelineOptions pipeline_options(const Workload& w, ThreadPool* pool) {
  core::PipelineOptions o;
  o.sra_rows_budget = w.sra_budget;
  o.sra_cols_budget = w.sra_budget;
  o.pool = pool;
  return o;
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss is in KiB.
}

double cells_of(const seq::SequencePair& pair) {
  return static_cast<double>(pair.s0.size()) * static_cast<double>(pair.s1.size());
}

// ---------------------------------------------------------------------------
// --trace 0: end-to-end metrics.
// ---------------------------------------------------------------------------

void run_end_to_end(const Workload& workload, const Args& args, Setup& setup,
                    const core::PipelineOptions& options, OutputCheck& check, Metrics& metrics) {
  std::vector<double> wall, cpu, sra_mb;
  Setup spare;  // Re-done before each timed call; only its timings are kept.
  const auto start = Clock::now();
  std::size_t calls = 0;
  while (calls < kMinSamples || since(start) < args.seconds) {
    ++calls;
    for (int k = 0; k < kSetupRepeatsPerCall; ++k) set_up_once(workload, args, spare);
    spare.pool.reset();
    const double cpu0 = cpu_seconds();
    const auto t0 = Clock::now();
    core::PipelineResult result;
    try {
      result = core::align_pipeline(setup.pair.s0, setup.pair.s1, options);
    } catch (const std::exception& e) {
      check.call_failed(e);
      continue;
    }
    wall.push_back(since(t0));
    cpu.push_back(cpu_seconds() - cpu0);
    sra_mb.push_back(static_cast<double>(result.sra_peak_bytes) / 1e6);
    check.check(result);
  }
  if (wall.empty()) throw std::runtime_error("no alignment call returned");
  setup.seconds.insert(setup.seconds.end(), spare.seconds.begin(), spare.seconds.end());

  std::printf("wall_s  %s\n        samples:%s\n", describe_samples(wall).c_str(),
              list_samples(wall).c_str());
  std::printf("cpu_s   %s\n", describe_samples(cpu).c_str());
  std::printf("setup_s %s\n", describe_samples(setup.seconds).c_str());
  const double wall_s = median(wall);
  metrics.add("wall_s", wall_s, "s");
  metrics.add("gcups", cells_of(setup.pair) / wall_s / 1e9, "GCUPS");
  metrics.add("cpu_s", median(cpu), "s");
  metrics.add("peak_rss_mb", peak_rss_mb(), "MB");
  metrics.add("sra_peak_mb", median(sra_mb), "MB");
  metrics.add("setup_s", median(setup.seconds), "s");
  metrics.add("error_rate",
              static_cast<double>(check.failed()) / static_cast<double>(check.attempted()),
              "ratio");
}

// ---------------------------------------------------------------------------
// --trace 1: per-layer metrics.
// ---------------------------------------------------------------------------

/// One traced pipeline: the stage calls align_pipeline chains (without a
/// checkpoint directory), each inside a span.
struct Chain {
  core::PipelineResult result;
  int root = -1;
  std::array<int, 6> stage_span{-1, -1, -1, -1, -1, -1};
};

Chain traced_pipeline(const seq::SequencePair& pair, const core::PipelineOptions& o, Trace& trace,
                      int run) {
  Chain c;
  core::PipelineResult& r = c.result;
  ScopedSpan root(trace, "pipeline", run);
  c.root = root.id();
  const auto v0 = pair.s0.bases();
  const auto v1 = pair.s1.bases();
  const auto stage = [&](int k, auto&& body) {
    ScopedSpan span(trace, "core.stage" + std::to_string(k), run);
    c.stage_span[static_cast<std::size_t>(k - 1)] = span.id();
    return body();
  };

  cudalign::TempDir temp("cudalign-sra");
  sra::SpecialRowsArea rows_area(temp.path() / "rows", o.sra_rows_budget);
  sra::SpecialRowsArea cols_area(temp.path() / "cols", o.sra_cols_budget);

  core::Stage1Config c1;
  c1.scheme = o.scheme;
  c1.grid = o.grid_stage1;
  c1.rows_area = &rows_area;
  c1.block_pruning = o.block_pruning;
  c1.executor = o.executor;
  c1.sra_async = o.sra_async;
  c1.pool = o.pool;
  const core::Stage1Result st1 = stage(1, [&] { return core::run_stage1(v0, v1, c1); });
  r.stages[0] = st1.stats;
  r.end_point = st1.end_point;
  r.best_score = st1.end_point.score;
  r.special_rows_saved = st1.special_rows_saved;
  r.flush_interval = st1.flush_interval;
  r.crosspoint_counts[0] = 1;
  if (r.best_score <= 0) throw std::runtime_error("traced pipeline: empty alignment");

  core::Stage2Config c2;
  c2.scheme = o.scheme;
  c2.grid = o.grid_stage23;
  c2.rows_area = &rows_area;
  c2.cols_area = o.save_special_columns ? &cols_area : nullptr;
  c2.pool = o.pool;
  core::Stage2Result st2 = stage(2, [&] { return core::run_stage2(v0, v1, r.end_point, c2); });
  r.stages[1] = st2.stats;
  r.special_cols_saved = st2.special_cols_saved;
  r.start_point = st2.crosspoints.front();
  r.crosspoint_counts[1] = static_cast<Index>(st2.crosspoints.size());

  core::CrosspointList l3 = st2.crosspoints;
  core::Stage3Config c3;
  c3.scheme = o.scheme;
  c3.grid = o.grid_stage23;
  c3.cols_area = &cols_area;
  c3.pool = o.pool;
  stage(3, [&] {
    if (o.save_special_columns && r.special_cols_saved > 0) {
      core::Stage3Result st3 = core::run_stage3(v0, v1, st2.crosspoints, c3);
      r.stages[2] = st3.stats;
      l3 = std::move(st3.crosspoints);
    }
    return 0;
  });
  r.crosspoint_counts[2] = static_cast<Index>(l3.size());
  r.sra_peak_bytes = rows_area.peak_bytes() + cols_area.peak_bytes();

  core::Stage4Config c4;
  c4.scheme = o.scheme;
  c4.max_partition_size = o.max_partition_size;
  c4.balanced_splitting = o.balanced_splitting;
  c4.orthogonal = o.orthogonal_stage4;
  c4.pool = o.pool;
  core::Stage4Result st4 = stage(4, [&] { return core::run_stage4(v0, v1, l3, c4); });
  r.stages[3] = st4.stats;
  r.stage4_iterations = std::move(st4.iterations);
  r.crosspoint_counts[3] = static_cast<Index>(st4.crosspoints.size());

  core::Stage5Config c5;
  c5.scheme = o.scheme;
  c5.pool = o.pool;
  core::Stage5Result st5 = stage(5, [&] { return core::run_stage5(v0, v1, st4.crosspoints, c5); });
  r.stages[4] = st5.stats;
  r.alignment = std::move(st5.alignment);
  r.binary = std::move(st5.binary);

  core::Stage6Result st6 =
      stage(6, [&] { return core::run_stage6(v0, v1, r.binary, o.scheme); });
  r.stages[5] = st6.stats;
  return c;
}

/// The counts a traced chain must reproduce from the untraced pipeline.
bool same_work(const core::PipelineResult& a, const core::PipelineResult& b) {
  for (std::size_t k = 0; k < a.stages.size(); ++k) {
    if (a.stages[k].cells != b.stages[k].cells) return false;
  }
  return a.best_score == b.best_score && a.crosspoint_counts == b.crosspoint_counts &&
         a.alignment.i0 == b.alignment.i0 && a.alignment.j0 == b.alignment.j0 &&
         a.alignment.i1 == b.alignment.i1 && a.alignment.j1 == b.alignment.j1 &&
         a.sra_peak_bytes == b.sra_peak_bytes;
}

/// The variant that computed the most cells of a stage.
const engine::KernelVariant& majority_kernel(const core::StageStats& stats) {
  std::size_t best = 0;
  for (std::size_t k = 1; k < stats.kernels.size(); ++k) {
    if (stats.kernels[k].cells > stats.kernels[best].cells) best = k;
  }
  return engine::kernel_info(static_cast<engine::KernelId>(best));
}

std::string metric_suffix(std::string name) {
  std::replace(name.begin(), name.end(), '+', '_');
  return name;
}

void run_traced(const Args& args, const Setup& setup, const core::PipelineOptions& options,
                const core::PipelineResult& reference_run, OutputCheck& check, Metrics& metrics) {
  const seq::SequencePair& pair = setup.pair;
  const auto v0 = pair.s0.bases();
  const auto v1 = pair.s1.bases();
  const Index m = pair.s0.size();
  const Index n = pair.s1.size();
  Trace trace;
  int run = 0;

  // Untraced and traced pipelines alternate for --seconds; the chain with
  // the median pipeline span supplies the stage metrics, so its stages plus
  // its unattributed remainder add up to its pipeline span exactly.
  std::vector<double> wall;
  std::vector<Chain> chains;
  const auto start = Clock::now();
  std::size_t rounds = 0;
  while (rounds < kMinSamples || since(start) < args.seconds) {
    ++rounds;
    const auto t0 = Clock::now();
    try {
      const core::PipelineResult untraced = core::align_pipeline(pair.s0, pair.s1, options);
      wall.push_back(since(t0));
      check.check(untraced);
    } catch (const std::exception& e) {
      check.call_failed(e);
    }
    try {
      Chain chain = traced_pipeline(pair, options, trace, ++run);
      check.check(chain.result);
      if (!same_work(chain.result, reference_run)) {
        throw std::runtime_error("traced stage chain disagrees with align_pipeline");
      }
      chains.push_back(std::move(chain));
    } catch (const std::exception& e) {
      check.call_failed(e);
    }
  }
  if (chains.empty() || wall.empty()) throw std::runtime_error("no traced pipeline completed");
  std::sort(chains.begin(), chains.end(), [&](const Chain& a, const Chain& b) {
    return trace.duration(a.root) < trace.duration(b.root);
  });
  const Chain& chain = chains[(chains.size() - 1) / 2];
  const core::PipelineResult& r = chain.result;
  const double wall_s = median(wall);

  std::printf("untraced wall_s %s\n", describe_samples(wall).c_str());
  std::printf("self times of the median traced pipeline (run %d of %zu):\n",
              trace.spans()[static_cast<std::size_t>(chain.root)].run, chains.size());
  trace.print_self_times(stdout, chain.root);

  // core: stage self times, GCUPS and counts.
  std::array<double, 6> stage_s{};
  for (std::size_t k = 0; k < 6; ++k) {
    stage_s[k] = trace.self_seconds(chain.stage_span[k]);
    metrics.add("core.stage" + std::to_string(k + 1) + ".s", stage_s[k], "s");
  }
  for (std::size_t k = 0; k < 4; ++k) {
    metrics.add("core.stage" + std::to_string(k + 1) + ".gcups",
                stage_s[k] > 0 ? static_cast<double>(r.stages[k].cells) / stage_s[k] / 1e9 : 0,
                "GCUPS");
  }
  for (std::size_t k = 0; k < 5; ++k) {
    metrics.add("core.stage" + std::to_string(k + 1) + ".cells",
                static_cast<double>(r.stages[k].cells), "count");
  }
  metrics.add("core.crosspoints.l2", static_cast<double>(r.crosspoint_counts[1]), "count");
  metrics.add("core.crosspoints.l3", static_cast<double>(r.crosspoint_counts[2]), "count");
  metrics.add("core.crosspoints.l4", static_cast<double>(r.crosspoint_counts[3]), "count");
  metrics.add("core.stage4.iterations", static_cast<double>(r.stage4_iterations.size()), "count");
  metrics.add("trace.pipeline_s", trace.duration(chain.root), "s");
  metrics.add("trace.unattributed_s", trace.self_seconds(chain.root), "s");
  metrics.add("trace.overhead_s", trace.duration(chain.root) - wall_s, "s");

  // core.stage1 flush path.
  const core::StageStats& s1 = r.stages[0];
  metrics.add("core.stage1.flush_wait_s", s1.sra_flush_wait_seconds, "s");
  metrics.add("core.stage1.writer_busy_s", s1.sra_writer_busy_seconds, "s");
  metrics.add("core.stage1.flush_queue_peak", static_cast<double>(s1.sra_flush_queue_peak),
              "count");
  metrics.add("core.stage1.rows_acked", static_cast<double>(s1.sra_rows_acked), "count");

  // engine: score-only Stage-1 wavefront on the benchmark's pool and on a
  // single-threaded one.
  engine::ProblemSpec spec;
  spec.a = v0;
  spec.b = v1;
  spec.recurrence = engine::Recurrence::local(options.scheme);
  spec.grid = options.grid_stage1;
  spec.executor = options.executor;
  ScoreOnlyProbe parallel, serial;
  {
    ScopedSpan span(trace, "probe.engine.score_only", ++run);
    parallel = probe_score_only(spec, *setup.pool, kScoreOnlyRepeats);
  }
  {
    ScopedSpan span(trace, "probe.engine.score_only_1w", ++run);
    ThreadPool one(1);
    serial = probe_score_only(spec, one, kScoreOnlyRepeats);
  }
  if (parallel.last.best.score != r.best_score || serial.last.best.score != r.best_score) {
    check.call_failed(std::runtime_error("score-only wavefront disagrees with the pipeline"));
  }
  const double threads = static_cast<double>(threads_of(*setup.pool));
  metrics.add("engine.score_only.s", parallel.seconds, "s");
  metrics.add("engine.score_only.gcups", cells_of(pair) / parallel.seconds / 1e9, "GCUPS");
  metrics.add("engine.score_only_1w.s", serial.seconds, "s");
  metrics.add("engine.parallel_efficiency", serial.seconds / (threads * parallel.seconds), "ratio");
  metrics.add("engine.flush_cost_s", stage_s[0] - parallel.seconds, "s");
  const engine::RunStats& es = parallel.last.stats;
  metrics.add("engine.tiles", static_cast<double>(es.tiles), "count");
  metrics.add("engine.tiles_stolen", static_cast<double>(es.tiles_stolen), "count");
  metrics.add("engine.starvation_waits", static_cast<double>(es.starvation_waits), "count");
  metrics.add("engine.hbus_bytes", static_cast<double>(es.hbus_bytes), "count");
  metrics.add("engine.vbus_bytes", static_cast<double>(es.vbus_bytes), "count");

  // engine kernels: each stage's majority variant on a tile of that stage's
  // shape, cut from the middle of the pair.
  const engine::GridSpec g1 = engine::fit_to_width(options.grid_stage1, n);
  TileCut cut1;
  cut1.a = v0;
  cut1.b = v1;
  cut1.rows = std::min(g1.strip_rows(), m);
  cut1.cols = n / std::max<Index>(1, std::min(g1.blocks, n));
  cut1.r0 = (m - cut1.rows) / 2;
  cut1.c0 = (n - cut1.cols) / 2;
  // Stage 2 runs transposed (engine rows are original columns) over one
  // flush interval of special rows.
  const Index rect_h = std::min(m, std::max<Index>(1, r.flush_interval) * g1.strip_rows());
  const engine::GridSpec g2 = engine::fit_to_width(options.grid_stage23, rect_h);
  TileCut cut2;
  cut2.a = v1;
  cut2.b = v0;
  cut2.rows = std::min(g2.strip_rows(), n);
  cut2.cols = rect_h / std::max<Index>(1, std::min(g2.blocks, rect_h));
  cut2.r0 = (n - cut2.rows) / 2;
  cut2.c0 = (m - cut2.cols) / 2;
  const engine::KernelVariant& k1 = majority_kernel(r.stages[0]);
  const engine::KernelVariant& k2 = majority_kernel(r.stages[1]);
  double kernel1 = 0, kernel2 = 0;
  {
    ScopedSpan span(trace, "probe.engine.kernel.stage1", ++run);
    kernel1 = probe_kernel_gcups(k1, spec.recurrence, cut1);
  }
  {
    ScopedSpan span(trace, "probe.engine.kernel.stage2", ++run);
    kernel2 = probe_kernel_gcups(
        k2, engine::Recurrence::global_end(cudalign::dp::CellState::kH, options.scheme), cut2);
  }
  std::printf("kernel probes: stage1 %s on %lldx%lld, stage2 %s on %lldx%lld\n", k1.name,
              static_cast<long long>(cut1.rows), static_cast<long long>(cut1.cols), k2.name,
              static_cast<long long>(cut2.rows), static_cast<long long>(cut2.cols));
  metrics.add("engine.kernel.stage1.gcups", kernel1, "GCUPS");
  metrics.add("engine.kernel.stage2.gcups", kernel2, "GCUPS");
  for (std::size_t stage = 0; stage < 3; ++stage) {
    for (const engine::KernelVariant& v : engine::kernel_registry()) {
      const engine::KernelTally& tally = r.stages[stage].kernels[static_cast<std::size_t>(v.id)];
      metrics.add("core.stage" + std::to_string(stage + 1) + ".kernel_cells." +
                      metric_suffix(v.name),
                  static_cast<double>(tally.cells), "count");
    }
  }

  // sra: the Stage-1 rows replayed through a fresh store, plus the
  // pipeline's own SRA traffic summed over the stages.
  SraProbe sra_probe;
  {
    ScopedSpan span(trace, "probe.sra", ++run);
    cudalign::TempDir dir("perfbench-sra");
    sra_probe = probe_sra(dir.path() / "rows", std::max<Index>(1, s1.sra_rows_flushed), n + 1);
  }
  metrics.add("sra.put_MBps", sra_probe.put_mbps, "MB/s");
  metrics.add("sra.get_MBps", sra_probe.get_mbps, "MB/s");
  double rows_flushed = 0, bytes_flushed = 0, rows_read = 0, bytes_read = 0;
  for (const core::StageStats& s : r.stages) {
    rows_flushed += static_cast<double>(s.sra_rows_flushed);
    bytes_flushed += static_cast<double>(s.sra_bytes_flushed);
    rows_read += static_cast<double>(s.sra_rows_read);
    bytes_read += static_cast<double>(s.sra_bytes_read);
  }
  metrics.add("sra.rows_flushed", rows_flushed, "count");
  metrics.add("sra.bytes_flushed", bytes_flushed, "count");
  metrics.add("sra.rows_read", rows_read, "count");
  metrics.add("sra.bytes_read", bytes_read, "count");

  // common: CRC-32 over one special row's bytes.
  {
    ScopedSpan span(trace, "probe.common.crc32", ++run);
    metrics.add("common.crc32_MBps",
                probe_crc32_mbps(static_cast<std::size_t>(n + 1) * sizeof(engine::BusCell)),
                "MB/s");
  }

  {
    ScopedSpan span(trace, "check.reference", ++run);
    check.check_reference(args.reference_cache);
  }
  if (!args.trace_file.empty()) {
    trace.write_chrome(args.trace_file, fingerprint_json(args, *setup.pool));
    std::printf("trace: %zu spans -> %s\n", trace.spans().size(), args.trace_file.c_str());
  }
}

int run(const Args& args) {
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) usage_error("unknown workload " + args.workload);
  refuse_foreign_configuration();

  (void)engine::active_simd_isa();  // Lazy ISA dispatch, once per process.
  Setup setup;
  for (int k = 0; k < kSetupRepeats; ++k) set_up_once(*workload, args, setup);
  const core::PipelineOptions options = pipeline_options(*workload, setup.pool.get());
  std::printf("perfbench %s seed %llu: %lld x %lld, SRA budget %lld MiB, %zu pool workers, "
              "%zu compute threads\n",
              workload->name, static_cast<unsigned long long>(args.seed),
              static_cast<long long>(setup.pair.s0.size()),
              static_cast<long long>(setup.pair.s1.size()),
              static_cast<long long>(workload->sra_budget / kMiB), setup.pool->worker_count(),
              threads_of(*setup.pool));
  std::printf("fingerprint %s\n", fingerprint_json(args, *setup.pool).c_str());

  OutputCheck check(setup.pair, options.scheme);
  Metrics metrics;
  // Warm-up: untimed, output-checked; it fills caches and lazy state.
  const core::PipelineResult warm = core::align_pipeline(setup.pair.s0, setup.pair.s1, options);
  check.check(warm);
  std::printf("work per call: best_score %d, cells by stage", warm.best_score);
  for (const core::StageStats& st : warm.stages) {
    std::printf(" %lld", static_cast<long long>(st.cells));
  }
  std::printf(", crosspoints %lld/%lld/%lld\n", static_cast<long long>(warm.crosspoint_counts[1]),
              static_cast<long long>(warm.crosspoint_counts[2]),
              static_cast<long long>(warm.crosspoint_counts[3]));
  if (args.trace == 0) {
    run_end_to_end(*workload, args, setup, options, check, metrics);
  } else {
    run_traced(args, setup, options, warm, check, metrics);
  }
  std::printf("attempted %lld, failed %lld, error_rate %g\n",
              static_cast<long long>(check.attempted()), static_cast<long long>(check.failed()),
              static_cast<double>(check.failed()) / static_cast<double>(check.attempted()));
  metrics.print_table();
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}\n",
              check.failed() == 0 ? "true" : "false", static_cast<long long>(check.attempted()),
              static_cast<long long>(check.failed()), metrics.json().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
