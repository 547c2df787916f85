#include "engine/kernel_registry.hpp"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <mutex>
#include <string>

#include "check/annotations.hpp"
#include "common/error.hpp"
#include "engine/kernel_detail.hpp"

namespace cudalign::engine {

namespace {

using dp::AlignMode;

bool any_job(const TileJob&) { return true; }

/// Stages 2-3: a global job without best tracking whose taps/probe features
/// match the instantiation exactly (a broader sweep would compute unused
/// features; a narrower one would miss requested ones).
template <bool kTaps, bool kFind>
bool scalar_global_can_run(const TileJob& job) {
  return job.recurrence->mode == AlignMode::kGlobal && !job.track_best &&
         job.tap_cols.empty() != kTaps && job.find_value.has_value() == kFind;
}

/// Stage 1: the vector sweeps always track the local best.
template <bool (*kEnvelope)(const TileJob&)>
bool local_best_can_run(const TileJob& job) {
  return job.track_best && kEnvelope(job);
}

/// The vector sweeps only pay off when a tile is wide and tall enough to fill
/// their lanes; below these shapes a local tile runs on legacy. Pins bypass
/// the gate (can_run still guards correctness).
constexpr Index kVectorMinWidth = 16;
constexpr Index kVectorMinRows = 8;

struct Entry {
  KernelVariant variant;
  Index min_width = 0;  ///< Automatic-selection shape gate, not a correctness bound.
  Index min_rows = 0;
};

constexpr std::size_t kCount = kKernelIdCount;

const std::array<Entry, kCount>& table() {
  static const std::array<Entry, kCount> kTable = {{
      {{KernelId::kLegacy, "legacy", 30, &any_job, &detail::run_legacy}},
      {{KernelId::kScalarGlobal, "scalar-global", 20, &scalar_global_can_run<false, false>,
        &detail::run_scalar<false, false>}},
      {{KernelId::kScalarGlobalTaps, "scalar-global+taps", 20,
        &scalar_global_can_run<true, false>, &detail::run_scalar<true, false>}},
      {{KernelId::kScalarGlobalFind, "scalar-global+find", 20,
        &scalar_global_can_run<false, true>, &detail::run_scalar<false, true>}},
      {{KernelId::kScalarGlobalTapsFind, "scalar-global+taps+find", 20,
        &scalar_global_can_run<true, true>, &detail::run_scalar<true, true>}},
      {{KernelId::kVec16LocalBest, "v16-local+best", 10,
        &local_best_can_run<&detail::vector16_can_run>, &detail::run_vector<std::int16_t>},
       kVectorMinWidth,
       kVectorMinRows},
      {{KernelId::kVec32LocalBest, "v32-local+best", 11,
        &local_best_can_run<&detail::vector_can_run>, &detail::run_vector<std::int32_t>},
       kVectorMinWidth,
       kVectorMinRows},
      {{KernelId::kStriped8LocalBest, "striped8-local+best", 7,
        &local_best_can_run<&detail::striped8_can_run>, &detail::run_striped<std::int8_t>},
       kVectorMinWidth,
       kVectorMinRows},
      {{KernelId::kStriped16LocalBest, "striped16-local+best", 8,
        &local_best_can_run<&detail::striped16_can_run>, &detail::run_striped<std::int16_t>},
       kVectorMinWidth,
       kVectorMinRows},
  }};
  return kTable;
}

/// Table indices in ascending cost (stable within equal cost), computed once.
const std::array<std::size_t, kCount>& cost_order() {
  static const std::array<std::size_t, kCount> kOrder = [] {
    std::array<std::size_t, kCount> order{};
    for (std::size_t i = 0; i < kCount; ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(), [](std::size_t a, std::size_t b) {
      return table()[a].variant.cost < table()[b].variant.cost;
    });
    return order;
  }();
  return kOrder;
}

std::mutex g_override_mutex;
const KernelVariant* g_override CUDALIGN_GUARDED_BY(g_override_mutex) = nullptr;
bool g_override_initialized CUDALIGN_GUARDED_BY(g_override_mutex) = false;

}  // namespace

std::span<const KernelVariant> kernel_registry() noexcept {
  static const std::array<KernelVariant, kCount> kVariants = [] {
    std::array<KernelVariant, kCount> out{};
    for (std::size_t i = 0; i < kCount; ++i) out[i] = table()[i].variant;
    return out;
  }();
  return kVariants;
}

const KernelVariant* find_kernel(std::string_view name) noexcept {
  for (const Entry& entry : table()) {
    if (entry.variant.name == name) return &entry.variant;
  }
  return nullptr;
}

const KernelVariant& kernel_info(KernelId id) noexcept {
  return table()[static_cast<std::size_t>(id)].variant;
}

void set_kernel_override(std::string_view name) {
  std::lock_guard lock(g_override_mutex);
  g_override_initialized = true;
  if (name.empty()) {
    g_override = nullptr;
    return;
  }
  const KernelVariant* v = find_kernel(name);
  CUDALIGN_CHECK(v != nullptr, "unknown kernel variant (see kernel_registry()): " +
                                   std::string(name));
  g_override = v;
}

const KernelVariant* kernel_override() {
  std::lock_guard lock(g_override_mutex);
  if (!g_override_initialized) {
    if (const char* env = std::getenv("CUDALIGN_KERNEL"); env != nullptr && *env != '\0') {
      // A misspelled CUDALIGN_KERNEL must never silently fall back to
      // automatic selection (the run would quietly measure the wrong
      // kernel). The state stays uninitialized, so every call throws.
      const KernelVariant* v = find_kernel(env);
      if (v == nullptr) {
        throw Error("unknown kernel name in CUDALIGN_KERNEL: \"" + std::string(env) +
                    "\"\nvalid names: " + kernel_names_list());
      }
      g_override = v;
    }
    g_override_initialized = true;
  }
  return g_override;
}

std::string kernel_names_list() {
  std::string names;
  for (const KernelVariant& variant : kernel_registry()) {
    if (!names.empty()) names += ", ";
    names += variant.name;
  }
  return names;
}

void reload_kernel_override_from_env() {
  {
    std::lock_guard lock(g_override_mutex);
    g_override = nullptr;
    g_override_initialized = false;
  }
  (void)kernel_override();
}

const KernelVariant& select_kernel(const TileJob& job) {
  if (const KernelVariant* pinned = kernel_override(); pinned != nullptr && pinned->can_run(job)) {
    return *pinned;
  }
  const Index w = job.c1 - job.c0;
  const Index rows = job.r1 - job.r0;
  for (std::size_t idx : cost_order()) {
    const Entry& entry = table()[idx];
    if (w < entry.min_width || rows < entry.min_rows) continue;
    if (entry.variant.can_run(job)) return entry.variant;
  }
  return kernel_info(KernelId::kLegacy);  // Unreachable: legacy accepts any job.
}

}  // namespace cudalign::engine
