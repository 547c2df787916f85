// Kernel registry and dispatch: the seam between the executor and the tile
// kernel family.
//
// Every kernel variant is a free function with the run_tile signature plus a
// `can_run` predicate describing the (mode, feature, value-range) envelope it
// is exact for. Dispatch walks the registry in cost order and picks the
// cheapest variant whose predicate accepts the job. The roster is what the
// pipeline runs (DESIGN.md "Kernel family and dispatch"):
//   * Stage 1 (local, best tracking): the Farrar-striped sweeps — 8-bit lanes
//     while scores fit, 16-bit next — and the 32-bit anti-diagonal sweep for
//     tiles outside both lane envelopes;
//   * Stages 2-3 (global, no best): the specialized scalar row sweep, one
//     instantiation per taps/probe combination;
//   * legacy, the do-everything loop, for every other job.
// All variants are bit-identical to run_reference; predicates encode
// *exactness* (e.g. the 16-bit kernels reject tiles whose scores could
// overflow their lanes), while size heuristics live in the selector.
//
// Pinning: the CUDALIGN_KERNEL environment variable or set_kernel_override()
// pins a variant by name for the whole process. A pinned variant still only
// runs where its predicate allows — jobs outside its envelope fall back to
// automatic selection, so a pin can never produce wrong results.
//
// A future SIMD/GPU backend plugs in here: add an id to KernelId, implement
// the entry point (engine/kernels_vector.cpp shows the shape), and append a
// row to the table in kernel_registry.cpp — executor, stages and tests pick
// it up unchanged.
#pragma once

#include <span>
#include <string>
#include <string_view>

#include "engine/kernels.hpp"

namespace cudalign::engine {

struct KernelVariant {
  KernelId id = KernelId::kLegacy;
  const char* name = "";  ///< Stable name for CUDALIGN_KERNEL and stats output.
  int cost = 0;           ///< Selection preference; lower wins among eligible variants.
  /// True if the variant computes this job exactly (mode/features/value range).
  bool (*can_run)(const TileJob& job) = nullptr;
  TileResult (*run)(const TileJob& job, TileScratch& scratch) = nullptr;
};

/// All registered variants, in registry (not cost) order.
[[nodiscard]] std::span<const KernelVariant> kernel_registry() noexcept;

/// Looks up a variant by name; nullptr if unknown.
[[nodiscard]] const KernelVariant* find_kernel(std::string_view name) noexcept;

/// Metadata for a kernel id (valid for any id < kCount).
[[nodiscard]] const KernelVariant& kernel_info(KernelId id) noexcept;

/// Picks the variant that runs `job`: the process-wide pin (CUDALIGN_KERNEL
/// or set_kernel_override) when it can run the job, else the cheapest
/// eligible variant in cost order.
[[nodiscard]] const KernelVariant& select_kernel(const TileJob& job);

/// Sets the process-wide override by name (empty string clears it). Throws
/// Error for an unknown name. Thread-safe; takes effect for subsequent tiles.
void set_kernel_override(std::string_view name);

/// The active process-wide override, or nullptr (reflects CUDALIGN_KERNEL on
/// first use unless set_kernel_override was called). An *unknown* name in
/// CUDALIGN_KERNEL throws Error naming the valid names, on every call — a
/// misspelled pin must never silently fall back to automatic selection (the
/// run would silently measure the wrong kernel).
[[nodiscard]] const KernelVariant* kernel_override();

/// Comma-separated list of every registered kernel name (for error messages
/// and --help output).
[[nodiscard]] std::string kernel_names_list();

/// Test hook: drops the cached override state and re-reads CUDALIGN_KERNEL as
/// if the process had just started (throwing on an unknown name).
void reload_kernel_override_from_env();

/// SIMD instruction sets the striped kernels can dispatch to. kGeneric is the
/// portable scalar emulation of the lane ops (bit-identical by construction);
/// kSse2 / kAvx2 / kAvx512 are only selectable where compiled in and
/// CPU-supported (kAvx512 means AVX-512BW: the striped lane ops need the
/// byte/word saturating arithmetic).
enum class SimdIsa : std::uint8_t { kGeneric, kSse2, kAvx2, kAvx512 };

/// The ISA the striped kernels currently dispatch to: the best available one,
/// unless CUDALIGN_SIMD (auto / generic / sse2 / avx2 / avx512) or
/// set_simd_isa_override() forces a baseline. An unknown or unsupported
/// CUDALIGN_SIMD value throws Error on every call, like CUDALIGN_KERNEL.
[[nodiscard]] SimdIsa active_simd_isa();

/// Forces the striped kernels onto `isa` ("auto" via clear_simd_isa_override).
/// Throws Error if the ISA is not compiled in / not supported by this CPU.
/// Thread-safe; used by tests to pin the SSE2/generic baselines on AVX2 hosts.
void set_simd_isa_override(SimdIsa isa);
void clear_simd_isa_override() noexcept;

/// Stable lowercase name of an ISA ("generic", "sse2", "avx2", "avx512").
[[nodiscard]] std::string_view simd_isa_name(SimdIsa isa) noexcept;

/// Test hook: drops the cached ISA state and re-reads CUDALIGN_SIMD as if the
/// process had just started (throwing on an unknown value).
void reload_simd_isa_from_env();

}  // namespace cudalign::engine
