// Striped kernel backends (generic + SSE2) and the runtime ISA dispatch.
//
// The algorithm lives in striped_core.hpp, templated over a tiny lane-ops
// backend; this file provides the portable scalar emulation (kGeneric — the
// forced baseline for equivalence tests), the SSE2 128-bit backends, and the
// process-wide ISA selection (CUDALIGN_SIMD / set_simd_isa_override). The
// AVX2 backends live in kernels_striped_avx2.cpp (the one TU compiled with
// -mavx2) and the AVX-512BW backends in kernels_striped_avx512.cpp (the one
// TU compiled with -mavx512bw); each is only entered when the CPU reports the
// matching feature.
//
// SSE2 has no signed 8-bit max (_mm_max_epi8 is SSE4.1), so the int8 backend
// uses the classic bias trick: flip the sign bit, take the *unsigned* max,
// flip back — xor with 0x80 is an order-isomorphism from signed to unsigned.
#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <mutex>
#include <string>
#include <string_view>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "check/annotations.hpp"
#include "common/error.hpp"
#include "engine/kernel_registry.hpp"
#include "engine/striped_core.hpp"

namespace cudalign::engine {

namespace {

/// Portable emulation of the saturating lane ops; bit-identical to the SIMD
/// backends by construction (same widths, same saturation points). 128-bit
/// shaped so generic-vs-SSE2 runs stripe the tile identically.
template <typename LaneT, int N, LaneT kNinf>
struct GenericBackend {
  using Lane = LaneT;
  static constexpr Index kLanes = N;
  static constexpr Lane kNinfLane = kNinf;
  static constexpr int kMin = std::numeric_limits<Lane>::min();
  static constexpr int kMax = std::numeric_limits<Lane>::max();

  struct V {
    Lane v[N];
  };

  static V load(const Lane* p) {
    V r;
    std::memcpy(r.v, p, sizeof(r.v));
    return r;
  }
  static void store(Lane* p, V x) { std::memcpy(p, x.v, sizeof(x.v)); }
  static V set1(Lane x) {
    V r;
    for (Lane& e : r.v) e = x;
    return r;
  }
  static V zero() { return set1(0); }
  static V max(V a, V b) {
    V r;
    for (int i = 0; i < N; ++i) r.v[i] = a.v[i] > b.v[i] ? a.v[i] : b.v[i];
    return r;
  }
  static V adds(V a, V b) {
    V r;
    for (int i = 0; i < N; ++i) {
      r.v[i] = static_cast<Lane>(std::clamp(a.v[i] + b.v[i], kMin, kMax));
    }
    return r;
  }
  static V subs(V a, V b) {
    V r;
    for (int i = 0; i < N; ++i) {
      r.v[i] = static_cast<Lane>(std::clamp(a.v[i] - b.v[i], kMin, kMax));
    }
    return r;
  }
  static V and_(V a, V b) {
    V r;
    for (int i = 0; i < N; ++i) r.v[i] = static_cast<Lane>(a.v[i] & b.v[i]);
    return r;
  }
};

using Generic8 = GenericBackend<std::int8_t, 16, std::int8_t{-128}>;
using Generic16 = GenericBackend<std::int16_t, 8, std::int16_t{-16384}>;

#if defined(__SSE2__)

template <typename LaneT>
struct Sse2Backend;

template <>
struct Sse2Backend<std::int16_t> {
  using Lane = std::int16_t;
  static constexpr Index kLanes = 8;
  static constexpr Lane kNinfLane = -16384;
  using V = __m128i;

  static V load(const Lane* p) { return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)); }
  static void store(Lane* p, V x) { _mm_storeu_si128(reinterpret_cast<__m128i*>(p), x); }
  static V set1(Lane x) { return _mm_set1_epi16(x); }
  static V zero() { return _mm_setzero_si128(); }
  static V max(V a, V b) { return _mm_max_epi16(a, b); }
  static V adds(V a, V b) { return _mm_adds_epi16(a, b); }
  static V subs(V a, V b) { return _mm_subs_epi16(a, b); }
  static V and_(V a, V b) { return _mm_and_si128(a, b); }
};

template <>
struct Sse2Backend<std::int8_t> {
  using Lane = std::int8_t;
  static constexpr Index kLanes = 16;
  static constexpr Lane kNinfLane = -128;
  using V = __m128i;

  static V load(const Lane* p) { return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)); }
  static void store(Lane* p, V x) { _mm_storeu_si128(reinterpret_cast<__m128i*>(p), x); }
  static V set1(Lane x) { return _mm_set1_epi8(static_cast<char>(x)); }
  static V zero() { return _mm_setzero_si128(); }
  static V max(V a, V b) {
    // SSE2 lacks _mm_max_epi8; xor 0x80 maps signed order onto unsigned.
    const V bias = _mm_set1_epi8(static_cast<char>(-128));
    return _mm_xor_si128(_mm_max_epu8(_mm_xor_si128(a, bias), _mm_xor_si128(b, bias)), bias);
  }
  static V adds(V a, V b) { return _mm_adds_epi8(a, b); }
  static V subs(V a, V b) { return _mm_subs_epi8(a, b); }
  static V and_(V a, V b) { return _mm_and_si128(a, b); }
};

#endif  // __SSE2__

[[nodiscard]] bool isa_supported(SimdIsa isa) noexcept {
  switch (isa) {
    case SimdIsa::kGeneric:
      return true;
    case SimdIsa::kSse2:
#if defined(__SSE2__)
      return true;
#else
      return false;
#endif
    case SimdIsa::kAvx2:
#if defined(__x86_64__) || defined(__i386__)
      return detail::avx2_kernels_compiled() && __builtin_cpu_supports("avx2");
#else
      return false;
#endif
    case SimdIsa::kAvx512:
#if defined(__x86_64__) || defined(__i386__)
      return detail::avx512_kernels_compiled() && __builtin_cpu_supports("avx512bw");
#else
      return false;
#endif
  }
  return false;
}

/// The best ISA this build + CPU can run (the "auto" choice).
[[nodiscard]] SimdIsa best_isa() noexcept {
  if (isa_supported(SimdIsa::kAvx512)) return SimdIsa::kAvx512;
  if (isa_supported(SimdIsa::kAvx2)) return SimdIsa::kAvx2;
  if (isa_supported(SimdIsa::kSse2)) return SimdIsa::kSse2;
  return SimdIsa::kGeneric;
}

std::mutex g_isa_mutex;
bool g_isa_env_loaded CUDALIGN_GUARDED_BY(g_isa_mutex) = false;
bool g_isa_forced CUDALIGN_GUARDED_BY(g_isa_mutex) = false;
SimdIsa g_isa CUDALIGN_GUARDED_BY(g_isa_mutex) = SimdIsa::kGeneric;

/// Parses CUDALIGN_SIMD (under g_isa_mutex). Unknown or unsupported values
/// throw and leave the environment unloaded, so every later call throws too:
/// a forced baseline that silently ran AVX2 anyway would invalidate exactly
/// the comparisons the override exists for.
void load_isa_env_locked() CUDALIGN_REQUIRES(g_isa_mutex) {
  const char* env = std::getenv("CUDALIGN_SIMD");
  const std::string_view value = env != nullptr ? env : "";
  if (value.empty() || value == "auto") {
    g_isa_env_loaded = true;
    return;
  }
  SimdIsa isa = SimdIsa::kGeneric;
  if (value == "generic") {
    isa = SimdIsa::kGeneric;
  } else if (value == "sse2") {
    isa = SimdIsa::kSse2;
  } else if (value == "avx2") {
    isa = SimdIsa::kAvx2;
  } else if (value == "avx512") {
    isa = SimdIsa::kAvx512;
  } else {
    throw Error("unknown SIMD ISA in CUDALIGN_SIMD: \"" + std::string(value) +
                "\"\nvalid values: auto, generic, sse2, avx2, avx512");
  }
  if (!isa_supported(isa)) {
    throw Error("CUDALIGN_SIMD=" + std::string(value) + " is not available in this build/CPU");
  }
  g_isa_env_loaded = true;
  g_isa_forced = true;
  g_isa = isa;
}

}  // namespace

SimdIsa active_simd_isa() {
  std::lock_guard lock(g_isa_mutex);
  if (!g_isa_env_loaded) load_isa_env_locked();
  return g_isa_forced ? g_isa : best_isa();
}

void set_simd_isa_override(SimdIsa isa) {
  CUDALIGN_CHECK(isa_supported(isa), "SIMD ISA not available in this build/CPU: " +
                                         std::string(simd_isa_name(isa)));
  std::lock_guard lock(g_isa_mutex);
  g_isa_env_loaded = true;  // An explicit override supersedes the environment.
  g_isa_forced = true;
  g_isa = isa;
}

void clear_simd_isa_override() noexcept {
  std::lock_guard lock(g_isa_mutex);
  g_isa_env_loaded = true;
  g_isa_forced = false;
}

void reload_simd_isa_from_env() {
  std::lock_guard lock(g_isa_mutex);
  g_isa_env_loaded = false;
  g_isa_forced = false;
  load_isa_env_locked();
}

std::string_view simd_isa_name(SimdIsa isa) noexcept {
  switch (isa) {
    case SimdIsa::kGeneric:
      return "generic";
    case SimdIsa::kSse2:
      return "sse2";
    case SimdIsa::kAvx2:
      return "avx2";
    case SimdIsa::kAvx512:
      return "avx512";
  }
  return "unknown";
}

namespace detail {

bool striped8_can_run(const TileJob& job) {
  return vector_can_run(job) && lane_envelope_admits(job, kLaneEnvelope8);
}

bool striped16_can_run(const TileJob& job) {
  return vector_can_run(job) && lane_envelope_admits(job, kLaneEnvelope16);
}

template <typename LaneT>
TileResult run_striped(const TileJob& job, TileScratch& scratch) {
  switch (active_simd_isa()) {
    case SimdIsa::kAvx512:
      return run_striped_avx512<LaneT>(job, scratch);
    case SimdIsa::kAvx2:
      return run_striped_avx2<LaneT>(job, scratch);
    case SimdIsa::kSse2:
#if defined(__SSE2__)
      return run_striped_core<Sse2Backend<LaneT>>(job, scratch);
#else
      break;  // Unreachable: active_simd_isa never reports an unsupported ISA.
#endif
    case SimdIsa::kGeneric:
      break;
  }
  if constexpr (sizeof(LaneT) == 1) {
    return run_striped_core<Generic8>(job, scratch);
  } else {
    return run_striped_core<Generic16>(job, scratch);
  }
}

template TileResult run_striped<std::int8_t>(const TileJob&, TileScratch&);
template TileResult run_striped<std::int16_t>(const TileJob&, TileScratch&);

}  // namespace detail

}  // namespace cudalign::engine
