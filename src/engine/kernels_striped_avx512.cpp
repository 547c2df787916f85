// AVX-512BW striped backends — the only translation unit compiled with
// -mavx512bw.
//
// Same isolation contract as kernels_striped_avx2.cpp: the rest of the engine
// builds for the baseline ISA while this file provides 512-bit backends
// (64 x int8 / 32 x int16 lanes) behind a runtime CPU check. The dispatch in
// kernels_striped.cpp only calls these entry points after
// __builtin_cpu_supports("avx512bw") and avx512_kernels_compiled() both pass,
// so no AVX-512 instruction is ever reached on an older CPU. When the
// toolchain cannot target AVX-512BW the stubs keep the link whole and report
// "not compiled".
//
// BW is required (not just F): the byte/word saturating adds, subs and signed
// max used below are AVX-512BW instructions.
#include <cstdint>

#include "engine/kernel_detail.hpp"

#if defined(__AVX512BW__)

#include <immintrin.h>

#include "engine/striped_core.hpp"

namespace cudalign::engine::detail {

namespace {

template <typename LaneT>
struct Avx512Backend;

template <>
struct Avx512Backend<std::int16_t> {
  using Lane = std::int16_t;
  static constexpr Index kLanes = 32;
  static constexpr Lane kNinfLane = -16384;
  using V = __m512i;

  static V load(const Lane* p) { return _mm512_loadu_si512(p); }
  static void store(Lane* p, V x) { _mm512_storeu_si512(p, x); }
  static V set1(Lane x) { return _mm512_set1_epi16(x); }
  static V zero() { return _mm512_setzero_si512(); }
  static V max(V a, V b) { return _mm512_max_epi16(a, b); }
  static V adds(V a, V b) { return _mm512_adds_epi16(a, b); }
  static V subs(V a, V b) { return _mm512_subs_epi16(a, b); }
  static V and_(V a, V b) { return _mm512_and_si512(a, b); }
};

template <>
struct Avx512Backend<std::int8_t> {
  using Lane = std::int8_t;
  static constexpr Index kLanes = 64;
  static constexpr Lane kNinfLane = -128;
  using V = __m512i;

  static V load(const Lane* p) { return _mm512_loadu_si512(p); }
  static void store(Lane* p, V x) { _mm512_storeu_si512(p, x); }
  static V set1(Lane x) { return _mm512_set1_epi8(static_cast<char>(x)); }
  static V zero() { return _mm512_setzero_si512(); }
  static V max(V a, V b) { return _mm512_max_epi8(a, b); }
  static V adds(V a, V b) { return _mm512_adds_epi8(a, b); }
  static V subs(V a, V b) { return _mm512_subs_epi8(a, b); }
  static V and_(V a, V b) { return _mm512_and_si512(a, b); }
};

}  // namespace

bool avx512_kernels_compiled() noexcept { return true; }

template <typename LaneT>
TileResult run_striped_avx512(const TileJob& job, TileScratch& scratch) {
  return run_striped_core<Avx512Backend<LaneT>>(job, scratch);
}

template TileResult run_striped_avx512<std::int8_t>(const TileJob&, TileScratch&);
template TileResult run_striped_avx512<std::int16_t>(const TileJob&, TileScratch&);

}  // namespace cudalign::engine::detail

#else  // !defined(__AVX512BW__)

namespace cudalign::engine::detail {

bool avx512_kernels_compiled() noexcept { return false; }

template <typename LaneT>
TileResult run_striped_avx512(const TileJob& job, TileScratch& scratch) {
  (void)job;
  (void)scratch;
  CUDALIGN_CHECK(false, "AVX-512 striped kernel called but not compiled in");
  return TileResult{};
}

template TileResult run_striped_avx512<std::int8_t>(const TileJob&, TileScratch&);
template TileResult run_striped_avx512<std::int16_t>(const TileJob&, TileScratch&);

}  // namespace cudalign::engine::detail

#endif  // __AVX512BW__
