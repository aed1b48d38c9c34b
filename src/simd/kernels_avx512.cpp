// AVX-512 kernel level. This translation unit is the only one compiled
// with -mavx512f -mavx512dq (plus -mfma, which GCC's -mavx512f does not
// imply); dispatch picks it when CPUID reports AVX2+FMA and AVX-512F+DQ.
//
// It carries the f64 hot kernels in 8 lanes: phase and phase_rx (with an
// 8-lane sincos), rx_pairs (qubits 0 and 1 inside one register), the
// radix group kernel and the half-space mirror butterfly. Every other
// entry, and the whole f32 family, is the AVX2 one. Each kernel here
// matches AVX2 bit for bit:
//  - per lane it runs the AVX2 kernel's operation sequence on the same
//    constants (sincos8 is sincos4 lane for lane; the butterflies are the
//    same fma(c, a, s * m) and (a +- b) * k);
//  - an 8-element group holding a huge angle, and every remainder, goes to
//    the AVX2 kernel itself, which treats each 4-lane group and each tail
//    exactly as it does for a whole-range call.
// Like the AVX2 TU, nothing here does scalar floating-point arithmetic, and
// the one mul-feeds-add pattern (consecutive Hadamard levels) is fenced by
// no_contract, so no compiler contraction can make a lane differ.
#include "simd/kernels.hpp"

#if QOKIT_SIMD_X86

// GCC 12's AVX-512 intrinsics start from _mm512_undefined_pd() in their
// unmasked forms, which -Wall then reports as "may be used uninitialized"
// (GCC bug 105593). Nothing here reads an undefined lane.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"
#endif

#include <immintrin.h>

#include "simd/butterfly_group.hpp"
#include "simd/sincos_coeffs.hpp"

namespace qokit {
namespace simd {
namespace {

using namespace sincos;

inline __m512d poly6(__m512d z, const double (&c)[6]) {
  __m512d p = _mm512_set1_pd(c[0]);
  p = _mm512_fmadd_pd(p, z, _mm512_set1_pd(c[1]));
  p = _mm512_fmadd_pd(p, z, _mm512_set1_pd(c[2]));
  p = _mm512_fmadd_pd(p, z, _mm512_set1_pd(c[3]));
  p = _mm512_fmadd_pd(p, z, _mm512_set1_pd(c[4]));
  p = _mm512_fmadd_pd(p, z, _mm512_set1_pd(c[5]));
  return p;
}

/// Eight simultaneous sin/cos, lane for lane the AVX2 TU's sincos4.
/// Precondition: every |x| <= kHugeAngle.
inline void sincos8(__m512d x, __m512d* s_out, __m512d* c_out) {
  const __m512d k = _mm512_roundscale_pd(
      _mm512_mul_pd(x, _mm512_set1_pd(kTwoOverPi)),
      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m512d r = _mm512_fnmadd_pd(k, _mm512_set1_pd(kDP1), x);
  r = _mm512_fnmadd_pd(k, _mm512_set1_pd(kDP2), r);
  r = _mm512_fnmadd_pd(k, _mm512_set1_pd(kDP3), r);

  const __m512i q = _mm512_cvtepi32_epi64(_mm512_cvtpd_epi32(k));

  const __m512d z = _mm512_mul_pd(r, r);
  const __m512d sin_r =
      _mm512_fmadd_pd(_mm512_mul_pd(poly6(z, kSinCof), z), r, r);
  const __m512d cos_r = _mm512_fmadd_pd(
      poly6(z, kCosCof), _mm512_mul_pd(z, z),
      _mm512_fnmadd_pd(_mm512_set1_pd(0.5), z, _mm512_set1_pd(1.0)));

  // Quadrant fixup: q&1 swaps sin/cos; q&2 flips sin; (q+1)&2 flips cos.
  const __mmask8 swap = _mm512_test_epi64_mask(q, _mm512_set1_epi64(1));
  const __m512d sin_sign = _mm512_castsi512_pd(
      _mm512_slli_epi64(_mm512_and_si512(q, _mm512_set1_epi64(2)), 62));
  const __m512d cos_sign = _mm512_castsi512_pd(_mm512_slli_epi64(
      _mm512_and_si512(_mm512_add_epi64(q, _mm512_set1_epi64(1)),
                       _mm512_set1_epi64(2)),
      62));
  *s_out = _mm512_xor_pd(_mm512_mask_blend_pd(swap, sin_r, cos_r), sin_sign);
  *c_out = _mm512_xor_pd(_mm512_mask_blend_pd(swap, cos_r, sin_r), cos_sign);
}

/// True when any lane's |angle| exceeds kHugeAngle: the group then goes to
/// the AVX2 kernel, which falls back to libm per 4-lane group.
inline bool any_huge(__m512d ang) {
  return _mm512_cmp_pd_mask(_mm512_abs_pd(ang), _mm512_set1_pd(kHugeAngle),
                            _CMP_GT_OQ) != 0;
}

/// e^{-i ang} applied to the eight complexes at d: factors for complexes
/// 0-3 and 4-7 spread into per-complex broadcast halves, then
/// fmaddsub(a, re, swap(a) * im) as in the AVX2 kernel.
inline void phase8(double* d, __m512d ang, __m512d* p0, __m512d* p1) {
  __m512d vs, vc;
  sincos8(ang, &vs, &vc);
  const __m512i lo = _mm512_setr_epi64(0, 0, 1, 1, 2, 2, 3, 3);
  const __m512i hi = _mm512_setr_epi64(4, 4, 5, 5, 6, 6, 7, 7);
  const __m512d a0 = _mm512_loadu_pd(d);
  const __m512d a1 = _mm512_loadu_pd(d + 8);
  *p0 = _mm512_fmaddsub_pd(a0, _mm512_permutexvar_pd(lo, vc),
                           _mm512_mul_pd(_mm512_permute_pd(a0, 0x55),
                                         _mm512_permutexvar_pd(lo, vs)));
  *p1 = _mm512_fmaddsub_pd(a1, _mm512_permutexvar_pd(hi, vc),
                           _mm512_mul_pd(_mm512_permute_pd(a1, 0x55),
                                         _mm512_permutexvar_pd(hi, vs)));
}

// ------------------------------------------------------------ butterflies
// Four complexes per register: qubits 0 and 1 pair inside a register,
// qubits >= 2 across registers. What AVX2 leaves to its scalar tail is
// left to the AVX2 kernel, which sends it there.

struct Avx512F64 {
  using T = double;
  using V = __m512d;
  struct Coef {
    V c, s, nodd;
  };
  static constexpr int kLog2W = 2;
  static constexpr bool in_register(int) { return true; }
  static V load(const double* p) { return _mm512_loadu_pd(p); }
  static void store(double* p, V v) { _mm512_storeu_pd(p, v); }
  static V reverse(V v) { return _mm512_shuffle_f64x2(v, v, 0x1B); }
  template <detail::Butterfly K>
  static Coef coef(double c, double s) {
    if constexpr (K == detail::Butterfly::Hadamard)
      return {_mm512_set1_pd(0.70710678118654752440), V{}, V{}};
    return {_mm512_set1_pd(c), _mm512_set1_pd(s),
            _mm512_setr_pd(0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0)};
  }
  template <detail::Butterfly K>
  static void cross(V& a, V& b, const Coef& k) {
    if constexpr (K == detail::Butterfly::Rx) {
      const V mb = _mm512_xor_pd(_mm512_permute_pd(b, 0x55), k.nodd);
      const V ma = _mm512_xor_pd(_mm512_permute_pd(a, 0x55), k.nodd);
      a = _mm512_fmadd_pd(k.c, a, _mm512_mul_pd(k.s, mb));
      b = _mm512_fmadd_pd(k.c, b, _mm512_mul_pd(k.s, ma));
    } else {
      const V sum =
          detail::no_contract(_mm512_mul_pd(_mm512_add_pd(a, b), k.c));
      b = detail::no_contract(_mm512_mul_pd(_mm512_sub_pd(a, b), k.c));
      a = sum;
    }
  }
  /// Qubit `level` (0 or 1): the partner of complex j is complex
  /// j ^ 2^level in the same register.
  template <detail::Butterfly K>
  static V in_reg(V a, int level, const Coef& k) {
    // Partner complexes: swap neighbours (level 0) or 256-bit halves.
    const V p = level == 0 ? _mm512_permutex_pd(a, 0x4E)
                           : _mm512_shuffle_f64x2(a, a, 0x4E);
    if constexpr (K == detail::Butterfly::Rx) {
      // Cross-partner operand [im, -re] of each partner.
      const V m = _mm512_xor_pd(_mm512_permute_pd(p, 0x55), k.nodd);
      return _mm512_fmadd_pd(k.c, a, _mm512_mul_pd(k.s, m));
    }
    // Complexes with the level bit clear take x0 + x1, the others the
    // partner-first x0 - x1.
    const __mmask8 high = level == 0 ? 0xCC : 0xF0;
    return detail::no_contract(_mm512_mul_pd(
        _mm512_mask_blend_pd(high, _mm512_add_pd(a, p), _mm512_sub_pd(p, a)),
        k.c));
  }
  static void tail(detail::Butterfly kind, cdouble* x, int qubit,
                   std::uint64_t kb, std::uint64_t ke, double c, double s) {
    if (kind == detail::Butterfly::Rx)
      detail::avx2_kernels.rx_pairs(x, qubit, kb, ke, c, s);
    else
      detail::avx2_kernels.hadamard_pairs(x, qubit, kb, ke);
  }
};

// --------------------------------------------------------------- kernels

void phase_avx512(cdouble* amp, const double* costs, std::uint64_t count,
                  double gamma) {
  double* d = reinterpret_cast<double*>(amp);
  const __m512d vng = _mm512_set1_pd(-gamma);
  std::uint64_t i = 0;
  for (; i + 8 <= count; i += 8) {
    const __m512d ang = _mm512_mul_pd(vng, _mm512_loadu_pd(costs + i));
    if (any_huge(ang)) {
      detail::avx2_kernels.phase(amp + i, costs + i, 8, gamma);
      continue;
    }
    __m512d p0, p1;
    phase8(d + 2 * i, ang, &p0, &p1);
    _mm512_storeu_pd(d + 2 * i, p0);
    _mm512_storeu_pd(d + 2 * i + 8, p1);
  }
  if (i < count)
    detail::avx2_kernels.phase(amp + i, costs + i, count - i, gamma);
}

void phase_rx_avx512(cdouble* amp, const double* costs, std::uint64_t count,
                     double gamma, double c, double s) {
  // phase_avx512's body, then the in-register qubit-0 butterfly on the
  // phased registers before the one store.
  double* d = reinterpret_cast<double*>(amp);
  const __m512d vng = _mm512_set1_pd(-gamma);
  const Avx512F64::Coef k =
      Avx512F64::coef<detail::Butterfly::Rx>(c, s);
  std::uint64_t i = 0;
  for (; i + 8 <= count; i += 8) {
    const __m512d ang = _mm512_mul_pd(vng, _mm512_loadu_pd(costs + i));
    if (any_huge(ang)) {
      detail::avx2_kernels.phase_rx(amp + i, costs + i, 8, gamma, c, s);
      continue;
    }
    __m512d p0, p1;
    phase8(d + 2 * i, ang, &p0, &p1);
    _mm512_storeu_pd(d + 2 * i,
                     Avx512F64::in_reg<detail::Butterfly::Rx>(p0, 0, k));
    _mm512_storeu_pd(d + 2 * i + 8,
                     Avx512F64::in_reg<detail::Butterfly::Rx>(p1, 0, k));
  }
  if (i < count)
    detail::avx2_kernels.phase_rx(amp + i, costs + i, count - i, gamma, c,
                                  s);
}

void rx_pairs_avx512(cdouble* x, int qubit, std::uint64_t kb,
                     std::uint64_t ke, double c, double s) {
  detail::RadixGroup<Avx512F64>::run(x, qubit, 1, kb, ke,
                                     detail::Butterfly::Rx, c, s);
}

}  // namespace

namespace detail {

const Kernels& avx512_kernels() noexcept {
  static const Kernels table = [] {
    Kernels k = avx2_kernels;
    k.phase = phase_avx512;
    k.phase_rx = phase_rx_avx512;
    k.rx_pairs = rx_pairs_avx512;
    k.butterfly_group = RadixGroup<Avx512F64>::run;
    k.mirror_rx = MirrorRx<Avx512F64>::run;
    return k;
  }();
  return table;
}

}  // namespace detail
}  // namespace simd
}  // namespace qokit

#else  // !QOKIT_SIMD_X86

// Scalar-only build: this level is absent and dispatch never selects it.
namespace qokit {
namespace simd {}
}  // namespace qokit

#endif  // QOKIT_SIMD_X86
