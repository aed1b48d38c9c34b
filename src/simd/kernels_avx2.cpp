// AVX2+FMA kernel family. This translation unit is compiled with
// -mavx2 -mfma (set per-file by CMake when QOKIT_SIMD is ON and the target
// is x86-64) and contributes nothing to the build otherwise; dispatch picks
// it at runtime only when CPUID reports both extensions.
//
// Numerics: the phase kernel computes e^{-i gamma c} with an in-register
// sin/cos (Cody–Waite quadrant reduction + Cephes minimax polynomials,
// ~1 ulp over the reduced range, |angle| up to 1e9 with a libm fallback
// beyond). Reductions keep four independent accumulator lanes per block and
// collapse them in a fixed order, so every result is a deterministic
// function of the input alone. The parity suite pins both families to each
// other within 1e-12 per amplitude.
#include "simd/kernels.hpp"

#if QOKIT_SIMD_X86

#include <immintrin.h>

#include <cmath>

#include "common/bitops.hpp"
#include "simd/butterfly_group.hpp"
#include "simd/sincos_coeffs.hpp"

namespace qokit {
namespace simd {
namespace {

// ------------------------------------------------------------- sin/cos
// Constants shared with the AVX-512 family (simd/sincos_coeffs.hpp).
using namespace sincos;

inline __m256d poly6(__m256d z, const double (&c)[6]) {
  __m256d p = _mm256_set1_pd(c[0]);
  p = _mm256_fmadd_pd(p, z, _mm256_set1_pd(c[1]));
  p = _mm256_fmadd_pd(p, z, _mm256_set1_pd(c[2]));
  p = _mm256_fmadd_pd(p, z, _mm256_set1_pd(c[3]));
  p = _mm256_fmadd_pd(p, z, _mm256_set1_pd(c[4]));
  p = _mm256_fmadd_pd(p, z, _mm256_set1_pd(c[5]));
  return p;
}

/// Four simultaneous sin/cos. Precondition: every |x| <= kHugeAngle.
inline void sincos4(__m256d x, __m256d* s_out, __m256d* c_out) {
  // Quadrant index k = round(x * 2/pi) and reduced argument r in
  // [-pi/4, pi/4] via the three-term split.
  const __m256d k = _mm256_round_pd(
      _mm256_mul_pd(x, _mm256_set1_pd(kTwoOverPi)),
      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m256d r = _mm256_fnmadd_pd(k, _mm256_set1_pd(kDP1), x);
  r = _mm256_fnmadd_pd(k, _mm256_set1_pd(kDP2), r);
  r = _mm256_fnmadd_pd(k, _mm256_set1_pd(kDP3), r);

  const __m256i q = _mm256_cvtepi32_epi64(_mm256_cvtpd_epi32(k));

  const __m256d z = _mm256_mul_pd(r, r);
  // sin(r) = r + r z P(z);  cos(r) = 1 - z/2 + z^2 Q(z).
  const __m256d sin_r =
      _mm256_fmadd_pd(_mm256_mul_pd(poly6(z, kSinCof), z), r, r);
  const __m256d cos_r = _mm256_fmadd_pd(
      poly6(z, kCosCof), _mm256_mul_pd(z, z),
      _mm256_fnmadd_pd(_mm256_set1_pd(0.5), z, _mm256_set1_pd(1.0)));

  // Quadrant fixup: q&1 swaps sin/cos; q&2 flips sin; (q+1)&2 flips cos.
  const __m256d swap = _mm256_castsi256_pd(_mm256_cmpeq_epi64(
      _mm256_and_si256(q, _mm256_set1_epi64x(1)), _mm256_set1_epi64x(1)));
  const __m256d sin_sign = _mm256_castsi256_pd(_mm256_slli_epi64(
      _mm256_and_si256(q, _mm256_set1_epi64x(2)), 62));
  const __m256d cos_sign = _mm256_castsi256_pd(_mm256_slli_epi64(
      _mm256_and_si256(_mm256_add_epi64(q, _mm256_set1_epi64x(1)),
                       _mm256_set1_epi64x(2)),
      62));
  *s_out = _mm256_xor_pd(_mm256_blendv_pd(sin_r, cos_r, swap), sin_sign);
  *c_out = _mm256_xor_pd(_mm256_blendv_pd(cos_r, sin_r, swap), cos_sign);
}

// ------------------------------------------------- complex-multiply bits
// Interleaved packed complex layout: one __m256d holds [re0, im0, re1, im1].

/// (a * f) for interleaved a and broadcast factor halves f_re = [c,c,c',c'],
/// f_im = [s,s,s',s']: fmaddsub gives re = ar*c - ai*s, im = ai*c + ar*s.
inline __m256d cmul_bcast(__m256d a, __m256d f_re, __m256d f_im) {
  const __m256d a_sw = _mm256_permute_pd(a, 0x5);  // [im0, re0, im1, re1]
  return _mm256_fmaddsub_pd(a, f_re, _mm256_mul_pd(a_sw, f_im));
}

/// Sign mask flipping the odd (imaginary-slot) lanes.
inline __m256d neg_odd() { return _mm256_setr_pd(0.0, -0.0, 0.0, -0.0); }

// Tail/fallback elements run the *scalar family's* function (compiled
// without FMA contraction in its own TU), so they match the scalar dispatch
// level bit-for-bit — a local loop here would contract differently.
void phase_scalar_tail(cdouble* amp, const double* costs, std::uint64_t count,
                       double gamma) {
  if (count) detail::scalar_kernels.phase(amp, costs, count, gamma);
}

// --------------------------------------------------------------- kernels

void phase_avx2(cdouble* amp, const double* costs, std::uint64_t count,
                double gamma) {
  double* d = reinterpret_cast<double*>(amp);
  const __m256d vng = _mm256_set1_pd(-gamma);
  const __m256d vhuge = _mm256_set1_pd(kHugeAngle);
  const __m256d abs_mask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffll));
  std::uint64_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m256d ang = _mm256_mul_pd(vng, _mm256_loadu_pd(costs + i));
    if (_mm256_movemask_pd(_mm256_cmp_pd(_mm256_and_pd(ang, abs_mask), vhuge,
                                         _CMP_GT_OQ))) {
      phase_scalar_tail(amp + i, costs + i, 4, gamma);
      continue;
    }
    __m256d vs, vc;
    sincos4(ang, &vs, &vc);
    // Spread [c0,c1,c2,c3] into per-complex broadcast halves.
    const __m256d f01_re = _mm256_permute4x64_pd(vc, 0x50);  // [c0,c0,c1,c1]
    const __m256d f01_im = _mm256_permute4x64_pd(vs, 0x50);
    const __m256d f23_re = _mm256_permute4x64_pd(vc, 0xFA);  // [c2,c2,c3,c3]
    const __m256d f23_im = _mm256_permute4x64_pd(vs, 0xFA);
    const __m256d a01 = _mm256_loadu_pd(d + 2 * i);
    const __m256d a23 = _mm256_loadu_pd(d + 2 * i + 4);
    _mm256_storeu_pd(d + 2 * i, cmul_bcast(a01, f01_re, f01_im));
    _mm256_storeu_pd(d + 2 * i + 4, cmul_bcast(a23, f23_re, f23_im));
  }
  phase_scalar_tail(amp + i, costs + i, count - i, gamma);
}

void phase_rx_avx2(cdouble* amp, const double* costs, std::uint64_t count,
                   double gamma, double c, double s) {
  // Fused phase + qubit-0 RX. The phase half is phase_avx2's body
  // verbatim (including the huge-angle scalar fallback, taken for the
  // same absolute groups of 4 since both drivers issue 4-aligned ranges);
  // the butterfly half is rx_pairs_avx2's qubit-0 update applied to the
  // phased registers — identical values whether kept in register or
  // stored and reloaded, so the pair of unfused kernels is reproduced bit
  // for bit with one memory round trip instead of two.
  double* d = reinterpret_cast<double*>(amp);
  const __m256d vng = _mm256_set1_pd(-gamma);
  const __m256d vhuge = _mm256_set1_pd(kHugeAngle);
  const __m256d abs_mask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffll));
  const __m256d vc = _mm256_set1_pd(c);
  const __m256d vs = _mm256_set1_pd(s);
  const __m256d nodd = neg_odd();
  std::uint64_t i = 0;
  for (; i + 4 <= count; i += 4) {
    __m256d p01, p23;
    const __m256d ang = _mm256_mul_pd(vng, _mm256_loadu_pd(costs + i));
    if (_mm256_movemask_pd(_mm256_cmp_pd(_mm256_and_pd(ang, abs_mask), vhuge,
                                         _CMP_GT_OQ))) {
      phase_scalar_tail(amp + i, costs + i, 4, gamma);
      p01 = _mm256_loadu_pd(d + 2 * i);
      p23 = _mm256_loadu_pd(d + 2 * i + 4);
    } else {
      __m256d vsin, vcos;
      sincos4(ang, &vsin, &vcos);
      const __m256d f01_re = _mm256_permute4x64_pd(vcos, 0x50);
      const __m256d f01_im = _mm256_permute4x64_pd(vsin, 0x50);
      const __m256d f23_re = _mm256_permute4x64_pd(vcos, 0xFA);
      const __m256d f23_im = _mm256_permute4x64_pd(vsin, 0xFA);
      p01 = cmul_bcast(_mm256_loadu_pd(d + 2 * i), f01_re, f01_im);
      p23 = cmul_bcast(_mm256_loadu_pd(d + 2 * i + 4), f23_re, f23_im);
    }
    const __m256d m01 =
        _mm256_xor_pd(_mm256_permute4x64_pd(p01, 0x1B), nodd);
    _mm256_storeu_pd(d + 2 * i,
                     _mm256_fmadd_pd(vc, p01, _mm256_mul_pd(vs, m01)));
    const __m256d m23 =
        _mm256_xor_pd(_mm256_permute4x64_pd(p23, 0x1B), nodd);
    _mm256_storeu_pd(d + 2 * i + 4,
                     _mm256_fmadd_pd(vc, p23, _mm256_mul_pd(vs, m23)));
  }
  if (i < count) {
    // count % 4 == 2: one pair left. Scalar-family phase (the unfused
    // kernel's own tail policy), then the in-register qubit-0 butterfly
    // rx_pairs_avx2 applies to every pair.
    phase_scalar_tail(amp + i, costs + i, count - i, gamma);
    const __m256d a = _mm256_loadu_pd(d + 2 * i);
    const __m256d m = _mm256_xor_pd(_mm256_permute4x64_pd(a, 0x1B), nodd);
    _mm256_storeu_pd(d + 2 * i,
                     _mm256_fmadd_pd(vc, a, _mm256_mul_pd(vs, m)));
  }
}

inline __m256d load_factor_pair(const cdouble* f0, const cdouble* f1) {
  return _mm256_set_m128d(
      _mm_loadu_pd(reinterpret_cast<const double*>(f1)),
      _mm_loadu_pd(reinterpret_cast<const double*>(f0)));
}

/// amp[i] *= f_i for two complex at a time, factors fetched by the caller.
inline void table_mul2(double* d, std::uint64_t i, __m256d f) {
  const __m256d f_re = _mm256_movedup_pd(f);        // [re0, re0, re1, re1]
  const __m256d f_im = _mm256_permute_pd(f, 0xF);   // [im0, im0, im1, im1]
  const __m256d a = _mm256_loadu_pd(d + 2 * i);
  _mm256_storeu_pd(d + 2 * i, cmul_bcast(a, f_re, f_im));
}

void phase_table_avx2(cdouble* amp, const std::uint16_t* codes,
                      const cdouble* table, std::uint64_t count) {
  double* d = reinterpret_cast<double*>(amp);
  std::uint64_t i = 0;
  for (; i + 2 <= count; i += 2)
    table_mul2(d, i, load_factor_pair(table + codes[i], table + codes[i + 1]));
  for (; i < count; ++i) amp[i] *= table[codes[i]];
}

void phase_popcount_avx2(cdouble* amp, std::uint64_t index_base,
                         std::uint64_t count, const cdouble* table) {
  double* d = reinterpret_cast<double*>(amp);
  std::uint64_t i = 0;
  for (; i + 2 <= count; i += 2)
    table_mul2(d, i,
               load_factor_pair(table + popcount(index_base + i),
                                table + popcount(index_base + i + 1)));
  for (; i < count; ++i) amp[i] *= table[popcount(index_base + i)];
}

// ------------------------------------------------------------ butterflies
// Register ops for the radix traversal (simd/butterfly_group.hpp), which
// is also the per-qubit kernel (m = 1). One register holds two complexes,
// so qubit 0 pairs within a register and qubits >= 1 across registers.
// Odd-pair remainders go to the scalar family (a local loop here would
// FMA-contract).

struct Avx2F64 {
  using T = double;
  using V = __m256d;
  struct Coef {
    V c, s, nodd;
  };
  static constexpr int kLog2W = 1;
  static constexpr bool in_register(int) { return true; }
  static V load(const double* p) { return _mm256_loadu_pd(p); }
  static void store(double* p, V v) { _mm256_storeu_pd(p, v); }
  static V reverse(V v) { return _mm256_permute2f128_pd(v, v, 0x01); }
  template <detail::Butterfly K>
  static Coef coef(double c, double s) {
    if constexpr (K == detail::Butterfly::Hadamard)
      return {_mm256_set1_pd(0.70710678118654752440), V{}, V{}};
    return {_mm256_set1_pd(c), _mm256_set1_pd(s), neg_odd()};
  }
  /// Rx: y0 = c x0 - i s x1, y1 = c x1 - i s x0, with -i x as the
  /// [im, -re] swap; H: y0 = (x0 + x1) k, y1 = (x0 - x1) k.
  template <detail::Butterfly K>
  static void cross(V& a, V& b, const Coef& k) {
    if constexpr (K == detail::Butterfly::Rx) {
      const V mb = _mm256_xor_pd(_mm256_permute_pd(b, 0x5), k.nodd);
      const V ma = _mm256_xor_pd(_mm256_permute_pd(a, 0x5), k.nodd);
      a = _mm256_fmadd_pd(k.c, a, _mm256_mul_pd(k.s, mb));
      b = _mm256_fmadd_pd(k.c, b, _mm256_mul_pd(k.s, ma));
    } else {
      const V sum =
          detail::no_contract(_mm256_mul_pd(_mm256_add_pd(a, b), k.c));
      b = detail::no_contract(_mm256_mul_pd(_mm256_sub_pd(a, b), k.c));
      a = sum;
    }
  }
  /// Qubit 0: the register is the pair [r0, i0, r1, i1].
  template <detail::Butterfly K>
  static V in_reg(V a, int, const Coef& k) {
    if constexpr (K == detail::Butterfly::Rx) {
      // Cross-partner operand [i1, -r1, i0, -r0]: lane reversal + sign.
      const V m = _mm256_xor_pd(_mm256_permute4x64_pd(a, 0x1B), k.nodd);
      return _mm256_fmadd_pd(k.c, a, _mm256_mul_pd(k.s, m));
    }
    // Lanes 0-1: x0 + x1; lanes 2-3: x0 - x1 (b - a has the partner first
    // in the high half, giving the required x0 - x1 order).
    const V b = _mm256_permute2f128_pd(a, a, 0x01);
    return detail::no_contract(_mm256_mul_pd(
        _mm256_blend_pd(_mm256_add_pd(a, b), _mm256_sub_pd(b, a), 0xC), k.c));
  }
  static void tail(detail::Butterfly kind, cdouble* x, int qubit,
                   std::uint64_t kb, std::uint64_t ke, double c, double s) {
    if (kind == detail::Butterfly::Rx)
      detail::scalar_kernels.rx_pairs(x, qubit, kb, ke, c, s);
    else
      detail::scalar_kernels.hadamard_pairs(x, qubit, kb, ke);
  }
};

void rx_pairs_avx2(cdouble* x, int qubit, std::uint64_t kb, std::uint64_t ke,
                   double c, double s) {
  detail::RadixGroup<Avx2F64>::run(x, qubit, 1, kb, ke, detail::Butterfly::Rx,
                                   c, s);
}

void hadamard_pairs_avx2(cdouble* x, int qubit, std::uint64_t kb,
                         std::uint64_t ke) {
  detail::RadixGroup<Avx2F64>::run(x, qubit, 1, kb, ke,
                                   detail::Butterfly::Hadamard, 0.0, 0.0);
}

// ------------------------------------------------------------ reductions
// |amp|^2 for four complex: squares, then horizontal pair-add. hadd of the
// two square registers yields lane order [n0, n2, n1, n3]; cost/value
// registers are permuted with 0xD8 ([v0, v2, v1, v3]) to match.

inline __m256d norms4(const double* d, std::uint64_t i) {
  const __m256d a01 = _mm256_loadu_pd(d + 2 * i);
  const __m256d a23 = _mm256_loadu_pd(d + 2 * i + 4);
  return _mm256_hadd_pd(_mm256_mul_pd(a01, a01), _mm256_mul_pd(a23, a23));
}

/// Fixed-order horizontal sum: (l0 + l2) + (l1 + l3).
inline double hsum(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d s = _mm_add_pd(lo, hi);
  return _mm_cvtsd_f64(s) + _mm_cvtsd_f64(_mm_unpackhi_pd(s, s));
}

double expectation_avx2(const cdouble* amp, const double* costs,
                        std::uint64_t count) {
  const double* d = reinterpret_cast<const double*>(amp);
  __m256d acc = _mm256_setzero_pd();
  std::uint64_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m256d cp =
        _mm256_permute4x64_pd(_mm256_loadu_pd(costs + i), 0xD8);
    acc = _mm256_fmadd_pd(norms4(d, i), cp, acc);
  }
  double out = hsum(acc);
  for (; i < count; ++i) out += std::norm(amp[i]) * costs[i];
  return out;
}

double expectation_u16_avx2(const cdouble* amp, const std::uint16_t* codes,
                            double offset, double scale, std::uint64_t count) {
  const double* d = reinterpret_cast<const double*>(amp);
  const __m256d voff = _mm256_set1_pd(offset);
  const __m256d vscale = _mm256_set1_pd(scale);
  __m256d acc = _mm256_setzero_pd();
  std::uint64_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m128i c16 = _mm_loadl_epi64(
        reinterpret_cast<const __m128i*>(codes + i));
    const __m256d vals = _mm256_fmadd_pd(
        vscale, _mm256_cvtepi32_pd(_mm_cvtepu16_epi32(c16)), voff);
    acc = _mm256_fmadd_pd(norms4(d, i), _mm256_permute4x64_pd(vals, 0xD8),
                          acc);
  }
  double out = hsum(acc);
  for (; i < count; ++i)
    out += std::norm(amp[i]) * (offset + scale * codes[i]);
  return out;
}

double norm_squared_avx2(const cdouble* amp, std::uint64_t count) {
  const double* d = reinterpret_cast<const double*>(amp);
  __m256d acc = _mm256_setzero_pd();
  std::uint64_t i = 0;
  for (; i + 4 <= count; i += 4) acc = _mm256_add_pd(acc, norms4(d, i));
  double out = hsum(acc);
  for (; i < count; ++i) out += std::norm(amp[i]);
  return out;
}

double overlap_avx2(const cdouble* amp, const double* costs, double threshold,
                    std::uint64_t count) {
  const double* d = reinterpret_cast<const double*>(amp);
  const __m256d vthr = _mm256_set1_pd(threshold);
  __m256d acc = _mm256_setzero_pd();
  std::uint64_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m256d cp =
        _mm256_permute4x64_pd(_mm256_loadu_pd(costs + i), 0xD8);
    const __m256d mask = _mm256_cmp_pd(cp, vthr, _CMP_LE_OQ);
    acc = _mm256_add_pd(acc, _mm256_and_pd(norms4(d, i), mask));
  }
  double out = hsum(acc);
  for (; i < count; ++i)
    if (costs[i] <= threshold) out += std::norm(amp[i]);
  return out;
}

// ===================================================== f32 family
// Interleaved packed complex64 layout: one __m256 holds four complexes
// [r0, i0, r1, i1, r2, i2, r3, i3] — twice the f64 register density, half
// the bytes per pass. Angle math runs through the same double-precision
// sincos4 above and narrows once to float; reductions widen each 128-bit
// half back to double with cvtps_pd and reuse the f64 accumulation
// structure, so every reduction is double end to end (the error-
// containment contract). Tails and odd remainders delegate to the scalar
// f32 family, mirroring the f64 policy.

/// Sign mask flipping the odd (imaginary-slot) float lanes.
inline __m256 neg_odd_ps() {
  return _mm256_setr_ps(0.0f, -0.0f, 0.0f, -0.0f, 0.0f, -0.0f, 0.0f, -0.0f);
}

/// (a * f) for interleaved a and per-complex broadcast halves
/// f_re = [c0,c0,c1,c1,...], f_im = [s0,s0,s1,s1,...].
inline __m256 cmul_bcast_ps(__m256 a, __m256 f_re, __m256 f_im) {
  const __m256 a_sw = _mm256_permute_ps(a, 0xB1);  // [im, re] per complex
  return _mm256_fmaddsub_ps(a, f_re, _mm256_mul_ps(a_sw, f_im));
}

/// Narrow four double factors [f0,f1,f2,f3] to float and spread each into
/// its complex's two lanes: [f0,f0,f1,f1,f2,f2,f3,f3].
inline __m256 spread4_ps(__m256d v) {
  const __m128 v4 = _mm256_cvtpd_ps(v);
  const __m256i idx = _mm256_setr_epi32(0, 0, 1, 1, 2, 2, 3, 3);
  return _mm256_permutevar8x32_ps(_mm256_set_m128(v4, v4), idx);
}

void phase_scalar_tail_f32(cfloat* amp, const double* costs,
                           std::uint64_t count, double gamma) {
  if (count) detail::scalar_kernels_f32.phase(amp, costs, count, gamma);
}

void phase_avx2_f32(cfloat* amp, const double* costs, std::uint64_t count,
                    double gamma) {
  float* d = reinterpret_cast<float*>(amp);
  const __m256d vng = _mm256_set1_pd(-gamma);
  const __m256d vhuge = _mm256_set1_pd(kHugeAngle);
  const __m256d abs_mask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffll));
  std::uint64_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m256d ang = _mm256_mul_pd(vng, _mm256_loadu_pd(costs + i));
    if (_mm256_movemask_pd(_mm256_cmp_pd(_mm256_and_pd(ang, abs_mask), vhuge,
                                         _CMP_GT_OQ))) {
      phase_scalar_tail_f32(amp + i, costs + i, 4, gamma);
      continue;
    }
    __m256d vs, vc;
    sincos4(ang, &vs, &vc);
    const __m256 a = _mm256_loadu_ps(d + 2 * i);
    _mm256_storeu_ps(d + 2 * i,
                     cmul_bcast_ps(a, spread4_ps(vc), spread4_ps(vs)));
  }
  phase_scalar_tail_f32(amp + i, costs + i, count - i, gamma);
}

void phase_rx_avx2_f32(cfloat* amp, const double* costs, std::uint64_t count,
                       double gamma, double c, double s) {
  // Fused phase + qubit-0 RX, two pairs per register. The cross-partner
  // operand [i1, -r1, i0, -r0] is a within-lane reversal + sign, so the
  // butterfly never crosses the 128-bit boundary.
  float* d = reinterpret_cast<float*>(amp);
  const __m256d vng = _mm256_set1_pd(-gamma);
  const __m256d vhuge = _mm256_set1_pd(kHugeAngle);
  const __m256d abs_mask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffll));
  const __m256 vc = _mm256_set1_ps(static_cast<float>(c));
  const __m256 vs = _mm256_set1_ps(static_cast<float>(s));
  const __m256 nodd = neg_odd_ps();
  std::uint64_t i = 0;
  for (; i + 4 <= count; i += 4) {
    __m256 p;
    const __m256d ang = _mm256_mul_pd(vng, _mm256_loadu_pd(costs + i));
    if (_mm256_movemask_pd(_mm256_cmp_pd(_mm256_and_pd(ang, abs_mask), vhuge,
                                         _CMP_GT_OQ))) {
      phase_scalar_tail_f32(amp + i, costs + i, 4, gamma);
      p = _mm256_loadu_ps(d + 2 * i);
    } else {
      __m256d vsin, vcos;
      sincos4(ang, &vsin, &vcos);
      p = cmul_bcast_ps(_mm256_loadu_ps(d + 2 * i), spread4_ps(vcos),
                        spread4_ps(vsin));
    }
    const __m256 m = _mm256_xor_ps(_mm256_permute_ps(p, 0x1B), nodd);
    _mm256_storeu_ps(d + 2 * i,
                     _mm256_fmadd_ps(vc, p, _mm256_mul_ps(vs, m)));
  }
  // count % 4 == 2: one pair left; the scalar family fuses it whole.
  if (i < count)
    detail::scalar_kernels_f32.phase_rx(amp + i, costs + i, count - i, gamma,
                                        c, s);
}

/// Four complex64 factors gathered into [re0,im0,...,re3,im3].
inline __m256 load_factor4_ps(const cfloat* f0, const cfloat* f1,
                              const cfloat* f2, const cfloat* f3) {
  const __m128d lo = _mm_loadh_pd(
      _mm_load_sd(reinterpret_cast<const double*>(f0)),
      reinterpret_cast<const double*>(f1));
  const __m128d hi = _mm_loadh_pd(
      _mm_load_sd(reinterpret_cast<const double*>(f2)),
      reinterpret_cast<const double*>(f3));
  return _mm256_set_m128(_mm_castpd_ps(hi), _mm_castpd_ps(lo));
}

/// amp[i..i+3] *= f_0..3 for four complexes, factors fetched by the caller.
inline void table_mul4_ps(float* d, std::uint64_t i, __m256 f) {
  const __m256 f_re = _mm256_moveldup_ps(f);  // [re0, re0, re1, re1, ...]
  const __m256 f_im = _mm256_movehdup_ps(f);  // [im0, im0, im1, im1, ...]
  const __m256 a = _mm256_loadu_ps(d + 2 * i);
  _mm256_storeu_ps(d + 2 * i, cmul_bcast_ps(a, f_re, f_im));
}

void phase_table_avx2_f32(cfloat* amp, const std::uint16_t* codes,
                          const cfloat* table, std::uint64_t count) {
  float* d = reinterpret_cast<float*>(amp);
  std::uint64_t i = 0;
  for (; i + 4 <= count; i += 4)
    table_mul4_ps(d, i,
                  load_factor4_ps(table + codes[i], table + codes[i + 1],
                                  table + codes[i + 2], table + codes[i + 3]));
  for (; i < count; ++i) amp[i] *= table[codes[i]];
}

void phase_popcount_avx2_f32(cfloat* amp, std::uint64_t index_base,
                             std::uint64_t count, const cfloat* table) {
  float* d = reinterpret_cast<float*>(amp);
  std::uint64_t i = 0;
  for (; i + 4 <= count; i += 4)
    table_mul4_ps(d, i,
                  load_factor4_ps(table + popcount(index_base + i),
                                  table + popcount(index_base + i + 1),
                                  table + popcount(index_base + i + 2),
                                  table + popcount(index_base + i + 3)));
  for (; i < count; ++i) amp[i] *= table[popcount(index_base + i)];
}

// Four complexes per register: qubit 0 pairs within each 128-bit lane
// and qubits >= 2 across registers. Qubit 1 has no in-register butterfly
// and runs through the scalar family, as do remainders.
struct Avx2F32 {
  using T = float;
  using V = __m256;
  struct Coef {
    V c, s, nodd;
  };
  static constexpr int kLog2W = 2;
  static constexpr bool in_register(int level) { return level == 0; }
  static V load(const float* p) { return _mm256_loadu_ps(p); }
  static void store(float* p, V v) { _mm256_storeu_ps(p, v); }
  static V reverse(V v) {
    return _mm256_castpd_ps(
        _mm256_permute4x64_pd(_mm256_castps_pd(v), 0x1B));
  }
  template <detail::Butterfly K>
  static Coef coef(double c, double s) {
    if constexpr (K == detail::Butterfly::Hadamard)
      return {_mm256_set1_ps(0.70710678118654752440f), V{}, V{}};
    return {_mm256_set1_ps(static_cast<float>(c)),
            _mm256_set1_ps(static_cast<float>(s)), neg_odd_ps()};
  }
  template <detail::Butterfly K>
  static void cross(V& a, V& b, const Coef& k) {
    if constexpr (K == detail::Butterfly::Rx) {
      const V mb = _mm256_xor_ps(_mm256_permute_ps(b, 0xB1), k.nodd);
      const V ma = _mm256_xor_ps(_mm256_permute_ps(a, 0xB1), k.nodd);
      a = _mm256_fmadd_ps(k.c, a, _mm256_mul_ps(k.s, mb));
      b = _mm256_fmadd_ps(k.c, b, _mm256_mul_ps(k.s, ma));
    } else {
      const V sum =
          detail::no_contract(_mm256_mul_ps(_mm256_add_ps(a, b), k.c));
      b = detail::no_contract(_mm256_mul_ps(_mm256_sub_ps(a, b), k.c));
      a = sum;
    }
  }
  /// Qubit 0 (the only in_register level): each 128-bit lane is one pair
  /// [r0, i0, r1, i1].
  template <detail::Butterfly K>
  static V in_reg(V a, int, const Coef& k) {
    if constexpr (K == detail::Butterfly::Rx) {
      // Cross-partner operand [i1, -r1, i0, -r0]: within-lane reversal.
      const V m = _mm256_xor_ps(_mm256_permute_ps(a, 0x1B), k.nodd);
      return _mm256_fmadd_ps(k.c, a, _mm256_mul_ps(k.s, m));
    }
    // Swap the two complexes within each lane; blend keeps x0 + x1 in the
    // low complex and takes x0 - x1 (partner-first b - a) in the high one.
    const V b = _mm256_permute_ps(a, 0x4E);
    return detail::no_contract(_mm256_mul_ps(
        _mm256_blend_ps(_mm256_add_ps(a, b), _mm256_sub_ps(b, a), 0xCC),
        k.c));
  }
  static void tail(detail::Butterfly kind, cfloat* x, int qubit,
                   std::uint64_t kb, std::uint64_t ke, double c, double s) {
    if (kind == detail::Butterfly::Rx)
      detail::scalar_kernels_f32.rx_pairs(x, qubit, kb, ke, c, s);
    else
      detail::scalar_kernels_f32.hadamard_pairs(x, qubit, kb, ke);
  }
};

void rx_pairs_avx2_f32(cfloat* x, int qubit, std::uint64_t kb,
                       std::uint64_t ke, double c, double s) {
  detail::RadixGroup<Avx2F32>::run(x, qubit, 1, kb, ke, detail::Butterfly::Rx,
                                   c, s);
}

void hadamard_pairs_avx2_f32(cfloat* x, int qubit, std::uint64_t kb,
                             std::uint64_t ke) {
  detail::RadixGroup<Avx2F32>::run(x, qubit, 1, kb, ke,
                                   detail::Butterfly::Hadamard, 0.0, 0.0);
}

// f32 reductions: widen each 128-bit half of the four loaded complexes to
// double with cvtps_pd, then reuse the f64 norms4/hsum structure — the
// accumulator registers are __m256d, so nothing aggregates at float.

inline __m256d norms4_f32(const float* d, std::uint64_t i) {
  const __m256 a = _mm256_loadu_ps(d + 2 * i);
  const __m256d a01 = _mm256_cvtps_pd(_mm256_castps256_ps128(a));
  const __m256d a23 = _mm256_cvtps_pd(_mm256_extractf128_ps(a, 1));
  return _mm256_hadd_pd(_mm256_mul_pd(a01, a01), _mm256_mul_pd(a23, a23));
}

/// Scalar-tail |amp|^2 with the components widened to double first.
inline double norm_widened_f32(cfloat a) {
  const double re = a.real(), im = a.imag();
  return re * re + im * im;
}

double expectation_avx2_f32(const cfloat* amp, const double* costs,
                            std::uint64_t count) {
  const float* d = reinterpret_cast<const float*>(amp);
  __m256d acc = _mm256_setzero_pd();
  std::uint64_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m256d cp =
        _mm256_permute4x64_pd(_mm256_loadu_pd(costs + i), 0xD8);
    acc = _mm256_fmadd_pd(norms4_f32(d, i), cp, acc);
  }
  double out = hsum(acc);
  for (; i < count; ++i) out += norm_widened_f32(amp[i]) * costs[i];
  return out;
}

double expectation_u16_avx2_f32(const cfloat* amp, const std::uint16_t* codes,
                                double offset, double scale,
                                std::uint64_t count) {
  const float* d = reinterpret_cast<const float*>(amp);
  const __m256d voff = _mm256_set1_pd(offset);
  const __m256d vscale = _mm256_set1_pd(scale);
  __m256d acc = _mm256_setzero_pd();
  std::uint64_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m128i c16 = _mm_loadl_epi64(
        reinterpret_cast<const __m128i*>(codes + i));
    const __m256d vals = _mm256_fmadd_pd(
        vscale, _mm256_cvtepi32_pd(_mm_cvtepu16_epi32(c16)), voff);
    acc = _mm256_fmadd_pd(norms4_f32(d, i),
                          _mm256_permute4x64_pd(vals, 0xD8), acc);
  }
  double out = hsum(acc);
  for (; i < count; ++i)
    out += norm_widened_f32(amp[i]) * (offset + scale * codes[i]);
  return out;
}

double norm_squared_avx2_f32(const cfloat* amp, std::uint64_t count) {
  const float* d = reinterpret_cast<const float*>(amp);
  __m256d acc = _mm256_setzero_pd();
  std::uint64_t i = 0;
  for (; i + 4 <= count; i += 4) acc = _mm256_add_pd(acc, norms4_f32(d, i));
  double out = hsum(acc);
  for (; i < count; ++i) out += norm_widened_f32(amp[i]);
  return out;
}

double overlap_avx2_f32(const cfloat* amp, const double* costs,
                        double threshold, std::uint64_t count) {
  const float* d = reinterpret_cast<const float*>(amp);
  const __m256d vthr = _mm256_set1_pd(threshold);
  __m256d acc = _mm256_setzero_pd();
  std::uint64_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m256d cp =
        _mm256_permute4x64_pd(_mm256_loadu_pd(costs + i), 0xD8);
    const __m256d mask = _mm256_cmp_pd(cp, vthr, _CMP_LE_OQ);
    acc = _mm256_add_pd(acc, _mm256_and_pd(norms4_f32(d, i), mask));
  }
  double out = hsum(acc);
  for (; i < count; ++i)
    if (costs[i] <= threshold) out += norm_widened_f32(amp[i]);
  return out;
}

}  // namespace

namespace detail {

const Kernels avx2_kernels = {
    .phase = phase_avx2,
    .phase_table = phase_table_avx2,
    .phase_popcount = phase_popcount_avx2,
    .phase_rx = phase_rx_avx2,
    .rx_pairs = rx_pairs_avx2,
    .hadamard_pairs = hadamard_pairs_avx2,
    .butterfly_group = detail::RadixGroup<Avx2F64>::run,
    .mirror_rx = detail::MirrorRx<Avx2F64>::run,
    .expectation = expectation_avx2,
    .expectation_u16 = expectation_u16_avx2,
    .norm_squared = norm_squared_avx2,
    .overlap = overlap_avx2,
};

const KernelsF32 avx2_kernels_f32 = {
    .phase = phase_avx2_f32,
    .phase_table = phase_table_avx2_f32,
    .phase_popcount = phase_popcount_avx2_f32,
    .phase_rx = phase_rx_avx2_f32,
    .rx_pairs = rx_pairs_avx2_f32,
    .hadamard_pairs = hadamard_pairs_avx2_f32,
    .butterfly_group = detail::RadixGroup<Avx2F32>::run,
    .mirror_rx = detail::MirrorRx<Avx2F32>::run,
    .expectation = expectation_avx2_f32,
    .expectation_u16 = expectation_u16_avx2_f32,
    .norm_squared = norm_squared_avx2_f32,
    .overlap = overlap_avx2_f32,
};

}  // namespace detail
}  // namespace simd
}  // namespace qokit

#else  // !QOKIT_SIMD_X86

// Scalar-only build: this family is absent and dispatch never selects it.
namespace qokit {
namespace simd {}
}  // namespace qokit

#endif  // QOKIT_SIMD_X86
