// Scalar kernel family: portable reference implementations of the block
// kernels in simd/kernels.hpp, templated on the amplitude scalar. These are
// the exact loops the simulators ran before the SIMD layer existed,
// reshaped into block-range form, and they double as the correctness oracle
// for the vectorized families (the parity suite asserts agreement within
// 1e-12 per amplitude for f64, 2e-6 for f32).
//
// Precision containment: at T = float the phase angle and its sin/cos are
// still computed in double (one rounding on the narrow to float), the
// butterfly coefficients c/s narrow once before the loop, and every
// reduction accumulates in double — only the amplitude arithmetic itself
// runs at T.
#include <cmath>
#include <complex>
#include <type_traits>

#include "common/bitops.hpp"
#include "simd/butterfly_group.hpp"
#include "simd/kernels.hpp"

namespace qokit {
namespace simd {
namespace {

template <class T>
void phase_scalar(std::complex<T>* amp, const double* costs,
                  std::uint64_t count, double gamma) {
  for (std::uint64_t i = 0; i < count; ++i) {
    const double ang = -gamma * costs[i];
    amp[i] *= std::complex<T>(static_cast<T>(std::cos(ang)),
                              static_cast<T>(std::sin(ang)));
  }
}

template <class T>
void phase_table_scalar(std::complex<T>* amp, const std::uint16_t* codes,
                        const std::complex<T>* table, std::uint64_t count) {
  for (std::uint64_t i = 0; i < count; ++i) amp[i] *= table[codes[i]];
}

template <class T>
void phase_popcount_scalar(std::complex<T>* amp, std::uint64_t index_base,
                           std::uint64_t count, const std::complex<T>* table) {
  for (std::uint64_t i = 0; i < count; ++i)
    amp[i] *= table[popcount(index_base + i)];
}

template <class T>
void phase_rx_scalar(std::complex<T>* amp, const double* costs,
                     std::uint64_t count, double gamma, double c, double s) {
  // Per adjacent pair: the exact statements of phase_scalar on both
  // amplitudes, then the exact qubit-0 update of rx_pairs_scalar — same
  // per-op rounding (this TU has no FMA contraction to drift), one pass.
  T* d = reinterpret_cast<T*>(amp);
  const T tc = static_cast<T>(c);
  const T ts = static_cast<T>(s);
  for (std::uint64_t k = 0; 2 * k < count; ++k) {
    for (std::uint64_t i = 2 * k; i < 2 * k + 2; ++i) {
      const double ang = -gamma * costs[i];
      amp[i] *= std::complex<T>(static_cast<T>(std::cos(ang)),
                                static_cast<T>(std::sin(ang)));
    }
    const std::uint64_t i0 = 4 * k;
    const T x0re = d[i0], x0im = d[i0 + 1];
    const T x1re = d[i0 + 2], x1im = d[i0 + 3];
    d[i0] = tc * x0re + ts * x1im;
    d[i0 + 1] = tc * x0im - ts * x1re;
    d[i0 + 2] = tc * x1re + ts * x0im;
    d[i0 + 3] = tc * x1im - ts * x0re;
  }
}

template <class T>
void rx_pairs_scalar(std::complex<T>* x, int qubit, std::uint64_t kb,
                     std::uint64_t ke, double c, double s) {
  // e^{-i beta X}: y0 = c x0 - i s x1, y1 = -i s x0 + c x1. In real
  // arithmetic on re/im parts this is four FMAs per pair.
  T* d = reinterpret_cast<T*>(x);
  const T tc = static_cast<T>(c);
  const T ts = static_cast<T>(s);
  const std::uint64_t stride = 1ull << qubit;
  for (std::uint64_t k = kb; k < ke; ++k) {
    const std::uint64_t i0 = insert_zero_bit(k, qubit) << 1;
    const std::uint64_t i1 = i0 + (stride << 1);
    const T x0re = d[i0], x0im = d[i0 + 1];
    const T x1re = d[i1], x1im = d[i1 + 1];
    d[i0] = tc * x0re + ts * x1im;
    d[i0 + 1] = tc * x0im - ts * x1re;
    d[i1] = tc * x1re + ts * x0im;
    d[i1 + 1] = tc * x1im - ts * x0re;
  }
}

/// rx_pairs_scalar's update with the partner at the mirror index: the
/// pair (k, half - 1 - k) stands for the full state's (k, k + half).
template <class T>
void mirror_rx_scalar(std::complex<T>* x, std::uint64_t half,
                      std::uint64_t kb, std::uint64_t ke, double c,
                      double s) {
  T* d = reinterpret_cast<T*>(x);
  const T tc = static_cast<T>(c);
  const T ts = static_cast<T>(s);
  for (std::uint64_t k = kb; k < ke; ++k) {
    const std::uint64_t i0 = k << 1;
    const std::uint64_t i1 = (half - 1 - k) << 1;
    const T x0re = d[i0], x0im = d[i0 + 1];
    const T x1re = d[i1], x1im = d[i1 + 1];
    d[i0] = tc * x0re + ts * x1im;
    d[i0 + 1] = tc * x0im - ts * x1re;
    d[i1] = tc * x1re + ts * x0im;
    d[i1 + 1] = tc * x1im - ts * x0re;
  }
}

template <class T>
void hadamard_pairs_scalar(std::complex<T>* x, int qubit, std::uint64_t kb,
                           std::uint64_t ke) {
  constexpr T kInvSqrt2 = static_cast<T>(0.70710678118654752440);
  const std::uint64_t stride = 1ull << qubit;
  for (std::uint64_t k = kb; k < ke; ++k) {
    const std::uint64_t i0 = insert_zero_bit(k, qubit);
    const std::uint64_t i1 = i0 | stride;
    const std::complex<T> x0 = x[i0];
    const std::complex<T> x1 = x[i1];
    x[i0] = (x0 + x1) * kInvSqrt2;
    x[i1] = (x0 - x1) * kInvSqrt2;
  }
}

/// The group entry as m per-qubit pair loops -- the definition the vector
/// families' register-blocked traversal reproduces.
template <class T>
void butterfly_group_scalar(std::complex<T>* x, int q, int m,
                            std::uint64_t gb, std::uint64_t ge,
                            detail::Butterfly kind, double c, double s) {
  detail::group_per_qubit(
      q, m, gb, ge, [&](int qubit, std::uint64_t kb, std::uint64_t ke) {
        if (kind == detail::Butterfly::Rx)
          rx_pairs_scalar(x, qubit, kb, ke, c, s);
        else
          hadamard_pairs_scalar(x, qubit, kb, ke);
      });
}

/// |amp[i]|^2 widened to double before the squares — the one sanctioned
/// pattern for touching f32 amplitudes in a reduction.
template <class T>
inline double norm_widened(const std::complex<T>& a) {
  if constexpr (std::is_same_v<T, double>) {
    return std::norm(a);
  } else {
    const double re = a.real(), im = a.imag();
    return re * re + im * im;
  }
}

template <class T>
double expectation_scalar(const std::complex<T>* amp, const double* costs,
                          std::uint64_t count) {
  double acc = 0.0;
  for (std::uint64_t i = 0; i < count; ++i)
    acc += norm_widened(amp[i]) * costs[i];
  return acc;
}

template <class T>
double expectation_u16_scalar(const std::complex<T>* amp,
                              const std::uint16_t* codes, double offset,
                              double scale, std::uint64_t count) {
  double acc = 0.0;
  for (std::uint64_t i = 0; i < count; ++i)
    acc += norm_widened(amp[i]) * (offset + scale * codes[i]);
  return acc;
}

template <class T>
double norm_squared_scalar(const std::complex<T>* amp, std::uint64_t count) {
  double acc = 0.0;
  for (std::uint64_t i = 0; i < count; ++i) acc += norm_widened(amp[i]);
  return acc;
}

template <class T>
double overlap_scalar(const std::complex<T>* amp, const double* costs,
                      double threshold, std::uint64_t count) {
  double acc = 0.0;
  for (std::uint64_t i = 0; i < count; ++i)
    if (costs[i] <= threshold) acc += norm_widened(amp[i]);
  return acc;
}

}  // namespace

namespace detail {

const Kernels scalar_kernels = {
    .phase = phase_scalar<double>,
    .phase_table = phase_table_scalar<double>,
    .phase_popcount = phase_popcount_scalar<double>,
    .phase_rx = phase_rx_scalar<double>,
    .rx_pairs = rx_pairs_scalar<double>,
    .hadamard_pairs = hadamard_pairs_scalar<double>,
    .butterfly_group = butterfly_group_scalar<double>,
    .mirror_rx = mirror_rx_scalar<double>,
    .expectation = expectation_scalar<double>,
    .expectation_u16 = expectation_u16_scalar<double>,
    .norm_squared = norm_squared_scalar<double>,
    .overlap = overlap_scalar<double>,
};

const KernelsF32 scalar_kernels_f32 = {
    .phase = phase_scalar<float>,
    .phase_table = phase_table_scalar<float>,
    .phase_popcount = phase_popcount_scalar<float>,
    .phase_rx = phase_rx_scalar<float>,
    .rx_pairs = rx_pairs_scalar<float>,
    .hadamard_pairs = hadamard_pairs_scalar<float>,
    .butterfly_group = butterfly_group_scalar<float>,
    .mirror_rx = mirror_rx_scalar<float>,
    .expectation = expectation_scalar<float>,
    .expectation_u16 = expectation_u16_scalar<float>,
    .norm_squared = norm_squared_scalar<float>,
    .overlap = overlap_scalar<float>,
};

}  // namespace detail
}  // namespace simd
}  // namespace qokit
