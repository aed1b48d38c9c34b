#include "statevector/state.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "common/bitops.hpp"
#include "simd/kernels.hpp"

namespace qokit {

void check_qubit_limit(int num_qubits, Precision prec) {
  if (num_qubits <= kMaxQubits) return;
  // 8 diagonal bytes plus one amplitude per basis state.
  const std::uint64_t per_amp = sizeof(double) + amplitude_bytes(prec);
  const std::string bytes =
      num_qubits < 59 ? std::to_string(per_amp << num_qubits) + " bytes"
                      : "more than 2^64 bytes";
  throw std::invalid_argument(
      "simulator: " + std::to_string(num_qubits) +
      " qubits exceed the limit of " + std::to_string(kMaxQubits) +
      "; the cost diagonal and one " +
      (prec == Precision::F32 ? "f32" : "f64") + " state would need " +
      bytes);
}

StateVector::StateVector(int num_qubits, Precision prec)
    : n_(num_qubits), prec_(prec) {
  if (num_qubits < 0 || num_qubits > kMaxQubits)
    throw std::invalid_argument("StateVector: unsupported qubit count");
  if (prec_ == Precision::F32)
    amp32_.assign(dim_of(num_qubits), cfloat(0.0f, 0.0f));
  else
    amp64_.assign(dim_of(num_qubits), cdouble(0.0, 0.0));
}

StateVector StateVector::basis_state(int num_qubits, std::uint64_t x,
                                     Precision prec) {
  StateVector sv;
  sv.assign_basis(num_qubits, x, prec);
  return sv;
}

StateVector StateVector::plus_state(int num_qubits, Precision prec) {
  StateVector sv;
  sv.assign_plus(num_qubits, prec);
  return sv;
}

StateVector StateVector::plus_state_half(int num_qubits, Precision prec) {
  StateVector sv;
  sv.assign_plus(num_qubits, prec, /*half=*/true);
  return sv;
}

StateVector StateVector::dicke_state(int num_qubits, int weight,
                                     Precision prec) {
  StateVector sv;
  sv.assign_dicke(num_qubits, weight, prec);
  return sv;
}

void StateVector::reshape(int num_qubits, Precision prec, bool half) {
  if (num_qubits < (half ? 1 : 0) || num_qubits > kMaxQubits)
    throw std::invalid_argument("StateVector: unsupported qubit count");
  const std::uint64_t amps = dim_of(half ? num_qubits - 1 : num_qubits);
  n_ = num_qubits;
  prec_ = prec;
  half_ = half;
  // clear() first: a growing resize() would otherwise copy the old
  // amplitudes into the new buffer only for the caller to overwrite them.
  if (prec == Precision::F32) {
    aligned_vector<cdouble>().swap(amp64_);
    amp32_.clear();
    amp32_.resize(amps);
  } else {
    aligned_vector<cfloat>().swap(amp32_);
    amp64_.clear();
    amp64_.resize(amps);
  }
}

namespace {

template <class C>
void fill_blocks(C* amp, std::uint64_t count, C v, Exec exec,
                 std::int64_t block) {
  parallel_for_blocks(exec, static_cast<std::int64_t>(count), block,
                      [=](std::int64_t lo, std::int64_t hi) {
                        std::fill(amp + lo, amp + hi, v);
                      });
}

}  // namespace

void StateVector::assign_basis(int num_qubits, std::uint64_t x,
                               Precision prec) {
  if (num_qubits >= 0 && num_qubits <= kMaxQubits && x >= dim_of(num_qubits))
    throw std::out_of_range("basis_state: index too large");
  reshape(num_qubits, prec, false);
  if (prec == Precision::F32) {
    std::fill(amp32_.begin(), amp32_.end(), cfloat(0.0f, 0.0f));
    amp32_[x] = cfloat(1.0f, 0.0f);
  } else {
    std::fill(amp64_.begin(), amp64_.end(), cdouble(0.0, 0.0));
    amp64_[x] = cdouble(1.0, 0.0);
  }
}

void StateVector::assign_plus(int num_qubits, Precision prec, bool half,
                              Exec exec, std::int64_t block) {
  reshape(num_qubits, prec, half);
  // 2^(-n/2) for every amplitude, also the 2^(n-1) held by half storage.
  const double a = 1.0 / std::sqrt(static_cast<double>(dim_of(num_qubits)));
  if (prec == Precision::F32)
    fill_blocks(amp32_.data(), size(), cfloat(static_cast<float>(a), 0.0f),
                exec, block);
  else
    fill_blocks(amp64_.data(), size(), cdouble(a, 0.0), exec, block);
}

void StateVector::assign_dicke(int num_qubits, int weight, Precision prec) {
  if (weight < 0 || weight > num_qubits)
    throw std::invalid_argument("dicke_state: weight out of range");
  reshape(num_qubits, prec, false);
  std::uint64_t count = 0;
  for (std::uint64_t x = 0; x < size(); ++x)
    if (popcount(x) == weight) ++count;
  const double a = 1.0 / std::sqrt(static_cast<double>(count));
  for (std::uint64_t x = 0; x < size(); ++x) {
    const double v = popcount(x) == weight ? a : 0.0;
    if (prec == Precision::F32)
      amp32_[x] = cfloat(static_cast<float>(v), 0.0f);
    else
      amp64_[x] = cdouble(v, 0.0);
  }
}

namespace {

/// full = [half, half reversed]: a(x) for the lower indices, a(~x) =
/// a(2h - 1 - x) for the upper ones. `full` is already sized 2h.
template <class C>
void expand_amps(const aligned_vector<C>& half, aligned_vector<C>& full) {
  std::copy(half.begin(), half.end(), full.begin());
  std::reverse_copy(half.begin(), half.end(),
                    full.begin() + static_cast<std::ptrdiff_t>(half.size()));
}

}  // namespace

void StateVector::expand_into(StateVector& full) const {
  if (!half_) throw std::logic_error("expand_into: not a half state");
  full.reshape(n_, prec_, false);
  if (prec_ == Precision::F32)
    expand_amps(amp32_, full.amp32_);
  else
    expand_amps(amp64_, full.amp64_);
}

StateVector StateVector::to_precision(Precision prec) const {
  if (prec == prec_) return *this;
  StateVector out;
  out.reshape(n_, prec, half_);
  if (prec == Precision::F32) {
    for (std::uint64_t i = 0; i < size(); ++i)
      out.amp32_[i] = cfloat(static_cast<float>(amp64_[i].real()),
                             static_cast<float>(amp64_[i].imag()));
  } else {
    for (std::uint64_t i = 0; i < size(); ++i)
      out.amp64_[i] = cdouble(amp32_[i]);
  }
  return out;
}

double StateVector::norm_squared(Exec exec) const {
  if (prec_ == Precision::F32)
    return simd::norm_squared(amp32_.data(), size(), exec);
  return simd::norm_squared(amp64_.data(), size(), exec);
}

void StateVector::normalize() {
  const double n2 = norm_squared();
  if (n2 <= 0.0) throw std::runtime_error("normalize: zero vector");
  const double inv = 1.0 / std::sqrt(n2);
  if (prec_ == Precision::F32) {
    const float invf = static_cast<float>(inv);
    for (auto& v : amp32_) v *= invf;
  } else {
    for (auto& v : amp64_) v *= inv;
  }
}

cdouble StateVector::inner(const StateVector& other) const {
  if (other.size() != size())
    throw std::invalid_argument("inner: dimension mismatch");
  if (other.prec_ != prec_)
    throw std::invalid_argument("inner: precision mismatch (widen first)");
  cdouble acc(0.0, 0.0);
  if (prec_ == Precision::F32) {
    for (std::uint64_t i = 0; i < size(); ++i)
      acc += std::conj(cdouble(amp32_[i])) * cdouble(other.amp32_[i]);
  } else {
    for (std::uint64_t i = 0; i < size(); ++i)
      acc += std::conj(amp64_[i]) * other.amp64_[i];
  }
  return acc;
}

void StateVector::probabilities_in_place(Exec exec) {
  if (prec_ == Precision::F32) {
    cfloat* a = amp32_.data();
    parallel_for(exec, 0, static_cast<std::int64_t>(size()),
                 [a](std::int64_t i) {
                   const cdouble w(a[i]);
                   a[i] = cfloat(static_cast<float>(std::norm(w)), 0.0f);
                 });
    return;
  }
  cdouble* a = amp64_.data();
  parallel_for(exec, 0, static_cast<std::int64_t>(size()),
               [a](std::int64_t i) { a[i] = cdouble(std::norm(a[i]), 0.0); });
}

std::vector<double> StateVector::probabilities() const {
  std::vector<double> p(size());
  if (prec_ == Precision::F32) {
    for (std::uint64_t i = 0; i < size(); ++i)
      p[i] = std::norm(cdouble(amp32_[i]));
  } else {
    for (std::uint64_t i = 0; i < size(); ++i) p[i] = std::norm(amp64_[i]);
  }
  return p;
}

double StateVector::weight_sector_mass(int k) const {
  double acc = 0.0;
  for (std::uint64_t x = 0; x < size(); ++x)
    if (popcount(x) == k) acc += std::norm(at(x));
  return acc;
}

double StateVector::max_abs_diff(const StateVector& other) const {
  if (other.size() != size())
    throw std::invalid_argument("max_abs_diff: dimension mismatch");
  double m = 0.0;
  for (std::uint64_t i = 0; i < size(); ++i)
    m = std::max(m, std::abs(at(i) - other.at(i)));
  return m;
}

}  // namespace qokit
