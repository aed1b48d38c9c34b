// Parity suite for the runtime-dispatched SIMD kernel layer: every
// dispatched kernel must agree with the scalar family within 1e-12 per
// amplitude, across all qubit positions, both Exec policies, and the
// table-driven u16/popcount paths. Also holds the determinism contract
// (Serial == Parallel bitwise at a fixed dispatch level) and the sampler
// edge-case regressions from the hot-path bugfix sweep.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <vector>

#include "api/spec.hpp"
#include "common/bitops.hpp"
#include "common/cpu_features.hpp"
#include "common/rng.hpp"
#include "diagonal/cost_diagonal.hpp"
#include "diagonal/diagonal_u16.hpp"
#include "diagonal/ops.hpp"
#include "fur/fwht.hpp"
#include "fur/simulator.hpp"
#include "fur/su2.hpp"
#include "problems/labs.hpp"
#include "simd/butterfly_group.hpp"
#include "simd/kernels.hpp"
#include "statevector/sampling.hpp"
#include "support/simd_levels.hpp"

namespace qokit {
namespace {

using testing::SimdLevelGuard;
using testing::supported_simd_levels;
using testing::vector_simd_levels;

bool has_vector_level() { return !vector_simd_levels().empty(); }

bool has_avx512() { return simd_level_supported(SimdLevel::Avx512); }

StateVector random_state(int n, std::uint64_t seed) {
  Rng rng(seed);
  StateVector sv(n);
  for (std::uint64_t i = 0; i < sv.size(); ++i)
    sv[i] = cdouble(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
  sv.normalize();
  return sv;
}

aligned_vector<double> random_costs(int n, std::uint64_t seed, double lo,
                                    double hi) {
  Rng rng(seed);
  aligned_vector<double> costs(dim_of(n));
  for (double& c : costs) c = rng.uniform(lo, hi);
  return costs;
}

void expect_states_close(const StateVector& a, const StateVector& b,
                         double tol, const char* what) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_LE(a.max_abs_diff(b), tol) << what;
}

/// Run `body` once per vector level, with that level installed.
template <class F>
void for_each_vector_level(F&& body) {
  for (const SimdLevel level : vector_simd_levels()) {
    SCOPED_TRACE(simd_level_name(level));
    force_simd_level(level);
    body();
  }
}

constexpr Exec kExecs[] = {Exec::Serial, Exec::Parallel};

TEST(SimdDispatch, LevelIsConsistent) {
  SimdLevelGuard guard;
  EXPECT_TRUE(simd_level_compiled(SimdLevel::Scalar));
  EXPECT_STREQ(simd_level_name(SimdLevel::Avx512), "avx512");
  const SimdLevel detected = detect_simd_level();
  // The detected level is the highest supported one; every level is
  // either supported or clamped down to the next supported one.
  EXPECT_EQ(supported_simd_levels().back(), detected);
  for (const SimdLevel level :
       {SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512}) {
    const SimdLevel installed = force_simd_level(level);
    EXPECT_LE(static_cast<int>(installed), static_cast<int>(level));
    EXPECT_TRUE(simd_level_supported(installed));
    EXPECT_EQ(installed == level, simd_level_supported(level));
  }
  EXPECT_EQ(force_simd_level(detected), detected);
  EXPECT_EQ(active_simd_level(), detected);
}

TEST(SimdPhase, DispatchedMatchesScalar) {
  if (!has_vector_level()) GTEST_SKIP() << "scalar-only build/host";
  SimdLevelGuard guard;
  // n = 15 (2^15 elements) spans four kSimdBlock = 2^13 blocks; n = 9
  // exercises the sub-block and vector-tail paths.
  for (int n : {9, 15}) {
    const auto costs = random_costs(n, 11, -40.0, 40.0);
    for (double gamma : {0.37, -2.9, 123.456}) {
      for (Exec exec : kExecs) {
        const StateVector input = random_state(n, 21);
        StateVector a = input;
        force_simd_level(SimdLevel::Scalar);
        apply_phase_slice(a.data(), costs.data(), a.size(), gamma, exec);
        for_each_vector_level([&] {
          StateVector b = input;
          apply_phase_slice(b.data(), costs.data(), b.size(), gamma, exec);
          expect_states_close(a, b, 1e-12, "phase");
        });
      }
    }
  }
}

TEST(SimdPhase, HugeAnglesFallBackToLibm) {
  if (!has_vector_level()) GTEST_SKIP() << "scalar-only build/host";
  SimdLevelGuard guard;
  // |gamma * cost| beyond the vector sincos range must take the libm
  // fallback: groups where every angle is huge match the scalar family
  // exactly, mixed groups stay within the 1e-12 parity bound.
  const auto huge = random_costs(10, 13, 1.1e9, 3.0e9);
  const StateVector input = random_state(10, 23);
  StateVector a = input;
  force_simd_level(SimdLevel::Scalar);
  apply_phase_slice(a.data(), huge.data(), a.size(), 1.0, Exec::Serial);

  const auto mixed = random_costs(10, 15, -3.0e9, 3.0e9);
  const StateVector mixed_input = random_state(10, 25);
  StateVector c = mixed_input;
  apply_phase_slice(c.data(), mixed.data(), c.size(), 1.0, Exec::Serial);
  for_each_vector_level([&] {
    StateVector b = input;
    apply_phase_slice(b.data(), huge.data(), b.size(), 1.0, Exec::Serial);
    EXPECT_EQ(a.max_abs_diff(b), 0.0);
    StateVector d = mixed_input;
    apply_phase_slice(d.data(), mixed.data(), d.size(), 1.0, Exec::Serial);
    expect_states_close(c, d, 1e-12, "phase-mixed-huge");
  });
}

TEST(SimdPhase, U16TablePathMatchesScalar) {
  if (!has_vector_level()) GTEST_SKIP() << "scalar-only build/host";
  SimdLevelGuard guard;
  const int n = 12;
  // Integral spectrum so the u16 codec is exact.
  auto costs = random_costs(n, 17, -100.0, 100.0);
  for (double& c : costs) c = std::round(c);
  const auto diag = CostDiagonal::from_values(n, std::move(costs));
  const auto d16 = DiagonalU16::encode(diag);
  ASSERT_TRUE(d16.is_exact());
  for (Exec exec : kExecs) {
    const StateVector input = random_state(n, 29);
    StateVector a = input;
    force_simd_level(SimdLevel::Scalar);
    apply_phase(a, d16, 0.81, exec);
    for_each_vector_level([&] {
      StateVector b = input;
      apply_phase(b, d16, 0.81, exec);
      expect_states_close(a, b, 1e-12, "phase-u16");
    });
  }
}

TEST(SimdPhase, PopcountTableMatchesScalar) {
  if (!has_vector_level()) GTEST_SKIP() << "scalar-only build/host";
  SimdLevelGuard guard;
  const int n = 11;
  // One entry per possible weight of index_base + j: with the nonzero base
  // below, weights run past n (an (n+1)-entry table was read out of
  // bounds, which AddressSanitizer reports).
  aligned_vector<cdouble> table(65);
  for (int w = 0; w <= 64; ++w) {
    const double ang = 0.3 * w - 0.7;
    table[w] = cdouble(std::cos(ang), std::sin(ang));
  }
  // Nonzero index_base mimics a distributed rank slice.
  for (std::uint64_t base : {0ull, 12345ull}) {
    const StateVector input = random_state(n, 31);
    StateVector a = input;
    force_simd_level(SimdLevel::Scalar);
    simd::apply_phase_popcount(a.data(), base, a.size(), table.data(),
                               Exec::Serial);
    for_each_vector_level([&] {
      StateVector b = input;
      simd::apply_phase_popcount(b.data(), base, b.size(), table.data(),
                                 Exec::Serial);
      expect_states_close(a, b, 1e-12, "phase-popcount");
    });
  }
}

TEST(SimdButterflies, RxMatchesScalarAtEveryQubit) {
  if (!has_vector_level()) GTEST_SKIP() << "scalar-only build/host";
  SimdLevelGuard guard;
  const int n = 12;
  const double c = std::cos(0.42), s = std::sin(0.42);
  for (int q = 0; q < n; ++q) {
    for (Exec exec : kExecs) {
      const StateVector input = random_state(n, 37 + q);
      StateVector a = input;
      force_simd_level(SimdLevel::Scalar);
      kern::rx(a.data(), a.size(), q, c, s, exec);
      for_each_vector_level([&] {
        StateVector b = input;
        kern::rx(b.data(), b.size(), q, c, s, exec);
        expect_states_close(a, b, 1e-12, "rx");
      });
    }
  }
}

TEST(SimdButterflies, HadamardMatchesScalarAtEveryQubit) {
  if (!has_vector_level()) GTEST_SKIP() << "scalar-only build/host";
  SimdLevelGuard guard;
  const int n = 12;
  for (int q = 0; q < n; ++q) {
    for (Exec exec : kExecs) {
      const StateVector input = random_state(n, 41 + q);
      StateVector a = input;
      force_simd_level(SimdLevel::Scalar);
      kern::hadamard(a.data(), a.size(), q, exec);
      for_each_vector_level([&] {
        StateVector b = input;
        kern::hadamard(b.data(), b.size(), q, exec);
        expect_states_close(a, b, 1e-12, "hadamard");
      });
    }
  }
}

TEST(SimdButterflies, FwhtMixerMatchesScalar) {
  if (!has_vector_level()) GTEST_SKIP() << "scalar-only build/host";
  SimdLevelGuard guard;
  for (Exec exec : kExecs) {
    const StateVector input = random_state(13, 43);
    StateVector a = input;
    force_simd_level(SimdLevel::Scalar);
    apply_mixer_x_fwht(a, 0.77, exec);
    for_each_vector_level([&] {
      StateVector b = input;
      apply_mixer_x_fwht(b, 0.77, exec);
      expect_states_close(a, b, 1e-11, "fwht-mixer");
    });
  }
}

TEST(SimdReductions, MatchScalar) {
  if (!has_vector_level()) GTEST_SKIP() << "scalar-only build/host";
  SimdLevelGuard guard;
  const int n = 14;
  const StateVector sv = random_state(n, 47);
  auto costs = random_costs(n, 53, -60.0, 60.0);
  for (double& c : costs) c = std::round(c);
  const auto diag = CostDiagonal::from_values(n, std::move(costs));
  const auto d16 = DiagonalU16::encode(diag);
  for (Exec exec : kExecs) {
    force_simd_level(SimdLevel::Scalar);
    const double e_s = expectation(sv, diag, exec);
    const double e16_s = expectation(sv, d16, exec);
    const double n_s = sv.norm_squared(exec);
    const double o_s = overlap_ground(sv, diag, 2.5, exec);
    for_each_vector_level([&] {
      EXPECT_NEAR(expectation(sv, diag, exec), e_s, 1e-12 * 60.0);
      EXPECT_NEAR(expectation(sv, d16, exec), e16_s, 1e-12 * 60.0);
      EXPECT_NEAR(sv.norm_squared(exec), n_s, 1e-12);
      EXPECT_NEAR(overlap_ground(sv, diag, 2.5, exec), o_s, 1e-12);
    });
  }
}

TEST(SimdReductions, SerialAndParallelAreBitIdentical) {
  // The blocked reduction combines per-block partials in block order
  // regardless of Exec policy or thread count, so Serial and Parallel must
  // agree bitwise at any fixed dispatch level.
  SimdLevelGuard guard;
  const int n = 17;  // above the parallel grain: OpenMP actually engages
  const StateVector sv = random_state(n, 59);
  const auto diag = CostDiagonal::from_values(n, random_costs(n, 61, -5, 5));
  for (const SimdLevel level : supported_simd_levels()) {
    SCOPED_TRACE(simd_level_name(level));
    force_simd_level(level);
    EXPECT_EQ(expectation(sv, diag, Exec::Serial),
              expectation(sv, diag, Exec::Parallel));
    EXPECT_EQ(sv.norm_squared(Exec::Serial), sv.norm_squared(Exec::Parallel));
    StateVector a = sv;
    StateVector b = sv;
    apply_phase(a, diag, 0.9, Exec::Serial);
    apply_phase(b, diag, 0.9, Exec::Parallel);
    EXPECT_EQ(a.max_abs_diff(b), 0.0);
  }
}

TEST(SimdEndToEnd, SimulatorBackendsMatchScalarDispatch) {
  if (!has_vector_level()) GTEST_SKIP() << "scalar-only build/host";
  SimdLevelGuard guard;
  const TermList terms = labs_terms(10);
  const std::vector<double> gammas = {0.3, -0.8, 0.45};
  const std::vector<double> betas = {0.7, 0.2, -0.55};
  for (const char* name : {"serial", "threaded", "u16", "fwht"}) {
    force_simd_level(SimdLevel::Scalar);
    const auto sim_s = choose_simulator(terms, name);
    const StateVector r_s = sim_s->simulate_qaoa(gammas, betas);
    const double e_s = sim_s->get_expectation(r_s);
    const double o_s = sim_s->get_overlap(r_s);
    for_each_vector_level([&] {
      const auto sim_v = choose_simulator(terms, name);
      const StateVector r_v = sim_v->simulate_qaoa(gammas, betas);
      // Under QOKIT_PREC=f32 the names resolve to float amplitudes, where
      // the scalar and vector families agree to float-rounding scale.
      const bool f32 = sim_s->precision() == Precision::F32;
      EXPECT_LE(r_s.max_abs_diff(r_v), f32 ? 5e-6 : 1e-11) << name;
      EXPECT_NEAR(sim_v->get_expectation(r_v), e_s, f32 ? 1e-4 : 1e-10)
          << name;
      EXPECT_NEAR(sim_v->get_overlap(r_v), o_s, f32 ? 1e-4 : 1e-10) << name;
    });
  }
}

// ------------------------------------------- register-blocked butterflies

/// Reproducible interleaved amplitudes of precision T.
template <class T>
std::vector<std::complex<T>> ramp_amps(std::uint64_t count,
                                       std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::complex<T>> out(count);
  for (auto& a : out)
    a = std::complex<T>(static_cast<T>(rng.uniform(-1.0, 1.0)),
                        static_cast<T>(rng.uniform(-1.0, 1.0)));
  return out;
}

template <class T>
void per_qubit(const simd::detail::KernelsT<T>& k,
               simd::detail::Butterfly kind, std::complex<T>* x, int qubit,
               std::uint64_t kb, std::uint64_t ke, double c, double s) {
  if (kind == simd::detail::Butterfly::Rx)
    k.rx_pairs(x, qubit, kb, ke, c, s);
  else
    k.hadamard_pairs(x, qubit, kb, ke);
}

/// One butterfly_group call against m single-qubit calls of the same
/// family over the same amplitudes, bitwise: whole aligned ranges, partial
/// group ranges, and the strided pass's row chunks.
template <class T>
void expect_group_matches_per_qubit(const simd::detail::KernelsT<T>& k) {
  using simd::detail::Butterfly;
  const int n = 9;
  const std::uint64_t dim = std::uint64_t{1} << n;
  const double c = std::cos(0.61), s = std::sin(0.61);
  for (const Butterfly kind : {Butterfly::Rx, Butterfly::Hadamard})
    for (int q = 0; q <= 3; ++q)
      for (int m = 1; m <= 3; ++m) {
        SCOPED_TRACE(::testing::Message()
                     << "q=" << q << " m=" << m << " hadamard="
                     << (kind == Butterfly::Hadamard));
        const std::uint64_t groups = dim >> m;
        const std::uint64_t cols = std::uint64_t{1} << q;
        const auto check = [&](std::uint64_t gb, std::uint64_t ge,
                               const auto& reference, const char* what) {
          auto a = ramp_amps<T>(dim, 97 + q * 4 + m);
          auto b = a;
          k.butterfly_group(a.data(), q, m, gb, ge, kind, c, s);
          reference(b.data());
          for (std::uint64_t i = 0; i < dim; ++i)
            ASSERT_EQ(a[i], b[i]) << what << " [" << gb << ", " << ge
                                  << ") amplitude " << i;
        };
        // Whole blocks: m single-qubit calls with the same pair range.
        for (const auto& [gb, ge] :
             {std::pair{std::uint64_t{0}, groups},
              std::pair{cols, groups - 2 * cols}}) {
          check(gb, ge,
                [&](std::complex<T>* x) {
                  for (int j = 0; j < m; ++j)
                    per_qubit(k, kind, x, q + j, gb << (m - 1),
                              ge << (m - 1), c, s);
                },
                "aligned");
        }
        // Partial group ranges: the per-qubit decomposition that defines
        // the group entry.
        for (const auto& [gb, ge] :
             {std::pair{std::uint64_t{1}, groups - 3},
              std::pair{std::uint64_t{3}, std::uint64_t{6}}}) {
          check(gb, ge,
                [&](std::complex<T>* x) {
                  simd::detail::group_per_qubit(
                      q, m, gb, ge,
                      [&](int qubit, std::uint64_t kb, std::uint64_t ke) {
                        per_qubit(k, kind, x, qubit, kb, ke, c, s);
                      });
                },
                "partial");
        }
        // Strided rows: `chunk` columns of the 2^m rows at stride 2^q, one
        // single-qubit call per row pair (the strided pass's old loop).
        for (std::uint64_t chunk = 1; chunk < cols; ++chunk) {
          const std::uint64_t base = (std::uint64_t{5} << (q + m)) +
                                     (cols - chunk) / 2;
          const std::uint64_t g0 = simd::detail::group_index(base, q, m);
          check(g0, g0 + chunk,
                [&](std::complex<T>* x) {
                  for (int j = 0; j < m; ++j)
                    for (std::uint64_t r = 0; r < (1u << m); ++r) {
                      if ((r >> j) & 1) continue;
                      const std::uint64_t kb =
                          remove_bit(base + (r << q), q + j);
                      per_qubit(k, kind, x, q + j, kb, kb + chunk, c, s);
                    }
                },
                "rows");
        }
      }
}

TEST(SimdGroup, MatchesSingleQubitCallsAtEveryLevel) {
  SimdLevelGuard guard;
  for (const SimdLevel level : supported_simd_levels()) {
    SCOPED_TRACE(simd_level_name(level));
    force_simd_level(level);
    expect_group_matches_per_qubit(simd::detail::active_kernels());
    expect_group_matches_per_qubit(simd::detail::active_kernels_f32());
  }
}

/// mirror_rx on a half state must give every amplitude exactly what the
/// family's butterfly_group gives it as qubit n-1 of the full
/// flip-symmetric state -- whole range, and split at register-unaligned
/// points so the vector families' scalar-fma tail is covered too.
template <class T>
void expect_mirror_matches_top_qubit(const simd::detail::KernelsT<T>& k) {
  const int n = 9;
  const std::uint64_t half = std::uint64_t{1} << (n - 1);
  const double c = std::cos(0.41), s = std::sin(0.41);
  const auto lower = ramp_amps<T>(half, 211);
  std::vector<std::complex<T>> full(2 * half);
  for (std::uint64_t x = 0; x < half; ++x) {
    full[x] = lower[x];
    full[2 * half - 1 - x] = lower[x];
  }
  k.butterfly_group(full.data(), n - 1, 1, 0, half,
                    simd::detail::Butterfly::Rx, c, s);
  for (const std::uint64_t cut : {std::uint64_t{0}, std::uint64_t{3},
                                  half / 2 - 5}) {
    auto h = lower;
    k.mirror_rx(h.data(), half, 0, cut, c, s);
    k.mirror_rx(h.data(), half, cut, half / 2, c, s);
    for (std::uint64_t x = 0; x < half; ++x) {
      ASSERT_EQ(h[x], full[x]) << "cut " << cut << " amplitude " << x;
      ASSERT_EQ(h[x], full[2 * half - 1 - x]) << "cut " << cut << " mirror "
                                              << x;
    }
  }
}

TEST(SimdMirror, MatchesTheTopQubitButterflyAtEveryLevel) {
  SimdLevelGuard guard;
  for (const SimdLevel level : supported_simd_levels()) {
    SCOPED_TRACE(simd_level_name(level));
    force_simd_level(level);
    expect_mirror_matches_top_qubit(simd::detail::active_kernels());
    expect_mirror_matches_top_qubit(simd::detail::active_kernels_f32());
  }
}

#if QOKIT_SIMD_X86
/// Runs one f64 kernel at AVX2 and at AVX-512 on identical inputs.
template <class F>
void expect_avx512_equals_avx2(std::uint64_t count, const char* what,
                               F&& kernel) {
  auto a = ramp_amps<double>(count, 131);
  auto b = a;
  kernel(simd::detail::avx2_kernels, a.data());
  kernel(simd::detail::avx512_kernels(), b.data());
  for (std::uint64_t i = 0; i < count; ++i)
    ASSERT_EQ(a[i], b[i]) << what << " amplitude " << i;
}
#endif

TEST(SimdAvx512, EveryF64KernelMatchesAvx2Bitwise) {
#if QOKIT_SIMD_X86
  if (!has_avx512()) GTEST_SKIP() << "host lacks AVX-512F/DQ";
  using simd::detail::Butterfly;
  using simd::detail::Kernels;
  const int n = 10;
  const std::uint64_t dim = std::uint64_t{1} << n;
  // Ordinary angles, then a mix with huge ones: every 8-lane group that
  // holds one must take AVX2's per-4-lane libm fallback.
  auto costs = random_costs(n, 137, -40.0, 40.0);
  auto huge = random_costs(n, 139, -3.0e9, 3.0e9);
  for (std::uint64_t i = 0; i < dim; i += 3) huge[i] = costs[i];
  const double c = std::cos(0.3), s = std::sin(0.3);
  // Offsets and odd lengths reach the 4-lane and scalar remainders.
  for (const std::uint64_t off : {0, 2, 4})
    for (const std::uint64_t len : {dim - 8, dim - 10, std::uint64_t{6}}) {
      SCOPED_TRACE(::testing::Message() << "off=" << off << " len=" << len);
      for (const auto* cs : {&costs, &huge}) {
        expect_avx512_equals_avx2(dim, "phase", [&](const Kernels& k,
                                                    cdouble* x) {
          k.phase(x + off, cs->data() + off, len, 0.77);
        });
        expect_avx512_equals_avx2(dim, "phase_rx", [&](const Kernels& k,
                                                       cdouble* x) {
          k.phase_rx(x + off, cs->data() + off, len, 0.77, c, s);
        });
      }
    }
  for (int q = 0; q < n; ++q)
    for (const auto& [kb, ke] :
         {std::pair{std::uint64_t{0}, dim / 2},
          std::pair{std::uint64_t{1}, dim / 2 - 3},
          std::pair{std::uint64_t{5}, std::uint64_t{12}}}) {
      SCOPED_TRACE(::testing::Message() << "q=" << q << " [" << kb << ", "
                                        << ke << ")");
      expect_avx512_equals_avx2(dim, "rx_pairs", [&](const Kernels& k,
                                                     cdouble* x) {
        k.rx_pairs(x, q, kb, ke, c, s);
      });
      expect_avx512_equals_avx2(dim, "hadamard_pairs", [&](const Kernels& k,
                                                           cdouble* x) {
        k.hadamard_pairs(x, q, kb, ke);
      });
      for (int m = 1; m <= 3 && q + m <= n; ++m)
        for (const Butterfly kind : {Butterfly::Rx, Butterfly::Hadamard})
          expect_avx512_equals_avx2(dim, "butterfly_group", [&](
                                             const Kernels& k, cdouble* x) {
            k.butterfly_group(x, q, m, kb >> (m - 1), ke >> (m - 1), kind, c,
                              s);
          });
    }
  // The reductions and table kernels are the AVX2 functions themselves.
  const Kernels& v = simd::detail::avx512_kernels();
  const Kernels& w = simd::detail::avx2_kernels;
  EXPECT_EQ(v.expectation, w.expectation);
  EXPECT_EQ(v.phase_table, w.phase_table);
  EXPECT_EQ(v.hadamard_pairs, w.hadamard_pairs);
#else
  GTEST_SKIP() << "built without the vector kernel families";
#endif
}

TEST(SimdAvx512, EndToEndMatchesAvx2Bitwise) {
  if (!has_avx512()) GTEST_SKIP() << "host lacks AVX-512F/DQ";
  SimdLevelGuard guard;
  const std::vector<double> gammas = {0.31, -0.47, 0.83};
  const std::vector<double> betas = {0.78, 0.15, -0.52};
  // n = 18 runs strided passes at the default geometry; n = 9 a lone tile.
  for (const int n : {9, 18}) {
    const TermList terms = labs_terms(n);
    for (const char* name :
         {"auto:prec=f64", "serial:prec=f64", "u16:prec=f64",
          "fwht:prec=f64", "dist:2:prec=f64", "serial:mixer=xyring",
          "auto:prec=f32", "serial:prec=f32", "u16:prec=f32",
          "fwht:prec=f32", "dist:2:prec=f32"}) {
      SCOPED_TRACE(::testing::Message() << name << " n=" << n);
      const SimulatorSpec spec = SimulatorSpec::parse(name);
      force_simd_level(SimdLevel::Avx2);
      const auto sim = make_simulator(terms, spec);
      const StateVector a = sim->simulate_qaoa(gammas, betas);
      const double ea = sim->get_expectation(a);
      force_simd_level(SimdLevel::Avx512);
      const StateVector b = sim->simulate_qaoa(gammas, betas);
      EXPECT_EQ(a.max_abs_diff(b), 0.0);
      EXPECT_EQ(ea, sim->get_expectation(b));
    }
  }
}

// ------------------------------------------------ sector-overlap bugfix

TEST(OverlapSector, MatchesBruteForceAndExecModes) {
  const int n = 10;
  const auto diag = CostDiagonal::from_values(n, random_costs(n, 67, -9, 9));
  const StateVector sv = random_state(n, 71);
  for (int weight : {0, 3, n}) {
    // Brute-force reference: the pre-fix two-scan semantics.
    double lo = 0.0;
    bool found = false;
    for (std::uint64_t x = 0; x < diag.size(); ++x) {
      if (popcount(x) != weight) continue;
      if (!found || diag[x] < lo) {
        lo = diag[x];
        found = true;
      }
    }
    ASSERT_TRUE(found);
    double mass = 0.0;
    for (std::uint64_t x = 0; x < diag.size(); ++x)
      if (popcount(x) == weight && diag[x] <= lo + 1e-9)
        mass += std::norm(sv[x]);
    EXPECT_EQ(diag.sector_min(weight), lo);
    EXPECT_NEAR(overlap_ground_sector(sv, diag, weight, 1e-9, Exec::Serial),
                mass, 1e-13);
    EXPECT_NEAR(overlap_ground_sector(sv, diag, weight, 1e-9, Exec::Parallel),
                mass, 1e-13);
  }
  // Cached second call returns the identical value.
  EXPECT_EQ(diag.sector_min(3), diag.sector_min(3));
  EXPECT_THROW(overlap_ground_sector(sv, diag, -1), std::invalid_argument);
  EXPECT_THROW(overlap_ground_sector(sv, diag, n + 1), std::invalid_argument);
}

// --------------------------------------------------- sampler regressions

TEST(SamplerRegression, FullMassVariateClampsToLastNonzeroState) {
  // Trailing amplitudes are zero: u = 1.0 lands past the final cumulative
  // entry and must not select a zero-probability bitstring (the pre-fix
  // clamp picked the last index overall).
  StateVector sv(3);
  sv[1] = cdouble(std::sqrt(0.5), 0.0);
  sv[3] = cdouble(0.0, std::sqrt(0.5));
  const StateSampler sampler(sv);
  EXPECT_EQ(sampler.sample_from_uniform(1.0), 3u);
  EXPECT_EQ(sampler.sample_from_uniform(std::nextafter(1.0, 0.0)), 3u);
  EXPECT_EQ(sampler.sample_from_uniform(0.0), 1u);
  Rng rng(73);
  for (int s = 0; s < 2000; ++s) {
    const std::uint64_t x = sampler.sample(rng);
    EXPECT_TRUE(x == 1u || x == 3u) << x;
  }
}

TEST(SamplerRegression, ShotCountValidation) {
  const StateVector sv = StateVector::plus_state(4);
  const StateSampler sampler(sv);
  Rng rng(79);
  EXPECT_THROW(sampler.sample(-1, rng), std::invalid_argument);
  EXPECT_THROW(sampler.sample_counts(-5, rng), std::invalid_argument);
  EXPECT_TRUE(sampler.sample(0, rng).empty());
  EXPECT_TRUE(sampler.sample_counts(0, rng).empty());
  const auto f = [](std::uint64_t x) { return static_cast<double>(x); };
  EXPECT_THROW(estimate_expectation_sampled(sv, f, -2, rng),
               std::invalid_argument);
  const SampledExpectation zero = estimate_expectation_sampled(sv, f, 0, rng);
  EXPECT_EQ(zero.shots, 0);
  EXPECT_EQ(zero.mean, 0.0);
  EXPECT_EQ(zero.std_error, 0.0);
}

}  // namespace
}  // namespace qokit
