#include "statevector/state.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/bitops.hpp"

namespace qokit {
namespace {

TEST(StateVector, PlusStateIsUniform) {
  const StateVector sv = StateVector::plus_state(5);
  const double expect = 1.0 / std::sqrt(32.0);
  for (std::uint64_t x = 0; x < 32; ++x) {
    EXPECT_NEAR(sv[x].real(), expect, 1e-15);
    EXPECT_NEAR(sv[x].imag(), 0.0, 1e-15);
  }
  EXPECT_NEAR(sv.norm_squared(), 1.0, 1e-12);
}

TEST(StateVector, BasisStateIsOneHot) {
  const StateVector sv = StateVector::basis_state(4, 9);
  for (std::uint64_t x = 0; x < 16; ++x)
    EXPECT_DOUBLE_EQ(std::norm(sv[x]), x == 9 ? 1.0 : 0.0);
}

TEST(StateVector, BasisStateRejectsOutOfRange) {
  EXPECT_THROW(StateVector::basis_state(3, 8), std::out_of_range);
}

class DickeStateTest : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(DickeStateTest, UniformOverWeightSector) {
  const auto [n, k] = GetParam();
  const StateVector sv = StateVector::dicke_state(n, k);
  std::uint64_t count = 0;
  for (std::uint64_t x = 0; x < dim_of(n); ++x)
    if (popcount(x) == k) ++count;
  const double amp = 1.0 / std::sqrt(static_cast<double>(count));
  for (std::uint64_t x = 0; x < dim_of(n); ++x) {
    if (popcount(x) == k)
      EXPECT_NEAR(std::abs(sv[x]), amp, 1e-15);
    else
      EXPECT_DOUBLE_EQ(std::abs(sv[x]), 0.0);
  }
  EXPECT_NEAR(sv.norm_squared(), 1.0, 1e-12);
  EXPECT_NEAR(sv.weight_sector_mass(k), 1.0, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Sectors, DickeStateTest,
                         ::testing::Values(std::pair{4, 2}, std::pair{6, 3},
                                           std::pair{6, 0}, std::pair{6, 6},
                                           std::pair{9, 4}, std::pair{10, 1}));

TEST(StateVector, DickeRejectsBadWeight) {
  EXPECT_THROW(StateVector::dicke_state(4, 5), std::invalid_argument);
  EXPECT_THROW(StateVector::dicke_state(4, -1), std::invalid_argument);
}

TEST(StateVector, NormalizeScalesToUnit) {
  StateVector sv(3);
  for (std::uint64_t x = 0; x < 8; ++x) sv[x] = cdouble(1.0, 1.0);
  sv.normalize();
  EXPECT_NEAR(sv.norm_squared(), 1.0, 1e-12);
}

TEST(StateVector, NormalizeThrowsOnZero) {
  StateVector sv(3);
  EXPECT_THROW(sv.normalize(), std::runtime_error);
}

TEST(StateVector, InnerProductOrthonormalBasis) {
  const StateVector a = StateVector::basis_state(3, 1);
  const StateVector b = StateVector::basis_state(3, 2);
  EXPECT_NEAR(std::abs(a.inner(b)), 0.0, 1e-15);
  EXPECT_NEAR(a.inner(a).real(), 1.0, 1e-15);
}

TEST(StateVector, InnerConjugatesLeft) {
  StateVector a(1), b(1);
  a[0] = cdouble(0.0, 1.0);  // i|0>
  b[0] = cdouble(1.0, 0.0);
  // <a|b> = conj(i) * 1 = -i.
  EXPECT_NEAR(a.inner(b).imag(), -1.0, 1e-15);
}

TEST(StateVector, ProbabilitiesSumToNorm) {
  const StateVector sv = StateVector::plus_state(6);
  const auto p = sv.probabilities();
  double total = 0.0;
  for (double v : p) total += v;
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_EQ(p.size(), 64u);
}

TEST(StateVector, WeightSectorMassesPartitionUnity) {
  const StateVector sv = StateVector::plus_state(5);
  double total = 0.0;
  for (int k = 0; k <= 5; ++k) total += sv.weight_sector_mass(k);
  EXPECT_NEAR(total, 1.0, 1e-12);
  // |+>^5 puts C(5,k)/32 in sector k.
  EXPECT_NEAR(sv.weight_sector_mass(2), 10.0 / 32.0, 1e-12);
}

TEST(StateVector, MaxAbsDiff) {
  StateVector a = StateVector::plus_state(3);
  StateVector b = StateVector::plus_state(3);
  EXPECT_DOUBLE_EQ(a.max_abs_diff(b), 0.0);
  b[5] += cdouble(0.25, 0.0);
  EXPECT_NEAR(a.max_abs_diff(b), 0.25, 1e-15);
}

TEST(StateVector, ParallelNormMatchesSerial) {
  StateVector sv = StateVector::plus_state(14);
  sv[12345] = cdouble(0.7, -0.3);
  EXPECT_NEAR(sv.norm_squared(Exec::Serial), sv.norm_squared(Exec::Parallel),
              1e-12);
}

TEST(StateVector, ExecDefaultsAreUniform) {
  // norm_squared and probabilities_in_place both default to
  // Exec::Parallel, like every other Exec-taking entry point (historical
  // inconsistency: norm_squared once defaulted Serial). The simd layer
  // guarantees Serial == Parallel bitwise, so the default is observable
  // only through this pin: calling with no argument must equal both
  // explicit policies bit for bit.
  StateVector sv = StateVector::plus_state(14);
  sv[999] = cdouble(0.6, -0.8);
  const double d = sv.norm_squared();
  EXPECT_EQ(d, sv.norm_squared(Exec::Parallel));
  EXPECT_EQ(d, sv.norm_squared(Exec::Serial));

  StateVector by_default = sv;
  StateVector serial = sv;
  StateVector parallel = sv;
  by_default.probabilities_in_place();
  serial.probabilities_in_place(Exec::Serial);
  parallel.probabilities_in_place(Exec::Parallel);
  EXPECT_EQ(by_default.max_abs_diff(serial), 0.0);
  EXPECT_EQ(by_default.max_abs_diff(parallel), 0.0);
}

TEST(StateVector, RejectsNegativeQubitCount) {
  EXPECT_THROW(StateVector(-1), std::invalid_argument);
}

TEST(StateVector, ConstructorStillZeroFills) {
  // aligned_vector(n) no longer zero-fills; StateVector(int) asks for
  // zeros explicitly, as documented.
  for (const Precision prec : {Precision::F64, Precision::F32}) {
    const StateVector sv(6, prec);
    for (std::uint64_t x = 0; x < sv.size(); ++x)
      EXPECT_EQ(sv.at(x), cdouble(0.0, 0.0));
  }
}

TEST(AlignedAllocator, DebugBuildsPoisonDefaultInitializedElements) {
#ifdef NDEBUG
  GTEST_SKIP() << "release build: default-initialized elements are left "
                  "unwritten, there is no poison to observe";
#else
  // A read before the first write must surface as NaN, so the Debug and
  // sanitizer test runs catch it in any result it reaches.
  aligned_vector<double> d(64);
  for (const double v : d) EXPECT_TRUE(std::isnan(v));
  aligned_vector<cdouble> c;
  c.resize(32);
  for (const cdouble& v : c)
    EXPECT_TRUE(std::isnan(v.real()) && std::isnan(v.imag()));
  aligned_vector<cfloat> f(16);
  for (const cfloat& v : f)
    EXPECT_TRUE(std::isnan(v.real()) && std::isnan(v.imag()));
  // Explicit values are written as given.
  d.assign(64, 0.0);
  for (const double v : d) EXPECT_EQ(v, 0.0);
  c.resize(40, cdouble(1.0, 2.0));
  EXPECT_TRUE(std::isnan(c[0].real()));
  EXPECT_EQ(c[39], cdouble(1.0, 2.0));
#endif
}

}  // namespace
}  // namespace qokit
