#include "diagonal/cost_diagonal.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/bitops.hpp"
#include "diagonal/ops.hpp"
#include "problems/labs.hpp"
#include "problems/maxcut.hpp"
#include "problems/portfolio.hpp"
#include "problems/sat.hpp"
#include "problems/sk.hpp"
#include "support/reference.hpp"

namespace qokit {
namespace {

/// Every (problem, n, exec) combination must reproduce f(x). The n sweep
/// spans the transform's 2^12 block: whole-vector blocks (n <= 12) and
/// several blocks (n = 13, 16).
const int kSweepN[] = {1, 5, 11, 12, 13, 16};

struct PrecomputeCase {
  const char* name;
  TermList terms;
};

PrecomputeCase precompute_case(int idx, int n) {
  switch (idx) {
    case 0:
      return {"maxcut", maxcut_terms(Graph::erdos_renyi(n, 0.5, 1))};
    case 1:
      return {"labs", labs_terms(n)};
    case 2:
      return {"sat", sat_terms(random_ksat(n, std::min(n, 3), 2 * n, 2))};
    case 3:
      return {"portfolio",
              portfolio_terms(random_portfolio(n, n / 2, 0.5, 3))};
    default:
      return {"random", testing::random_terms(n, 60, 4)};
  }
}

class PrecomputeTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(PrecomputeTest, MatchesBruteForceEvaluation) {
  const auto [case_idx, n_idx, exec_idx] = GetParam();
  const auto [name, terms] = precompute_case(case_idx, kSweepN[n_idx]);
  const auto exec = exec_idx == 0 ? Exec::Serial : Exec::Parallel;
  const CostDiagonal d = CostDiagonal::precompute(terms, exec);
  ASSERT_EQ(d.size(), dim_of(terms.num_qubits()));
  // Integer and dyadic weights sum exactly in any order; the rest differ
  // from the per-element sum by rounding only.
  const double tol = 1e-13 * (terms.weight_l1() + std::abs(terms.offset()));
  for (std::uint64_t x = 0; x < d.size(); ++x)
    ASSERT_NEAR(d[x], terms.evaluate(x), tol) << name << " x=" << x;
}

INSTANTIATE_TEST_SUITE_P(AllCombos, PrecomputeTest,
                         ::testing::Combine(::testing::Range(0, 5),
                                            ::testing::Range(0, 6),
                                            ::testing::Range(0, 2)));

TEST(CostDiagonal, SerialEqualsParallelBitwise) {
  for (int n : kSweepN)
    for (int idx = 0; idx < 5; ++idx) {
      const TermList terms = precompute_case(idx, n).terms;
      EXPECT_EQ(CostDiagonal::precompute(terms, Exec::Serial).values(),
                CostDiagonal::precompute(terms, Exec::Parallel).values())
          << "case " << idx << " n=" << n;
    }
}

TEST(CostDiagonal, LabsEqualsEnergyExactly) {
  for (int n = 1; n <= 16; ++n) {
    const CostDiagonal d = CostDiagonal::precompute(labs_terms(n));
    for (std::uint64_t x = 0; x < d.size(); ++x)
      ASSERT_EQ(d[x], labs_energy(x, n)) << "n=" << n << " x=" << x;
  }
}

TEST(CostDiagonal, FlipSymmetricTermsGiveAMirrorSymmetricDiagonal) {
  // The half space reads only the lower half of the diagonal and takes
  // c(~x) == c(x): the blocked transform must honour that exactly.
  for (int n : {2, 12, 13, 16}) {
    for (const TermList& terms : {sk_terms(n, 11), labs_terms(n)}) {
      const CostDiagonal d = CostDiagonal::precompute(terms);
      const std::uint64_t mask = d.size() - 1;
      for (std::uint64_t x = 0; x < d.size() / 2; ++x)
        ASSERT_EQ(d[x], d[~x & mask]) << "n=" << n << " x=" << x;
    }
  }
}

TEST(CostDiagonal, FillAnySliceMatchesWholeVectorBitwise) {
  // Slices that start or end mid-block compute the block aside and copy.
  const TermList terms = testing::random_terms(14, 80, 5);
  const CostDiagonal full = CostDiagonal::precompute(terms);
  const std::uint64_t cuts[][2] = {{0, 1}, {3, 4099}, {4096, 8192},
                                   {5000, 16384}, {16383, 16384}};
  for (const auto& [begin, end] : cuts) {
    std::vector<double> out(end - begin);
    fill_cost_diagonal(terms, begin, end, out.data(), Exec::Parallel);
    for (std::uint64_t x = begin; x < end; ++x)
      ASSERT_EQ(out[x - begin], full[x]) << "[" << begin << "," << end << ")";
  }
}

TEST(CostDiagonal, RejectsNonFiniteWeightNamingTheTerm) {
  for (const double bad : {std::nan(""), -HUGE_VAL}) {
    const TermList terms(4, {{1.0, 0b11}, {bad, 0b1}});
    try {
      CostDiagonal::precompute(terms);
      FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("term 1"), std::string::npos)
          << e.what();
    }
  }
}

TEST(CostDiagonal, FromFunctionMatchesCallable) {
  const auto f = [](std::uint64_t x) { return static_cast<double>(x % 7); };
  const CostDiagonal d = CostDiagonal::from_function(8, f);
  for (std::uint64_t x = 0; x < 256; ++x) EXPECT_DOUBLE_EQ(d[x], f(x));
}

TEST(CostDiagonal, FromValuesValidatesSize) {
  aligned_vector<double> v(7, 0.0);
  EXPECT_THROW(CostDiagonal::from_values(3, std::move(v)),
               std::invalid_argument);
}

TEST(CostDiagonal, MinMaxGroundCount) {
  aligned_vector<double> v{3.0, -1.0, 4.0, -1.0};
  const CostDiagonal d = CostDiagonal::from_values(2, std::move(v));
  EXPECT_DOUBLE_EQ(d.min_value(), -1.0);
  EXPECT_DOUBLE_EQ(d.max_value(), 4.0);
  EXPECT_EQ(d.ground_state_count(), 2u);
}

TEST(CostDiagonal, LabsMinimumEqualsKnownOptimum) {
  for (int n : {6, 8, 10, 12}) {
    const CostDiagonal d = CostDiagonal::precompute(labs_terms(n));
    EXPECT_NEAR(d.min_value(), labs_known_optimum(n), 1e-9) << "n=" << n;
  }
}

TEST(CostDiagonal, MemoryBytesIsEightPerEntry) {
  const CostDiagonal d = CostDiagonal::precompute(labs_terms(8));
  EXPECT_EQ(d.memory_bytes(), 256u * 8u);
}

TEST(DiagonalOps, ApplyPhaseMatchesReference) {
  const TermList terms = maxcut_terms(Graph::random_regular(8, 3, 4));
  const CostDiagonal d = CostDiagonal::precompute(terms);
  StateVector sv = StateVector::plus_state(8);
  apply_phase(sv, d, 0.37);
  const auto ref = testing::ref_apply_phase(
      testing::to_vec(StateVector::plus_state(8)), terms, 0.37);
  EXPECT_LT(testing::max_diff(testing::to_vec(sv), ref), 1e-12);
}

TEST(DiagonalOps, ApplyPhasePreservesNorm) {
  const CostDiagonal d = CostDiagonal::precompute(labs_terms(10));
  StateVector sv = StateVector::plus_state(10);
  apply_phase(sv, d, 1.234);
  EXPECT_NEAR(sv.norm_squared(), 1.0, 1e-12);
}

TEST(DiagonalOps, PhaseZeroIsIdentity) {
  const CostDiagonal d = CostDiagonal::precompute(labs_terms(8));
  StateVector sv = StateVector::plus_state(8);
  const StateVector before = StateVector::plus_state(8);
  apply_phase(sv, d, 0.0);
  EXPECT_LT(sv.max_abs_diff(before), 1e-15);
}

TEST(DiagonalOps, ExpectationOnPlusStateIsSpectralMean) {
  // <+|C|+> = average of the diagonal = the offset of the polynomial.
  const TermList terms = labs_terms(8);
  const CostDiagonal d = CostDiagonal::precompute(terms);
  const StateVector sv = StateVector::plus_state(8);
  EXPECT_NEAR(expectation(sv, d), terms.offset(), 1e-9);
}

TEST(DiagonalOps, ExpectationOnBasisStateIsCostValue) {
  const TermList terms = labs_terms(7);
  const CostDiagonal d = CostDiagonal::precompute(terms);
  const StateVector sv = StateVector::basis_state(7, 42);
  EXPECT_NEAR(expectation(sv, d), labs_energy(42, 7), 1e-9);
}

TEST(DiagonalOps, ExpectationTermsAgreesWithDiagonal) {
  const TermList terms = maxcut_terms(Graph::random_regular(10, 3, 9));
  const CostDiagonal d = CostDiagonal::precompute(terms);
  StateVector sv = StateVector::plus_state(10);
  apply_phase(sv, d, 0.2);  // some non-trivial state
  EXPECT_NEAR(expectation_terms(sv, terms), expectation(sv, d), 1e-9);
}

TEST(DiagonalOps, SerialAndParallelExpectationAgree) {
  const CostDiagonal d = CostDiagonal::precompute(labs_terms(12));
  StateVector sv = StateVector::plus_state(12);
  apply_phase(sv, d, 0.11);
  EXPECT_NEAR(expectation(sv, d, Exec::Serial),
              expectation(sv, d, Exec::Parallel), 1e-10);
}

TEST(DiagonalOps, OverlapGroundOnBasisState) {
  const CostDiagonal d = CostDiagonal::precompute(labs_terms(8));
  // Find one ground state and check overlap is 1 there, 0 elsewhere.
  std::uint64_t gs = 0;
  for (std::uint64_t x = 0; x < d.size(); ++x)
    if (d[x] <= d.min_value() + 1e-9) {
      gs = x;
      break;
    }
  EXPECT_NEAR(overlap_ground(StateVector::basis_state(8, gs), d), 1.0, 1e-12);
  // A state one energy level up contributes nothing.
  std::uint64_t excited = 0;
  for (std::uint64_t x = 0; x < d.size(); ++x)
    if (d[x] > d.min_value() + 1e-9) {
      excited = x;
      break;
    }
  EXPECT_NEAR(overlap_ground(StateVector::basis_state(8, excited), d), 0.0,
              1e-12);
}

TEST(DiagonalOps, OverlapOnPlusStateIsDegeneracyOverDim) {
  const CostDiagonal d = CostDiagonal::precompute(labs_terms(9));
  const double overlap = overlap_ground(StateVector::plus_state(9), d);
  EXPECT_NEAR(overlap,
              static_cast<double>(d.ground_state_count()) / d.size(), 1e-12);
}

TEST(DiagonalOps, DimensionMismatchThrows) {
  const CostDiagonal d = CostDiagonal::precompute(labs_terms(6));
  StateVector sv = StateVector::plus_state(7);
  EXPECT_THROW(apply_phase(sv, d, 0.1), std::invalid_argument);
  EXPECT_THROW(expectation(sv, d), std::invalid_argument);
}

}  // namespace
}  // namespace qokit
