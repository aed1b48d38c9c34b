// Half-space evolution (DESIGN.md "Half-space evolution"): a session on a
// flip-symmetric problem evolves 2^(n-1) amplitudes, and every output
// must equal the full-space oracle's exactly: expectations, overlaps
// (also per Hamming-weight sector), seeded samples, kept and simulated
// states, at every SIMD level, Exec policy, precision and backend. The
// oracle is a pipeline=off session (the unfused full-space loop, bitwise
// equal to the fused path) or, on one simulator, initial_state() evolved
// next to start_state(). Inputs the half space cannot take fall back to
// the full space and name why.
#include <gtest/gtest.h>

#include <string>

#include "api/qokit.hpp"
#include "serve/session_cache.hpp"
#include "support/simd_levels.hpp"

namespace qokit {
namespace {

using api::EvalRequest;
using api::EvalResult;
using api::ProblemSession;

std::vector<QaoaParams> schedules(int count, int p, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<QaoaParams> out(static_cast<std::size_t>(count));
  for (QaoaParams& q : out)
    for (int l = 0; l < p; ++l) {
      q.gammas.push_back(rng.uniform(-0.6, 0.6));
      q.betas.push_back(rng.uniform(-0.9, 0.9));
    }
  return out;
}

/// The full-space oracle for a spelling: the same spec, unfused.
SimulatorSpec oracle_spec(const std::string& spelling) {
  SimulatorSpec spec = SimulatorSpec::parse(spelling);
  spec.pipeline = pipeline::PipelineMode::Off;
  return spec;
}

/// Same amplitudes, same precision, same storage shape.
bool same_state(const StateVector& a, const StateVector& b) {
  if (a.num_qubits() != b.num_qubits() || a.size() != b.size() ||
      a.precision() != b.precision() || a.is_half() != b.is_half())
    return false;
  return a.max_abs_diff(b) == 0.0;
}

struct Problem {
  const char* name;
  TermList terms;
};

/// Sessions that assert the half space pin pipeline=on: the half plan is
/// a fused plan, and QOKIT_PIPELINE=off would otherwise turn it off.
SimulatorSpec pinned(const char* spelling = "auto") {
  SimulatorSpec spec = SimulatorSpec::parse(spelling);
  spec.pipeline = pipeline::PipelineMode::On;
  return spec;
}

FurConfig pinned_config(
    pipeline::PipelineMode mode = pipeline::PipelineMode::On) {
  FurConfig cfg;
  cfg.pipeline.mode = mode;
  return cfg;
}

/// A simulator that never takes the half space: the unfused oracle.
FurConfig oracle_config() {
  return pinned_config(pipeline::PipelineMode::Off);
}

/// Pass records a session's plans hold (session_footprint_bytes charges
/// them).
std::uint64_t plan_bytes(const ProblemSession& session) {
  const auto& fur = dynamic_cast<const FurQaoaSimulator&>(session.simulator());
  return (fur.layer_plan().passes().size() +
          fur.half_plan().passes().size()) *
         sizeof(pipeline::LayerPass);
}

std::vector<Problem> symmetric_problems() {
  return {{"labs14", labs_terms(14)},
          {"maxcut16", maxcut_terms(Graph::random_regular(16, 3, 5))},
          {"sk13", sk_terms(13, 7)}};
}

/// Every session output, the spelling's session against its oracle.
void expect_same_outputs(const TermList& terms, const std::string& spelling,
                         const std::string& what) {
  const ProblemSession half(terms, SimulatorSpec::parse(spelling));
  const ProblemSession full(terms, oracle_spec(spelling));
  ASSERT_FALSE(full.simulator().half_space()) << what;
  const int n = terms.num_qubits();
  const std::vector<QaoaParams> qs = schedules(3, 4, 11);
  EvalRequest request;
  request.overlap = true;
  request.shots = 64;
  const std::vector<EvalResult> a = half.evaluate_batch(qs, request);
  const std::vector<EvalResult> b = full.evaluate_batch(qs, request);
  for (std::size_t i = 0; i < qs.size(); ++i) {
    EXPECT_EQ(a[i].expectation.value(), b[i].expectation.value()) << what;
    EXPECT_EQ(a[i].overlap.value(), b[i].overlap.value()) << what;
    EXPECT_EQ(*a[i].samples, *b[i].samples) << what;
  }
  for (const int k : {n / 3, n - n / 3}) {
    EvalRequest sector;
    sector.expectation = false;
    sector.overlap = true;
    sector.overlap_weight = k;
    EXPECT_EQ(half.evaluate(qs[0], sector).overlap.value(),
              full.evaluate(qs[0], sector).overlap.value())
        << what << " sector " << k;
  }
  BatchOptions keep;
  keep.keep_states = true;
  const BatchResult ka = half.batch().evaluate(qs, keep);
  const BatchResult kb = full.batch().evaluate(qs, keep);
  for (std::size_t i = 0; i < qs.size(); ++i) {
    EXPECT_FALSE(ka.states[i].is_half()) << what;
    EXPECT_TRUE(same_state(ka.states[i], kb.states[i])) << what;
  }
  EXPECT_TRUE(same_state(half.simulate(qs[1]), full.simulate(qs[1])))
      << what;
}

TEST(FlipSymmetry, DetectsEvenOrderPolynomials) {
  EXPECT_TRUE(is_flip_symmetric(labs_terms(8)));
  EXPECT_TRUE(is_flip_symmetric(maxcut_terms(Graph::random_regular(8, 3, 1))));
  EXPECT_TRUE(is_flip_symmetric(sk_terms(8, 2)));
  // Portfolio and SAT have linear terms: not flip-symmetric.
  EXPECT_FALSE(is_flip_symmetric(portfolio_terms(random_portfolio(6, 2, 0.5,
                                                                  3))));
  EXPECT_FALSE(is_flip_symmetric(sat_terms(random_ksat(8, 3, 20, 4))));
}

TEST(HalfSpace, SymmetricSessionsEvolveOnTheHalfSpace) {
  for (const Problem& p : symmetric_problems()) {
    const ProblemSession session(p.terms, pinned());
    EXPECT_TRUE(session.simulator().half_space()) << p.name;
    EXPECT_EQ(session.simulator().half_space_reason(), "") << p.name;
    const StateVector start = session.simulator().start_state();
    EXPECT_TRUE(start.is_half()) << p.name;
    EXPECT_EQ(start.size(), dim_of(p.terms.num_qubits() - 1)) << p.name;
    // Public shapes stay 2^n.
    EXPECT_FALSE(session.simulator().initial_state().is_half()) << p.name;
    EXPECT_EQ(session.cost_diagonal().size(), dim_of(p.terms.num_qubits()));
    const auto& fur =
        dynamic_cast<const FurQaoaSimulator&>(session.simulator());
    EXPECT_EQ(fur.layer_plan().num_qubits(), p.terms.num_qubits());
    EXPECT_EQ(fur.half_plan().num_qubits(), p.terms.num_qubits() - 1);
    EXPECT_TRUE(fur.half_plan().passes().back().mirror);
  }
  // The unfused oracle has no fused plan, hence no half plan.
  const ProblemSession off(labs_terms(14), oracle_spec("auto"));
  EXPECT_FALSE(off.simulator().half_space());
  EXPECT_NE(off.simulator().half_space_reason().find("pipeline=off"),
            std::string_view::npos)
      << off.simulator().half_space_reason();
}

TEST(HalfSpace, EveryOutputEqualsTheFullSpaceOracle) {
  for (const Problem& p : symmetric_problems())
    expect_same_outputs(p.terms, "auto", p.name);
}

TEST(HalfSpace, EverySimdLevelExecPrecisionAndBackend) {
  const testing::SimdLevelGuard guard;
  const TermList terms = labs_terms(13);
  for (const SimdLevel level : testing::supported_simd_levels()) {
    force_simd_level(level);
    for (const char* spelling :
         {"auto", "serial", "u16", "u16:exec=serial", "auto:prec=f32",
          "serial:prec=f32", "u16:prec=f32", "auto:pipeline=off",
          "auto:pipeline=on"})
      expect_same_outputs(terms, spelling,
                          std::string(simd_level_name(level)) + " " +
                              spelling);
  }
}

TEST(HalfSpace, OuterModeBatchesShareHalfSlots) {
  const TermList terms = maxcut_terms(Graph::random_regular(14, 3, 9));
  const ProblemSession half(terms, pinned());
  const ProblemSession full(terms, oracle_spec("auto"));
  ASSERT_TRUE(half.simulator().half_space());
  const std::vector<QaoaParams> qs = schedules(9, 3, 21);
  for (const auto mode : {BatchParallelism::Outer, BatchParallelism::Inner}) {
    EvalRequest request;
    request.parallelism = mode;
    request.overlap = true;
    const std::vector<EvalResult> a = half.evaluate_batch(qs, request);
    const std::vector<EvalResult> b = full.evaluate_batch(qs, request);
    for (std::size_t i = 0; i < qs.size(); ++i) {
      EXPECT_EQ(a[i].expectation.value(), b[i].expectation.value()) << i;
      EXPECT_EQ(a[i].overlap.value(), b[i].overlap.value()) << i;
    }
  }
}

TEST(HalfSpace, AnyGeometryGivesTheSameBits) {
  const TermList terms = sk_terms(14, 3);
  const std::vector<QaoaParams> qs = schedules(2, 3, 5);
  for (const pipeline::Geometry g :
       {pipeline::Geometry{16, 6, 10}, pipeline::Geometry{12, 3, 8},
        pipeline::Geometry{4, 2, 2}, pipeline::Geometry{2, 1, 2},
        pipeline::Geometry{20, 2, 12}}) {
    FurConfig cfg = pinned_config();
    cfg.pipeline.geometry = g;
    const FurQaoaSimulator sim(terms, cfg);
    ASSERT_TRUE(sim.half_space()) << g.tile_log2;
    for (const QaoaParams& q : qs) {
      // The same simulator's full path, on its own geometry, is the
      // oracle.
      StateVector a = sim.start_state();
      StateVector b = sim.initial_state();
      EXPECT_EQ(sim.simulate_qaoa_expectation(a, q.gammas, q.betas),
                sim.simulate_qaoa_expectation(b, q.gammas, q.betas))
          << g.tile_log2 << "/" << g.group_qubits << "/" << g.chunk_log2;
      StateVector expanded;
      a.expand_into(expanded);
      EXPECT_TRUE(same_state(expanded, b)) << g.tile_log2;
    }
  }
}

TEST(HalfSpace, TheHalfPlanKeepsTheFullPlansTileCount) {
  // One qubit fewer per tile: the tile pass has the full plan's unit
  // count, hence its thread fan-out.
  const FurQaoaSimulator sim(labs_terms(18), pinned_config());
  ASSERT_TRUE(sim.half_space());
  const pipeline::LayerPass& full_tile = sim.layer_plan().passes().front();
  const pipeline::LayerPass& half_tile = sim.half_plan().passes().front();
  EXPECT_EQ(half_tile.width_log2, full_tile.width_log2 - 1);
  EXPECT_EQ(18 - full_tile.width_log2, 17 - half_tile.width_log2);
}

TEST(HalfSpace, OneTileStatesAddNoParallelRegion) {
  // n = 16 with a 2^16 tile: the full plan is one serial tile, so the
  // half plan's mirror pass is one unit too (for_units runs it inline).
  FurConfig cfg = pinned_config();
  cfg.pipeline.geometry = pipeline::Geometry{16, 6, 10};
  const FurQaoaSimulator sim(labs_terms(16), cfg);
  ASSERT_TRUE(sim.half_space());
  ASSERT_EQ(sim.layer_plan().passes().size(), 1u);
  EXPECT_EQ(sim.layer_plan().passes().front().width_log2, 16);
  const pipeline::LayerPass& mirror = sim.half_plan().passes().back();
  ASSERT_TRUE(mirror.mirror);
  EXPECT_EQ(mirror.width_log2, 14);  // one block and its mirror: 2^15
  // One tile more: the mirror pass keeps reduce-sized units.
  const FurQaoaSimulator wide(labs_terms(18), cfg);
  EXPECT_EQ(wide.half_plan().passes().back().width_log2, 10);
}

TEST(HalfSpace, TooSmallProblemsFallBackAndMatch) {
  for (const int n : {1, 2, 3, 4, pipeline::LayerPlan::kMinHalfQubits - 1}) {
    const TermList terms = labs_terms(n);
    const ProblemSession session(terms);
    EXPECT_FALSE(session.simulator().half_space()) << n;
    EXPECT_NE(session.simulator().half_space_reason().find("too small"),
              std::string_view::npos)
        << n << ": " << session.simulator().half_space_reason();
    expect_same_outputs(terms, "auto", "n=" + std::to_string(n));
  }
  // The smallest n the half plan takes still carries the fused
  // expectation and matches.
  const int smallest = pipeline::LayerPlan::kMinHalfQubits;
  const ProblemSession session(labs_terms(smallest), pinned());
  EXPECT_TRUE(session.simulator().half_space());
  const auto& fur = dynamic_cast<const FurQaoaSimulator&>(session.simulator());
  EXPECT_TRUE(pipeline::can_fuse_expectation(fur.half_plan(),
                                             dim_of(smallest - 1)));
  expect_same_outputs(labs_terms(smallest), "auto", "smallest");
}

TEST(HalfSpace, IneligibleInputsNameTheirFallback) {
  struct Case {
    TermList terms;
    std::string spelling;
    const char* reason;
  };
  const TermList labs = labs_terms(12);
  const std::vector<Case> cases = {
      {sat_terms(random_ksat(12, 3, 30, 2)), "auto", "odd-order"},
      {portfolio_terms(random_portfolio(12, 4, 0.5, 3)), "auto", "odd-order"},
      {labs, "auto:mixer=xyring", "xy mixer"},
      {labs, "auto:mixer=xycomplete", "xy mixer"},
      {labs, "fwht", "fwht"},
      {labs, "dist:2", "dist"},
      {labs, "gatesim", "gatesim"},
  };
  for (const Case& c : cases) {
    const ProblemSession session(c.terms, SimulatorSpec::parse(c.spelling));
    EXPECT_FALSE(session.simulator().half_space()) << c.spelling;
    EXPECT_FALSE(session.simulator().start_state().is_half()) << c.spelling;
    EXPECT_NE(session.simulator().half_space_reason().find(c.reason),
              std::string_view::npos)
        << c.spelling << ": " << session.simulator().half_space_reason();
    if (c.spelling != "gatesim")  // gatesim at n=12 is slow; one eval
      expect_same_outputs(c.terms, c.spelling, c.spelling);
  }
  // An adopted cost vector: its symmetry is not known.
  const FurQaoaSimulator adopted(CostDiagonal::precompute(labs), {});
  EXPECT_FALSE(adopted.half_space());
  EXPECT_NE(adopted.half_space_reason().find("adopted"),
            std::string_view::npos);
}

TEST(HalfSpace, CallerFullStatesRunTheFullPath) {
  // A caller's state need not be flip-symmetric: a basis state through a
  // half-space simulator must evolve exactly as through the oracle.
  const TermList terms = labs_terms(13);
  const FurQaoaSimulator sim(terms, pinned_config());
  const FurQaoaSimulator oracle(terms, oracle_config());
  ASSERT_TRUE(sim.half_space());
  const QaoaParams q = schedules(1, 3, 8)[0];
  const StateVector basis = StateVector::basis_state(13, 5);
  EXPECT_TRUE(same_state(sim.simulate_qaoa_from(basis, q.gammas, q.betas),
                         oracle.simulate_qaoa_from(basis, q.gammas,
                                                   q.betas)));
  StateVector a = basis;
  StateVector b = basis;
  EXPECT_EQ(sim.simulate_qaoa_expectation(a, q.gammas, q.betas),
            oracle.simulate_qaoa_expectation(b, q.gammas, q.betas));
  EXPECT_TRUE(same_state(a, b));
  // And a half state is refused by a simulator without the half space.
  StateVector h = sim.start_state();
  EXPECT_THROW(oracle.simulate_qaoa_from(h, q.gammas, q.betas),
               std::invalid_argument);
}

TEST(HalfSpace, EmptySchedulesAndMultiAngleRunsAreUnchanged) {
  const TermList terms = maxcut_terms(Graph::random_regular(12, 3, 2));
  const FurQaoaSimulator sim(terms, pinned_config());
  const FurQaoaSimulator oracle(terms, oracle_config());
  ASSERT_TRUE(sim.half_space());
  StateVector a = sim.start_state();
  StateVector b = oracle.start_state();
  const std::vector<double> none;
  EXPECT_EQ(sim.simulate_qaoa_expectation(a, none, none),
            oracle.simulate_qaoa_expectation(b, none, none));
  EXPECT_EQ(sim.get_expectation(a), oracle.get_expectation(b));
  EXPECT_EQ(sim.get_overlap(a), oracle.get_overlap(b));
  std::vector<double> gammas{0.2, -0.3};
  std::vector<double> betas(2 * 12);
  for (std::size_t j = 0; j < betas.size(); ++j)
    betas[j] = 0.05 * static_cast<double>(j) - 0.4;
  EXPECT_TRUE(same_state(simulate_ma_qaoa(sim, gammas, betas),
                         simulate_ma_qaoa(oracle, gammas, betas)));
}

TEST(HalfSpace, HalfStorageExpandsToTheFullState) {
  for (const Precision prec : {Precision::F64, Precision::F32}) {
    const StateVector half = StateVector::plus_state_half(9, prec);
    EXPECT_TRUE(half.is_half());
    EXPECT_EQ(half.size(), dim_of(8));
    StateVector full;
    half.expand_into(full);
    EXPECT_TRUE(same_state(full, StateVector::plus_state(9, prec)));
    const StateVector other =
        half.to_precision(prec == Precision::F64 ? Precision::F32
                                                 : Precision::F64);
    EXPECT_TRUE(other.is_half());
    EXPECT_EQ(other.size(), half.size());
    EXPECT_THROW(full.expand_into(full), std::logic_error);
  }
}

TEST(HalfSpace, SteadyStateAllocatesNoStatevectors) {
  const TermList terms = labs_terms(13);
  const ProblemSession session(terms, pinned());
  ASSERT_TRUE(session.simulator().half_space());
  const QaoaParams q = schedules(1, 3, 4)[0];
  EvalRequest plain;
  EvalRequest scored;
  scored.overlap = true;
  scored.shots = 16;
  for (const EvalRequest* request : {&plain, &scored}) {
    (void)session.evaluate(q, *request);  // warm-up fills the scratch
    const std::uint64_t baseline = aligned_allocation_count();
    for (int i = 0; i < 4; ++i) (void)session.evaluate(q, *request);
    EXPECT_EQ(aligned_allocation_count(), baseline)
        << (request == &plain ? "expectation only" : "overlap+samples");
  }
}

TEST(HalfSpace, SessionFootprintChargesHalfSizeSlots) {
  const int n = 14;
  const TermList terms = labs_terms(n);
  for (const char* spelling :
       {"auto:pipeline=on", "auto:prec=f32:pipeline=on", "u16:pipeline=on"}) {
    const ProblemSession half(terms, SimulatorSpec::parse(spelling));
    const ProblemSession full(terms, oracle_spec(spelling));
    ASSERT_TRUE(half.simulator().half_space()) << spelling;
    const std::uint64_t amp = amplitude_bytes(half.simulator().precision());
    // Two slots at 2^(n-1) amplitudes plus one 2^n expansion scratch,
    // against two 2^n slots; the plans differ by their pass records.
    EXPECT_EQ(serve::session_footprint_bytes(half) - plan_bytes(half),
              serve::session_footprint_bytes(full) - plan_bytes(full) -
                  2 * dim_of(n) * amp + 2 * dim_of(n - 1) * amp +
                  dim_of(n) * amp)
        << spelling;
  }
}

}  // namespace
}  // namespace qokit
