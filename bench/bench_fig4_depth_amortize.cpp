// Fig. 4 reproduction: total simulation time (precompute included) vs the
// number of QAOA layers p, LABS problem.
//
// Series mapping (paper -> ours):
//   QOKit + GPU precompute -> FurParallelPrecompute (OpenMP blocked transform)
//   QOKit + CPU precompute -> FurSerialPrecompute   (single-thread)
//   cuStateVec (gates)     -> Gates                 (no precompute at all)
//
// Expected shape: the gate series grows ~linearly in p with a large slope
// (|T|-dependent per-layer cost); the precompute series pay a one-off cost
// then a small slope, so the parallel-precompute line wins from p = 1 and
// the serial-precompute line crosses the gates line at small p -- the
// amortization argument of the paper.
#include <benchmark/benchmark.h>

#include "api/qokit.hpp"

namespace {

using namespace qokit;

constexpr int kN = 16;

std::pair<std::vector<double>, std::vector<double>> ramp(int p) {
  const QaoaParams params = linear_ramp(p, 0.9);
  return {params.gammas, params.betas};
}

void BM_Fig4_FurParallelPrecompute(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  const auto [g, b] = ramp(p);
  for (auto _ : state) {
    const FurQaoaSimulator sim(labs_terms(kN), {});  // parallel precompute
    const StateVector r = sim.simulate_qaoa(g, b);
    benchmark::DoNotOptimize(sim.get_expectation(r));
  }
}
BENCHMARK(BM_Fig4_FurParallelPrecompute)
    ->RangeMultiplier(4)
    ->Range(1, 1024)
    ->Unit(benchmark::kMillisecond);

void BM_Fig4_FurSerialPrecompute(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  const auto [g, b] = ramp(p);
  for (auto _ : state) {
    const FurQaoaSimulator sim(labs_terms(kN), {.exec = Exec::Serial});
    const StateVector r = sim.simulate_qaoa(g, b);
    benchmark::DoNotOptimize(sim.get_expectation(r));
  }
}
BENCHMARK(BM_Fig4_FurSerialPrecompute)
    ->RangeMultiplier(4)
    ->Range(1, 1024)
    ->Unit(benchmark::kMillisecond);

void BM_Fig4_Gates(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  const auto [g, b] = ramp(p);
  for (auto _ : state) {
    const GateQaoaSimulator sim(labs_terms(kN), {});
    const StateVector r = sim.simulate_qaoa(g, b);
    benchmark::DoNotOptimize(sim.get_expectation(r));
  }
}
BENCHMARK(BM_Fig4_Gates)
    ->RangeMultiplier(4)
    ->Range(1, 64)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
