// Fig. 5 reproduction: weak scaling of one LABS QAOA layer over K ranks
// with n = n0 + log2(K) (constant per-rank state size).
//
// The paper's GPUs are replaced by virtual ranks (threads) exchanging
// through the XOR-scheduled pairwise alltoall; see DESIGN.md. Expected
// shape: time grows with K (communication-dominated), steeply once K
// exceeds the core count.
#include <benchmark/benchmark.h>

#include "api/qokit.hpp"

namespace {

using namespace qokit;

constexpr int kBaseN = 16;  // per-rank slice: 2^16 amplitudes

int log2_of(int k) {
  int l = 0;
  while ((1 << l) < k) ++l;
  return l;
}

void BM_Fig5(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  const int n = kBaseN + log2_of(ranks);
  const DistributedFurSimulator sim(labs_terms(n), {.ranks = ranks});
  const std::vector<double> g{0.31}, b{0.57};
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.simulate_and_expectation(g, b));
  }
  state.counters["n"] = n;
}
BENCHMARK(BM_Fig5)
    ->RangeMultiplier(2)
    ->Range(1, 16)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
