// SIMD kernel layer: every dispatch level this machine supports, per
// kernel, single-threaded, emitting BENCH_simd.json.
//
// Levels are scalar, avx2 and avx512, each where compiled in and supported
// by CPUID. Kernels are the phase multiply, rx and hadamard at qubit 0 and
// at the top qubit, the reductions, and the layer pipeline's tile pass
// (phase_rx, then qubits 1..15 of each 2^16-amplitude tile, as in the
// default 16/6/10 geometry) run two ways: one rx_pairs call per qubit, and
// butterfly_group three qubits per call. Each number is the median and the
// minimum over `reps` runs, the levels interleaved within each rep, in
// ns per amplitude; speedups are ratios of medians against scalar.
//
// Gate: each kernel's output at avx512 must equal its output at avx2 bit
// for bit, and the grouped tile pass must equal the per-qubit one at every
// level (DESIGN.md "SIMD kernel layer"). Otherwise the bench exits 2.
//
// Smoke mode (QOKIT_BENCH_SMOKE=1 or --smoke): n = 16 only, 1 rep — used
// by CI to keep the JSON generation path and the bitwise gate alive.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench_report.hpp"
#include "common/aligned.hpp"
#include "common/bitops.hpp"
#include "common/cpu_features.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "fur/su2.hpp"
#include "simd/kernels.hpp"

namespace {

using namespace qokit;

struct Result {
  std::string kernel;
  int n;
  SimdLevel level;
  double median_ns;  // per amplitude
  double min_ns;
  double speedup_vs_scalar;  // ratio of medians
};

constexpr double kC = 0.8;
constexpr double kS = 0.6;

/// The pipeline's tile pass over the whole array: per 2^16-amplitude tile,
/// the fused phase + qubit-0 butterfly, then qubits 1..log2(tile)-1 —
/// one rx_pairs call per qubit, or butterfly_group three at a time.
void tile_pass(cdouble* amp, const double* costs, std::uint64_t dim,
               bool grouped) {
  const simd::detail::Kernels& k = simd::detail::active_kernels();
  const std::uint64_t tile = std::min<std::uint64_t>(dim, 1u << 16);
  const int bits = std::countr_zero(tile);
  for (std::uint64_t base = 0; base < dim; base += tile) {
    k.phase_rx(amp + base, costs + base, tile, 0.37, kC, kS);
    if (!grouped) {
      for (int q = 1; q < bits; ++q)
        k.rx_pairs(amp, q, base >> 1, (base + tile) >> 1, kC, kS);
      continue;
    }
    for (int q = 1, m; q < bits; q += m) {
      m = std::min(3, bits - q);
      k.butterfly_group(amp, q, m, base >> m, (base + tile) >> m,
                        simd::detail::Butterfly::Rx, kC, kS);
    }
  }
}

bool same_bits(const std::vector<cdouble>& a, const std::vector<cdouble>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(cdouble)) == 0;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke =
      (argc > 1 && std::strcmp(argv[1], "--smoke") == 0) ||
      (std::getenv("QOKIT_BENCH_SMOKE") != nullptr);
  const int reps = smoke ? 1 : 7;
  const std::vector<int> ns =
      smoke ? std::vector<int>{16} : std::vector<int>{16, 18, 20, 22};
  std::vector<SimdLevel> levels;
  for (SimdLevel l : {SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512})
    if (simd_level_supported(l)) levels.push_back(l);
  const SimdLevel entry = active_simd_level();

  std::vector<Result> results;
  bool avx512_equals_avx2 = true;
  bool grouped_equals_per_qubit = true;
  for (int n : ns) {
    const std::uint64_t dim = dim_of(n);
    Rng rng(9000 + static_cast<std::uint64_t>(n));
    aligned_vector<cdouble> input(dim);
    for (cdouble& a : input)
      a = cdouble(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
    aligned_vector<double> costs(dim);
    for (double& c : costs) c = rng.uniform(-8.0, 8.0);
    aligned_vector<cdouble> work(dim);
    cdouble* amp = work.data();

    // Each case evolves `work` in place or returns a reduction value.
    struct Case {
      const char* name;
      std::function<double()> run;
    };
    const std::vector<Case> cases = {
        {"apply_phase_slice",
         [&] {
           simd::apply_phase_slice(amp, costs.data(), dim, 0.37,
                                   Exec::Serial);
           return 0.0;
         }},
        {"rx_q0",
         [&] {
           kern::rx(amp, dim, 0, kC, kS, Exec::Serial);
           return 0.0;
         }},
        {"rx_qtop",
         [&] {
           kern::rx(amp, dim, n - 1, kC, kS, Exec::Serial);
           return 0.0;
         }},
        {"hadamard_q0",
         [&] {
           kern::hadamard(amp, dim, 0, Exec::Serial);
           return 0.0;
         }},
        {"hadamard_qtop",
         [&] {
           kern::hadamard(amp, dim, n - 1, Exec::Serial);
           return 0.0;
         }},
        {"tile_pass_per_qubit",
         [&] {
           tile_pass(amp, costs.data(), dim, false);
           return 0.0;
         }},
        {"tile_pass_grouped",
         [&] {
           tile_pass(amp, costs.data(), dim, true);
           return 0.0;
         }},
        {"expectation_slice",
         [&] {
           return simd::expectation_slice(amp, costs.data(), dim,
                                          Exec::Serial);
         }},
        {"norm_squared",
         [&] { return simd::norm_squared(amp, dim, Exec::Serial); }},
    };

    std::vector<std::vector<cdouble>> tile_per_qubit(levels.size());
    for (const Case& c : cases) {
      std::vector<std::vector<double>> ns_per_amp(levels.size());
      std::vector<std::vector<cdouble>> outputs(levels.size());
      std::vector<double> values(levels.size());
      for (int r = 0; r < reps; ++r)
        for (std::size_t li = 0; li < levels.size(); ++li) {
          force_simd_level(levels[li]);
          std::copy(input.begin(), input.end(), work.begin());
          WallTimer t;
          values[li] = c.run();
          ns_per_amp[li].push_back(t.seconds() * 1e9 / double(dim));
          if (r == 0) outputs[li].assign(work.begin(), work.end());
        }
      const double scalar_ns = median(ns_per_amp[0]);
      for (std::size_t li = 0; li < levels.size(); ++li) {
        const double med = median(ns_per_amp[li]);
        results.push_back({c.name, n, levels[li], med,
                           *std::min_element(ns_per_amp[li].begin(),
                                             ns_per_amp[li].end()),
                           scalar_ns / med});
        if (levels[li] == SimdLevel::Avx512) {
          // Levels are ascending, so avx2 sits just below avx512.
          const bool same =
              same_bits(outputs[li], outputs[li - 1]) &&
              std::memcmp(&values[li], &values[li - 1], sizeof(double)) == 0;
          if (!same) {
            std::fprintf(stderr, "n=%d %s: avx512 differs from avx2\n", n,
                         c.name);
            avx512_equals_avx2 = false;
          }
        }
        if (std::strcmp(c.name, "tile_pass_per_qubit") == 0)
          tile_per_qubit[li] = outputs[li];
        if (std::strcmp(c.name, "tile_pass_grouped") == 0 &&
            !same_bits(outputs[li], tile_per_qubit[li])) {
          std::fprintf(stderr, "n=%d %s: grouped tile pass differs\n", n,
                       simd_level_name(levels[li]));
          grouped_equals_per_qubit = false;
        }
      }
      std::printf("n=%2d %-20s", n, c.name);
      for (std::size_t li = 0; li < levels.size(); ++li)
        std::printf("  %s %7.3f ns/amp", simd_level_name(levels[li]),
                    results[results.size() - levels.size() + li].median_ns);
      std::printf("\n");
      std::fflush(stdout);
    }
  }
  force_simd_level(entry);

  std::FILE* out = std::fopen("BENCH_simd.json", "w");
  if (!out) {
    std::perror("BENCH_simd.json");
    return 1;
  }
  std::fprintf(out, "{\n");
  bench::write_context(out, smoke);
  std::fprintf(out, "  \"reps\": %d,\n", reps);
  std::fprintf(out, "  \"avx512_equals_avx2\": %s,\n",
               avx512_equals_avx2 ? "true" : "false");
  std::fprintf(out, "  \"grouped_equals_per_qubit\": %s,\n",
               grouped_equals_per_qubit ? "true" : "false");
  std::fprintf(out, "  \"results\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    std::fprintf(out,
                 "    {\"kernel\": \"%s\", \"n\": %d, \"level\": \"%s\", "
                 "\"ns_per_amp_median\": %.4f, \"ns_per_amp_min\": %.4f, "
                 "\"speedup_vs_scalar\": %.3f}%s\n",
                 r.kernel.c_str(), r.n, simd_level_name(r.level),
                 r.median_ns, r.min_ns, r.speedup_vs_scalar,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  return avx512_equals_avx2 && grouped_equals_per_qubit ? 0 : 2;
}
