// Ablation (paper Sec. VI related work): Z2 spin-flip symmetry reduction
// on top of the precomputed diagonal, emitting BENCH_symmetry.json.
//
// For flip-symmetric objectives (LABS, MaxCut) a session's simulator
// evolves its start_state() -- the 2^(n-1) lower amplitudes (DESIGN.md
// "Half-space evolution") -- while the same simulator evolves a full
// initial_state() over all 2^n: the same bits by contract. The paper
// notes symmetry exploitation "can be combined with our techniques to
// further improve performance"; this bench measures the combination: one
// p = 6 fused evolve-and-score (simulate_qaoa_expectation) from each
// start, reps interleaved with the order alternating. Each rep also
// compares the expectations and the expanded half state against the
// full state bit for bit; a difference exits 2.
//
// Smoke mode (QOKIT_BENCH_SMOKE=1 or --smoke): n = 14 only -- used by CI
// (and `ctest -C bench -L bench-smoke`) to keep the JSON path and the
// identity check alive. Never read speedups off smoke runs.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "api/session.hpp"
#include "bench_report.hpp"
#include "common/timer.hpp"
#include "optimize/params.hpp"
#include "problems/graph.hpp"
#include "problems/labs.hpp"
#include "problems/maxcut.hpp"

namespace {

using namespace qokit;

struct Result {
  const char* problem;
  int n;
  bool half_space;
  std::uint64_t start_bytes_half;
  std::uint64_t start_bytes_full;
  bench::Summary half;
  bench::Summary full;
};

}  // namespace

int main(int argc, char** argv) {
  const bool smoke =
      (argc > 1 && std::strcmp(argv[1], "--smoke") == 0) ||
      (std::getenv("QOKIT_BENCH_SMOKE") != nullptr);
  const int reps = 7;
  const int lo = smoke ? 14 : 16;
  const int hi = smoke ? 14 : 24;
  const QaoaParams q = linear_ramp(6, 0.5);

  std::vector<Result> results;
  bool identical = true;
  for (const char* problem : {"labs", "maxcut"}) {
    for (int n = lo; n <= hi; n += 2) {
      const TermList terms =
          std::strcmp(problem, "labs") == 0
              ? labs_terms(n)
              : maxcut_terms(Graph::random_regular(n, 3, 42));
      const api::ProblemSession session(terms);
      const QaoaFastSimulatorBase& sim = session.simulator();
      const StateVector half_start = sim.start_state();
      const StateVector full_start = sim.initial_state();
      StateVector half = half_start;
      StateVector full = full_start;
      StateVector expanded;
      std::vector<double> half_ms;
      std::vector<double> full_ms;
      for (int r = 0; r < reps; ++r) {
        double e[2] = {0.0, 0.0};
        // Alternate which side runs first, so drift hits both equally.
        for (int side = 0; side < 2; ++side) {
          const bool half_side = (side + r) % 2 == 0;
          StateVector& state = half_side ? half : full;
          state = half_side ? half_start : full_start;  // untimed reset
          WallTimer t;
          e[half_side ? 0 : 1] =
              sim.simulate_qaoa_expectation(state, q.gammas, q.betas);
          (half_side ? half_ms : full_ms).push_back(t.seconds() * 1e3);
        }
        identical &= e[0] == e[1];
        if (half.is_half()) {
          half.expand_into(expanded);
          identical &= expanded.max_abs_diff(full) == 0.0;
        } else {
          identical &= half.max_abs_diff(full) == 0.0;
        }
      }
      results.push_back({problem, n, sim.half_space(), half_start.bytes(),
                         full_start.bytes(), bench::summarize(half_ms),
                         bench::summarize(full_ms)});
      const Result& res = results.back();
      std::printf(
          "%-6s n=%2d  half %9.3f ms (iqr %.3f)  full %9.3f ms "
          "(iqr %.3f)  %5.2fx%s\n",
          problem, n, res.half.median_ms, res.half.iqr_ms,
          res.full.median_ms, res.full.iqr_ms,
          res.full.median_ms / res.half.median_ms,
          bench::within_noise(res.half, res.full) ? "  (no change)" : "");
      std::fflush(stdout);
    }
  }
  if (!identical)
    std::fprintf(stderr, "HALF != FULL: half-space bits differ\n");

  std::FILE* out = std::fopen("BENCH_symmetry.json", "w");
  if (!out) {
    std::perror("BENCH_symmetry.json");
    return 1;
  }
  std::fprintf(out, "{\n");
  bench::write_context(out, smoke);
  std::fprintf(out,
               "  \"reps\": %d,\n"
               "  \"p\": %zu,\n"
               "  \"identical\": %s,\n"
               "  \"results\": [\n",
               reps, q.gammas.size(), identical ? "true" : "false");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    std::fprintf(out,
                 "    {\"problem\": \"%s\", \"n\": %d, \"half_space\": %s, "
                 "\"start_bytes_half\": %llu, \"start_bytes_full\": %llu, ",
                 r.problem, r.n, r.half_space ? "true" : "false",
                 static_cast<unsigned long long>(r.start_bytes_half),
                 static_cast<unsigned long long>(r.start_bytes_full));
    bench::write_summary(out, "half", r.half);
    std::fprintf(out, ", ");
    bench::write_summary(out, "full", r.full);
    std::fprintf(out, ", \"speedup\": %.3f, \"within_noise\": %s}%s\n",
                 r.full.median_ms / r.half.median_ms,
                 bench::within_noise(r.half, r.full) ? "true" : "false",
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  return identical ? 0 : 2;
}
