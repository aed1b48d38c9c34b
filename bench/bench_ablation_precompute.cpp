// Ablation (paper Sec. III-A): cost-vector precompute, the library's
// cache-blocked Walsh-Hadamard transform vs the paper's per-element kernel,
// emitting BENCH_precompute.json.
//
// The per-element kernel, sum_k w_k (-1)^{popcount(x & m_k)} evaluated
// independently for every x (one thread owns one element), costs |T| 2^n
// popcounts; it lives here, bench-local, as the measured baseline —
// TermList::evaluate under parallel_for. The transform
// (CostDiagonal::precompute) costs |T| 2^{n-L} + L 2^n with L = 12. Both
// are timed serial and parallel on LABS (dense, high-order: |T| grows
// ~n^3) and on 3-regular MaxCut (sparse, 2-local), reps interleaved. The
// first transform of each configuration is checked bitwise against the
// baseline — these term lists have integer/dyadic weights, so the two
// summation orders must agree exactly; a mismatch exits 2.
//
// Smoke mode (QOKIT_BENCH_SMOKE=1 or --smoke): n = 14 only, 3 reps — used
// by CI (and `ctest -C bench -L bench-smoke`) to keep the JSON generation
// path alive. Never read speedups off smoke runs.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "bench_report.hpp"
#include "common/aligned.hpp"
#include "common/bitops.hpp"
#include "common/parallel.hpp"
#include "common/timer.hpp"
#include "diagonal/cost_diagonal.hpp"
#include "problems/graph.hpp"
#include "problems/labs.hpp"
#include "problems/maxcut.hpp"

namespace {

using namespace qokit;

using bench::Summary;
using bench::summarize;

/// The paper's Sec. III-A kernel: every element summed over all terms.
aligned_vector<double> per_element(const TermList& terms, Exec exec) {
  aligned_vector<double> out(dim_of(terms.num_qubits()));
  parallel_for(exec, 0, static_cast<std::int64_t>(out.size()),
               [&](std::int64_t x) {
                 out[x] = terms.evaluate(static_cast<std::uint64_t>(x));
               });
  return out;
}

struct Result {
  const char* problem;
  int n;
  std::size_t terms;
  const char* exec;
  Summary transform;
  Summary baseline;
};

}  // namespace

int main(int argc, char** argv) {
  const bool smoke =
      (argc > 1 && std::strcmp(argv[1], "--smoke") == 0) ||
      (std::getenv("QOKIT_BENCH_SMOKE") != nullptr);
  const int reps = smoke ? 3 : 7;

  struct Case {
    const char* problem;
    int n;
    TermList terms;
  };
  std::vector<Case> cases;
  for (int n = 14; n <= (smoke ? 14 : 20); n += 2)
    cases.push_back({"labs", n, labs_terms(n)});
  for (int n = 14; n <= (smoke ? 14 : 22); n += 2)
    cases.push_back(
        {"maxcut", n, maxcut_terms(Graph::random_regular(n, 3, 42))});

  std::vector<Result> results;
  bool identical = true;
  for (const Case& c : cases) {
    for (const Exec exec : {Exec::Serial, Exec::Parallel}) {
      std::vector<double> transform_ms;
      std::vector<double> baseline_ms;
      for (int r = 0; r < reps; ++r) {
        // Alternate which side runs first, so drift hits both equally.
        for (int side = 0; side < 2; ++side) {
          WallTimer t;
          if ((side + r) % 2 == 0) {
            const CostDiagonal d = CostDiagonal::precompute(c.terms, exec);
            transform_ms.push_back(t.seconds() * 1e3);
            if (r == 0) identical &= d.values() == per_element(c.terms, exec);
          } else {
            const aligned_vector<double> v = per_element(c.terms, exec);
            baseline_ms.push_back(t.seconds() * 1e3);
          }
        }
      }
      const char* exec_name = exec == Exec::Serial ? "serial" : "parallel";
      results.push_back({c.problem, c.n, c.terms.size(), exec_name,
                         summarize(transform_ms), summarize(baseline_ms)});
      const Result& res = results.back();
      std::printf(
          "%-6s n=%2d |T|=%4zu %-8s transform %9.3f ms  per-element %10.3f "
          "ms  %7.1fx\n",
          c.problem, c.n, res.terms, exec_name, res.transform.median_ms,
          res.baseline.median_ms,
          res.baseline.median_ms / res.transform.median_ms);
      std::fflush(stdout);
    }
  }
  if (!identical)
    std::fprintf(stderr,
                 "TRANSFORM != PER-ELEMENT on an integer/dyadic term list\n");

  std::FILE* out = std::fopen("BENCH_precompute.json", "w");
  if (!out) {
    std::perror("BENCH_precompute.json");
    return 1;
  }
  std::fprintf(out, "{\n");
  bench::write_context(out, smoke);
  std::fprintf(out,
               "  \"reps\": %d,\n"
               "  \"identical\": %s,\n"
               "  \"results\": [\n",
               reps, identical ? "true" : "false");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    std::fprintf(out,
                 "    {\"problem\": \"%s\", \"n\": %d, \"terms\": %zu, "
                 "\"exec\": \"%s\", ",
                 r.problem, r.n, r.terms, r.exec);
    bench::write_summary(out, "transform", r.transform);
    std::fprintf(out, ", ");
    bench::write_summary(out, "per_element", r.baseline);
    std::fprintf(out, ", \"speedup\": %.2f}%s\n",
                 r.baseline.median_ms / r.transform.median_ms,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  return identical ? 0 : 2;
}
