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
// The `fresh_session` block attributes what a fresh problem costs around
// that precompute (perfbench's fresh-labs operation): for LABS n = 16..22
// it times building a default session, its first evaluate (p = 6) and its
// destruction, each with the minor page faults it took (getrusage
// ru_minflt deltas), over 7 interleaved reps. Like perfbench, the block
// pins glibc's mmap threshold at 256 KiB: left dynamic, it rises after
// the first large free and later buffers reuse heap pages, hiding the
// faults a fresh process pays. A fresh session's first and second
// evaluates must agree in every bit; a mismatch exits 2.
//
// Smoke mode (QOKIT_BENCH_SMOKE=1 or --smoke): n = 14 only, 3 reps — used
// by CI (and `ctest -C bench -L bench-smoke`) to keep the JSON generation
// path alive. Never read speedups off smoke runs.
#include <malloc.h>
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <vector>

#include "api/session.hpp"
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
  aligned_vector<double> out(dim_of(terms.num_qubits()));  // all written
  parallel_for(exec, 0, static_cast<std::int64_t>(out.size()),
               [&](std::int64_t x) {
                 out[x] = terms.evaluate(static_cast<std::uint64_t>(x));
               });
  return out;
}

/// Minor page faults of this process so far.
double minor_faults() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_minflt);
}

/// One phase of a fresh session's life: wall times (ms) and faults.
struct Phase {
  std::vector<double> ms;
  std::vector<double> faults;
};

struct FreshResult {
  int n;
  Summary build, first_eval, destroy;
  Summary build_faults, first_eval_faults, destroy_faults;
};

/// `"key": {"median": .., "min": .., "iqr": ..}` for a count series
/// (summarize() is unit-agnostic; only the keys say ms).
void write_counts(std::FILE* out, const char* key, const Summary& s) {
  std::fprintf(out, "\"%s\": {\"median\": %.1f, \"min\": %.1f, "
               "\"iqr\": %.1f}", key, s.median_ms, s.min_ms, s.iqr_ms);
}

/// Build, first-evaluate and destroy a default LABS session `reps` times
/// per n, interleaving the n values within each rep. `identical` turns
/// false if a session's first evaluate differs in any bit from its second.
std::vector<FreshResult> fresh_sessions(const std::vector<int>& ns, int reps,
                                        bool& identical) {
  QaoaParams q;
  for (int l = 0; l < 6; ++l) {
    q.gammas.push_back(0.1 + 0.05 * l);
    q.betas.push_back(0.6 - 0.07 * l);
  }
  std::vector<Phase> build(ns.size()), first(ns.size()), destroy(ns.size());
  for (int r = 0; r < reps; ++r) {
    for (std::size_t i = 0; i < ns.size(); ++i) {
      const TermList terms = labs_terms(ns[i]);
      const auto phase = [](Phase& ph, WallTimer& t, double f0) {
        ph.ms.push_back(t.seconds() * 1e3);
        ph.faults.push_back(minor_faults() - f0);
      };
      double f0 = minor_faults();
      WallTimer t;
      std::optional<api::ProblemSession> session(std::in_place, terms);
      phase(build[i], t, f0);
      f0 = minor_faults();
      t.reset();
      const double e1 = *session->evaluate(q).expectation;
      phase(first[i], t, f0);
      const double e2 = *session->evaluate(q).expectation;
      identical &= std::memcmp(&e1, &e2, sizeof e1) == 0;
      f0 = minor_faults();
      t.reset();
      session.reset();
      phase(destroy[i], t, f0);
    }
  }
  std::vector<FreshResult> out;
  for (std::size_t i = 0; i < ns.size(); ++i)
    out.push_back({ns[i], summarize(build[i].ms), summarize(first[i].ms),
                   summarize(destroy[i].ms), summarize(build[i].faults),
                   summarize(first[i].faults), summarize(destroy[i].faults)});
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

  std::vector<int> fresh_ns;
  for (int n = smoke ? 14 : 16; n <= (smoke ? 14 : 22); n += 2)
    fresh_ns.push_back(n);
  bool fresh_identical = true;
  mallopt(M_MMAP_THRESHOLD, 256 * 1024);  // after the transform block
  const std::vector<FreshResult> fresh =
      fresh_sessions(fresh_ns, smoke ? 3 : 7, fresh_identical);
  for (const FreshResult& f : fresh)
    std::printf(
        "fresh labs n=%2d  build %8.3f ms (%6.0f faults)  first eval %8.3f "
        "ms (%6.0f faults)  destroy %7.3f ms (%5.0f faults)\n",
        f.n, f.build.median_ms, f.build_faults.median_ms,
        f.first_eval.median_ms, f.first_eval_faults.median_ms,
        f.destroy.median_ms, f.destroy_faults.median_ms);
  if (!fresh_identical)
    std::fprintf(stderr,
                 "A FRESH SESSION'S FIRST AND SECOND EVALUATES DIFFER\n");

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
  std::fprintf(out, "  ],\n  \"fresh_identical\": %s,\n"
               "  \"fresh_session\": [\n",
               fresh_identical ? "true" : "false");
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    const FreshResult& f = fresh[i];
    std::fprintf(out, "    {\"problem\": \"labs\", \"n\": %d, \"p\": 6, ",
                 f.n);
    bench::write_summary(out, "build", f.build);
    std::fprintf(out, ", ");
    write_counts(out, "build_minflt", f.build_faults);
    std::fprintf(out, ", ");
    bench::write_summary(out, "first_eval", f.first_eval);
    std::fprintf(out, ", ");
    write_counts(out, "first_eval_minflt", f.first_eval_faults);
    std::fprintf(out, ", ");
    bench::write_summary(out, "destroy", f.destroy);
    std::fprintf(out, ", ");
    write_counts(out, "destroy_minflt", f.destroy_faults);
    std::fprintf(out, "}%s\n", i + 1 < fresh.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  return identical && fresh_identical ? 0 : 2;
}
