#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "api/session.hpp"
#include "batch/batch_eval.hpp"
#include "diagonal/cost_diagonal.hpp"
#include "fur/simulator.hpp"
#include "inputs.hpp"
#include "pipeline/layer_exec.hpp"
#include "simd/kernels.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "tune/machine_probe.hpp"

namespace perfbench {
namespace {

/// Median wall time in ns of `reps` calls of `f`, each in a span `name`.
/// `prepare` runs before each call, outside the timing.
template <class F, class P>
double median_ns(const char* name, int reps, P prepare, F f) {
  std::vector<double> ns;
  for (int r = 0; r < reps; ++r) {
    prepare();
    const trace::Span span(name);
    const std::uint64_t t0 = trace::now_ns();
    f();
    ns.push_back(static_cast<double>(trace::now_ns() - t0));
  }
  return median(ns);
}

template <class F>
double median_ns(const char* name, int reps, F f) {
  return median_ns(name, reps, [] {}, f);
}

}  // namespace

std::vector<Metric> probe_layers(const ProbeTarget& target) {
  std::vector<Metric> out;
  qokit::TermList terms;
  const double terms_ns =
      median_ns("problems.terms", 5, [&] { terms = target.build_terms(); });
  const int n = terms.num_qubits();
  const std::uint64_t dim = std::uint64_t{1} << n;
  const double amps = static_cast<double>(dim);
  out.push_back({"problems.terms_ms", terms_ns * 1e-6, "ms"});
  out.push_back({"terms.count", static_cast<double>(terms.size()), "count"});

  std::uint64_t diag_bytes = 0;
  const double pre_ns = median_ns("diagonal.precompute", n >= 20 ? 3 : 5, [&] {
    diag_bytes = qokit::CostDiagonal::precompute(terms).memory_bytes();
  });
  out.push_back({"diagonal.precompute_ms", pre_ns * 1e-6, "ms"});
  out.push_back({"diagonal.term_amps_per_ns",
                 static_cast<double>(terms.size()) * amps / pre_ns,
                 "term-amps/ns"});
  out.push_back({"diagonal.bytes", static_cast<double>(diag_bytes), "bytes"});

  const qokit::api::ProblemSession session(terms);
  const qokit::QaoaFastSimulatorBase& sim = session.simulator();
  const auto* fur = dynamic_cast<const qokit::FurQaoaSimulator*>(&sim);
  if (!fur || sim.precision() != qokit::Precision::F64)
    throw std::runtime_error(
        "layer probes need the default f64 fur simulator, got " +
        session.spec().to_string());
  const qokit::Exec exec = fur->config().exec;
  const qokit::QaoaParams q = random_schedule(
      mix(target.seed, Stream::EvalSchedule, ~0ull), target.p, 0.1, 0.9);
  const std::span<const double> gammas(q.gammas), betas(q.betas);

  const double init_ns =
      median_ns("statevector.init", 7, [&] { (void)sim.initial_state(); });
  out.push_back({"statevector.init_ms", init_ns * 1e-6, "ms"});

  const qokit::StateVector init = sim.initial_state();
  qokit::StateVector st = init;
  double sink = 0.0;
  const auto refill = [&] { st = init; };
  const double sim_ns = median_ns("fur.simulate", 7, refill, [&] {
    st = sim.simulate_qaoa_from(std::move(st), gammas, betas);
  });
  const double exp_ns = median_ns("fur.expectation", 7,
                                  [&] { sink += sim.get_expectation(st); });
  const double fused_ns = median_ns("fur.fused_expectation", 7, refill, [&] {
    sink += sim.simulate_qaoa_expectation(st, gammas, betas);
  });
  out.push_back({"fur.simulate_ms", sim_ns * 1e-6, "ms"});
  out.push_back({"fur.expectation_ms", exp_ns * 1e-6, "ms"});
  out.push_back({"fur.fused_expectation_ms", fused_ns * 1e-6, "ms"});

  // api: evaluate() against the same work done directly (refill the state
  // from the cached initial state, then the fused simulate+reduce).
  const double copy_ns = median_ns("statevector.copy", 7, refill);
  const double eval_ns = median_ns("api.evaluate", 7, [&] {
    sink += session.evaluate(q).expectation.value();
  });
  qokit::api::EvalRequest timed;
  timed.timings = true;
  const double timed_ns = median_ns("api.evaluate_timed", 7, [&] {
    sink += session.evaluate(q, timed).expectation.value();
  });
  out.push_back(
      {"api.evaluate_overhead_us", (eval_ns - copy_ns - fused_ns) * 1e-3, "us"});
  out.push_back({"api.timings_on_ratio", timed_ns / eval_ns, "ratio"});

  // pipeline: one fused layer through run_layer on the session's own plan.
  const qokit::pipeline::LayerPlan& plan = fur->layer_plan();
  const qokit::CostDiagonal& diag = session.cost_diagonal();
  double layer_ns = 0.0;
  int sweeps = n + 1;  // the unfused loop: phase + one pass per qubit
  st = init;
  if (plan.active()) {
    sweeps = plan.full_sweeps();
    qokit::pipeline::PhaseCtx phase;
    phase.costs = diag.data();
    layer_ns = median_ns("pipeline.run_layer", 9, [&] {
      qokit::pipeline::run_layer(plan, st.data(), dim, phase, q.gammas[0],
                                 q.betas[0], exec);
    });
  } else {
    layer_ns = median_ns("pipeline.unfused_layer", 9, [&] {
      st = sim.simulate_qaoa_from(std::move(st), gammas.first(1),
                                  betas.first(1));
    });
  }
  // Computed, not measured: every sweep reads and writes 16 bytes per
  // amplitude, and the phase pass also reads the 8-byte cost.
  const double bytes_per_amp = sweeps * 32.0 + 8.0;
  out.push_back({"pipeline.sweeps_per_layer", static_cast<double>(sweeps),
                 "count"});
  out.push_back({"pipeline.layer_ns_per_amp", layer_ns / amps, "ns/amp"});
  out.push_back({"pipeline.bytes_per_amp", bytes_per_amp, "bytes/amp"});
  out.push_back({"pipeline.gbps", bytes_per_amp * amps / layer_ns, "GB/s"});

  // simd: single kernels over the whole state.
  qokit::cdouble* a = st.data();
  const double c = std::cos(q.betas[0]), s = std::sin(q.betas[0]);
  const double rx_lo = median_ns("simd.rx", 15, [&] {
    qokit::simd::rx(a, dim, 0, c, s, exec);
  });
  const double rx_hi = median_ns("simd.rx", 15, [&] {
    qokit::simd::rx(a, dim, n - 1, c, s, exec);
  });
  const double ph = median_ns("simd.apply_phase_slice", 15, [&] {
    qokit::simd::apply_phase_slice(a, diag.data(), dim, q.gammas[0], exec);
  });
  const double ex = median_ns("simd.expectation_slice", 15, [&] {
    sink += qokit::simd::expectation_slice(a, diag.data(), dim, exec);
  });
  out.push_back({"simd.rx_lo_ns_per_amp", rx_lo / amps, "ns/amp"});
  out.push_back({"simd.rx_hi_ns_per_amp", rx_hi / amps, "ns/amp"});
  out.push_back({"simd.phase_ns_per_amp", ph / amps, "ns/amp"});
  out.push_back({"simd.expectation_ns_per_amp", ex / amps, "ns/amp"});

  // batch: the optimizer's batch sizes (1, and 2p+1 = 13 at p = 6).
  std::vector<qokit::QaoaParams> batch13;
  for (int i = 0; i < 13; ++i)
    batch13.push_back(random_schedule(
        mix(target.seed, Stream::EvalSchedule, ~0ull - 1 - i), target.p, 0.1,
        0.9));
  const std::span<const qokit::QaoaParams> one(batch13.data(), 1);
  const double b1 = median_ns("batch.evaluate", 7, [&] {
    sink += session.batch().evaluate(one).expectations[0];
  });
  qokit::BatchParallelism used = qokit::BatchParallelism::Inner;
  const double b13 = median_ns("batch.evaluate", 5, [&] {
    const qokit::BatchResult r = session.batch().evaluate(batch13);
    used = r.used;
    sink += r.expectations[0];
  });
  out.push_back({"batch.ms_per_schedule_b1", b1 * 1e-6, "ms"});
  out.push_back({"batch.ms_per_schedule_b13", b13 * 1e-6 / 13.0, "ms"});
  out.push_back({"batch.mode_b13",
                 used == qokit::BatchParallelism::Outer ? 1.0 : 2.0,
                 "mode"});
  if (!std::isfinite(sink))
    throw std::runtime_error("layer probes produced a non-finite value");
  return out;
}

double triad_gbps(std::string* sizes) {
  const qokit::tune::MachineTopology topo = qokit::tune::probe_machine();
  const std::uint64_t llc = topo.l3_bytes ? topo.l3_bytes : topo.l2_bytes;
  const std::uint64_t total =
      std::min<std::uint64_t>(std::max<std::uint64_t>(4 * llc, 64ull << 20),
                              1ull << 30);
  const std::int64_t count = static_cast<std::int64_t>(total / 3 / 8);
  std::unique_ptr<double[]> a(new double[count]), b(new double[count]),
      c(new double[count]);
#pragma omp parallel for schedule(static)
  for (std::int64_t i = 0; i < count; ++i) {
    a[i] = 0.0;
    b[i] = 1.0;
    c[i] = 2.0;
  }
  double best_ns = 1e300;
  for (int rep = 0; rep < 5; ++rep) {
    const trace::Span span("machine.triad");
    const std::uint64_t t0 = trace::now_ns();
#pragma omp parallel for schedule(static)
    for (std::int64_t i = 0; i < count; ++i) a[i] = b[i] + 3.0 * c[i];
    best_ns = std::min(best_ns, static_cast<double>(trace::now_ns() - t0));
  }
  if (a[count / 2] != 7.0) throw std::runtime_error("triad: wrong result");
  if (sizes) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "triad: 3 arrays x %.1f MiB = %.1f MiB against LLC %.1f MiB",
                  static_cast<double>(count) * 8.0 / (1 << 20),
                  static_cast<double>(count) * 24.0 / (1 << 20),
                  static_cast<double>(llc) / (1 << 20));
    *sizes = buf;
  }
  return static_cast<double>(count) * 24.0 / best_ns;
}

}  // namespace perfbench
