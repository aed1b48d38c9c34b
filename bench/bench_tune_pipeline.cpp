// Machine-adaptive tuning: static pipeline geometry (the pre-tune
// constants) vs the tuned geometry the machine probe + heuristic picks for
// this host, ns/layer at n = 20, 24, serial and parallel, emitting
// BENCH_tune.json.
//
// Times simulate_qaoa_from on two FurQaoaSimulator configurations that
// differ ONLY in pipeline Geometry (tile/group/chunk); the ratio isolates
// what tuning buys on this machine. On hosts in the 32 KiB-L1d / 2 MiB-L2
// class the heuristic reproduces the static constants exactly; the two
// configurations are then the same, so no ratio is emitted — each result
// carries "identical_geometry": true instead of a noise-only "speedup".
// Results are cross-checked bitwise before timing (tuning must never
// change arithmetic) — a mismatch exits 2, so the bench doubles as a
// large-n tune-identity smoke.
//
// Smoke mode (QOKIT_BENCH_SMOKE=1 or --smoke): n = 16 only, 1 rep — used
// by CI to keep the probe + JSON generation path alive without burning
// minutes.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_report.hpp"
#include "common/aligned.hpp"
#include "common/bitops.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "diagonal/cost_diagonal.hpp"
#include "fur/simulator.hpp"
#include "statevector/state.hpp"
#include "tune/machine_probe.hpp"
#include "tune/profile.hpp"

namespace {

using namespace qokit;

struct Result {
  int n;
  const char* exec;
  double static_ns_layer;
  double tuned_ns_layer;
  int static_sweeps;
  int tuned_sweeps;
};

/// Best-of-`reps` wall time of `run`.
template <class F>
double time_best(int reps, F&& run) {
  double best = 1e100;
  for (int r = 0; r < reps; ++r) {
    WallTimer t;
    run();
    best = std::min(best, t.seconds());
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke =
      (argc > 1 && std::strcmp(argv[1], "--smoke") == 0) ||
      (std::getenv("QOKIT_BENCH_SMOKE") != nullptr);
  const int reps = smoke ? 1 : 3;
  const int layers = smoke ? 2 : 4;
  const std::vector<int> ns =
      smoke ? std::vector<int>{16} : std::vector<int>{20, 24};

  const tune::MachineTopology topo = tune::probe_machine();
  const tune::TuneProfile tuned_profile = tune::heuristic_profile(topo);
  const pipeline::Geometry static_geom = pipeline::Geometry::defaults();
  const pipeline::Geometry tuned_geom = tuned_profile.geometry;
  const bool same_geometry = tuned_geom == static_geom;
  std::printf(
      "probe: l1d=%llu l2=%llu l3=%llu cores=%d numa=%d (%s)\n"
      "static geometry t=%d g=%d c=%d | tuned t=%d g=%d c=%d\n",
      static_cast<unsigned long long>(topo.l1d_bytes),
      static_cast<unsigned long long>(topo.l2_bytes),
      static_cast<unsigned long long>(topo.l3_bytes), topo.physical_cores,
      topo.numa_nodes, topo.cpu_model.c_str(), static_geom.tile_log2,
      static_geom.group_qubits, static_geom.chunk_log2,
      tuned_geom.tile_log2, tuned_geom.group_qubits, tuned_geom.chunk_log2);

  std::vector<Result> results;
  bool identical = true;
  for (int n : ns) {
    const std::uint64_t dim = dim_of(n);
    Rng rng(5300 + static_cast<std::uint64_t>(n));
    aligned_vector<double> values(dim);
    for (double& v : values) v = rng.uniform(-8.0, 8.0);
    const CostDiagonal diag =
        CostDiagonal::from_values(n, std::move(values));

    std::vector<double> gammas(layers), betas(layers);
    for (int l = 0; l < layers; ++l) {
      gammas[l] = 0.1 + 0.07 * l;
      betas[l] = 0.8 - 0.11 * l;
    }

    for (const Exec exec : {Exec::Serial, Exec::Parallel}) {
      FurConfig static_cfg;
      static_cfg.exec = exec;
      static_cfg.pipeline = {pipeline::PipelineMode::On, static_geom};
      FurConfig tuned_cfg = static_cfg;
      tuned_cfg.pipeline.geometry = tuned_geom;
      const FurQaoaSimulator static_sim(diag, static_cfg);
      const FurQaoaSimulator tuned_sim(diag, tuned_cfg);

      // Identity gate before timing: tuning reorders the traversal only,
      // so the tuned evolution must match the static oracle bit for bit.
      {
        const StateVector a = tuned_sim.simulate_qaoa(gammas, betas);
        const StateVector b = static_sim.simulate_qaoa(gammas, betas);
        if (a.max_abs_diff(b) != 0.0) {
          std::fprintf(stderr, "TUNED != STATIC at n=%d exec=%d\n", n,
                       static_cast<int>(exec));
          identical = false;
        }
      }

      StateVector state = static_sim.initial_state();
      const auto run = [&](const FurQaoaSimulator& sim) {
        state = sim.simulate_qaoa_from(std::move(state), gammas, betas);
      };
      const double static_s =
          time_best(reps, [&] { run(static_sim); }) / layers;
      const double tuned_s =
          time_best(reps, [&] { run(tuned_sim); }) / layers;

      const char* exec_name = exec == Exec::Serial ? "serial" : "parallel";
      results.push_back({n, exec_name, static_s * 1e9, tuned_s * 1e9,
                         static_sim.layer_plan().full_sweeps(),
                         tuned_sim.layer_plan().full_sweeps()});
      std::printf(
          "n=%2d %-8s static %10.2f ms/layer (%2d sweeps)  tuned %10.2f "
          "ms/layer (%2d sweeps)",
          n, exec_name, static_s * 1e3,
          static_sim.layer_plan().full_sweeps(), tuned_s * 1e3,
          tuned_sim.layer_plan().full_sweeps());
      if (same_geometry)
        std::printf("  (identical geometry)\n");
      else
        std::printf("  %5.2fx\n", static_s / tuned_s);
      std::fflush(stdout);
    }
  }

  std::FILE* out = std::fopen("BENCH_tune.json", "w");
  if (!out) {
    std::perror("BENCH_tune.json");
    return 1;
  }
  std::fprintf(out, "{\n");
  bench::write_context(out, smoke);
  std::fprintf(out,
               "  \"layers\": %d,\n"
               "  \"probe\": {\"l1d_bytes\": %llu, \"l2_bytes\": %llu, "
               "\"l3_bytes\": %llu, \"physical_cores\": %d, "
               "\"numa_nodes\": %d},\n"
               "  \"static_geometry\": {\"tile_log2\": %d, "
               "\"group_qubits\": %d, \"chunk_log2\": %d},\n"
               "  \"tuned_geometry\": {\"tile_log2\": %d, "
               "\"group_qubits\": %d, \"chunk_log2\": %d},\n"
               "  \"results\": [\n",
               layers, static_cast<unsigned long long>(topo.l1d_bytes),
               static_cast<unsigned long long>(topo.l2_bytes),
               static_cast<unsigned long long>(topo.l3_bytes),
               topo.physical_cores, topo.numa_nodes, static_geom.tile_log2,
               static_geom.group_qubits, static_geom.chunk_log2,
               tuned_geom.tile_log2, tuned_geom.group_qubits,
               tuned_geom.chunk_log2);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    std::fprintf(out,
                 "    {\"n\": %d, \"exec\": \"%s\", "
                 "\"static_ns_per_layer\": %.0f, \"tuned_ns_per_layer\": "
                 "%.0f, ",
                 r.n, r.exec, r.static_ns_layer, r.tuned_ns_layer);
    if (same_geometry)
      std::fprintf(out, "\"identical_geometry\": true, ");
    else
      std::fprintf(out, "\"speedup\": %.3f, ",
                   r.static_ns_layer / r.tuned_ns_layer);
    std::fprintf(out, "\"static_sweeps\": %d, \"tuned_sweeps\": %d}%s\n",
                 r.static_sweeps, r.tuned_sweeps,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  return identical ? 0 : 2;
}
