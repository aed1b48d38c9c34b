// perfbench: the end-to-end benchmark of qokit-cpp.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>]
//   perfbench --list-metrics
//
// --trace 0 measures the workload and reports the end-to-end metrics.
// --trace 1 runs the workload twice for half the time each, untraced and
// traced, then probes each layer at the workload's size, writes the spans
// to <work-dir>/trace-<workload>-<seed>.json (chrome://tracing) and reports
// the per-layer metrics. The last stdout line is the JSON result; the exit
// code is 1 when any output disagreed with its oracle, 2 on a usage or
// set-up error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <malloc.h>
#include <unistd.h>

#include "inputs.hpp"
#include "layers.hpp"
#include "metrics.hpp"
#include "obs/obs.hpp"
#include "stats.hpp"
#include "problems/labs.hpp"
#include "problems/maxcut.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<optimize-maxcut|fresh-labs|serve-mixed> --seed <n> "
               "--seconds <s> --trace <0|1> [--work-dir <dir>]\n"
               "       perfbench --list-metrics\n",
               why);
  return 2;
}

/// Keep the library on its default configuration whatever the caller's
/// environment says, keep git (context stamp) inside the checkout, and
/// pin glibc's mmap threshold: by default it rises after the first large
/// free, after which peak RSS depends on heap fragmentation and reads
/// differently from run to run. Pinned, every state-sized buffer is its
/// own mapping and peak RSS follows the live buffers.
void pin_environment() {
  mallopt(M_MMAP_THRESHOLD, 256 * 1024);
  for (const char* var : {"QOKIT_OBS", "QOKIT_PREC", "QOKIT_PIPELINE",
                          "QOKIT_SIMD", "QOKIT_TUNE", "QOKIT_TUNE_PATH"})
    unsetenv(var);
  char cwd[4096];
  if (getcwd(cwd, sizeof cwd)) {
    std::string parent(cwd);
    parent = parent.substr(0, parent.find_last_of('/'));
    setenv("GIT_CEILING_DIRECTORIES", parent.empty() ? "/" : parent.c_str(), 1);
  }
}

ProbeTarget probe_target(const Config& config) {
  ProbeTarget t;
  t.seed = config.seed;
  const std::uint64_t seed = config.seed;
  if (config.workload == "optimize-maxcut") {
    const int n = config.maxcut.n;
    t.build_terms = [seed, n] { return qokit::maxcut_terms(regular3_graph(seed, n)); };
    t.p = config.maxcut.p;
  } else if (config.workload == "fresh-labs") {
    const int n = config.labs.n;
    t.build_terms = [n] { return qokit::labs_terms(n); };
    t.p = config.labs.p;
  } else {
    const int n = config.serve.n;
    t.build_terms = [seed, n] { return qokit::maxcut_terms(regular3_graph(seed, n)); };
    t.p = config.serve.p;
  }
  return t;
}

/// Print the context stamp, `detail`, the readable metrics and the JSON
/// result line; returns the exit code.
int emit(const Context& context, Outcome& out, const std::string& detail = "") {
  for (const Metric& m : out.metrics)
    if (!std::isfinite(m.value)) out.failures.fail("metric " + m.name + " is not finite");
  print_context(stdout, context);
  std::fputs(detail.c_str(), stdout);
  print_readable(stdout, out);
  std::printf("%s\n", result_json(out).c_str());
  return out.failures.failed() ? 1 : 0;
}

int run_untraced(const Config& config, Context context) {
  const RunStats run = run_workload(config);
  Outcome out = end_to_end(run);
  context.spec = run.spec;
  context.resolved = run.resolved;
  return emit(context, out);
}

int run_traced(const Config& config, Context context) {
  Config half = config;
  half.seconds = config.seconds / 2;
  // Neither phase reports latency percentiles; keep the minimums small.
  half.maxcut.min_rounds = 1;
  half.maxcut.min_evals = 0;
  half.labs.min_sessions = 2;
  half.serve.min_requests = 100;

  const RunStats plain = run_workload(half);
  trace::set_enabled(true);
  qokit::obs::set_enabled(true);  // for qokit_precomputes_total
  RunStats traced = run_workload(half);
  qokit::obs::set_enabled(false);
  const std::vector<trace::Record> workload_spans = trace::records();

  std::vector<Metric> measured = probe_layers(probe_target(config));
  std::string triad_sizes;
  measured.push_back({"machine.triad_gbps", triad_gbps(&triad_sizes), "GB/s"});
  trace::set_enabled(false);
  measured.insert(measured.end(), traced.layer.begin(), traced.layer.end());

  // Self time of the workload phase, by span name; shares are of the
  // summed self time of every span except the oracle checks.
  const std::vector<trace::SelfTime> table = trace::self_times(workload_spans);
  double traced_ns = 0.0;
  for (const trace::SelfTime& s : table)
    if (s.name.compare(0, 6, "check.") != 0) traced_ns += static_cast<double>(s.self_ns);
  const auto share = [&](const char* module) {
    return traced_ns > 0.0
               ? static_cast<double>(trace::module_self_ns(table, module)) / traced_ns
               : 0.0;
  };
  measured.push_back({"trace.overhead_ratio",
                      median(traced.latency_ms) / median(plain.latency_ms), "ratio"});
  measured.push_back({"trace.diagonal_self_share", share("diagonal"), "ratio"});
  measured.push_back({"trace.serve_self_share", share("serve"), "ratio"});
  measured.push_back({"trace.precomputes", static_cast<double>(traced.precomputes), "count"});
  if (traced.precomputes != traced.expected_precomputes)
    traced.failures.fail("qokit_precomputes_total rose by " +
                         std::to_string(traced.precomputes) + ", expected " +
                         std::to_string(traced.expected_precomputes) +
                         " (one per session the workload built)");

  Outcome out;
  out.failures = plain.failures;
  out.failures.merge(traced.failures);
  std::vector<std::string> not_exercised;
  out.metrics = in_layer_order(measured, &not_exercised);

  const std::string trace_path = config.work_dir + "/trace-" + config.workload +
                                 "-" + std::to_string(config.seed) + ".json";
  {
    std::ofstream f(trace_path);
    f << trace::chrome_json(trace::records());
    if (!f) out.notes.push_back("could not write " + trace_path);
  }

  std::string detail;
  char line[200];
  std::snprintf(line, sizeof line,
                "self time of the traced workload phase (%.3f s of spans):\n"
                "  %-28s %8s %12s %12s %7s\n",
                traced_ns * 1e-9, "span", "count", "total_ms", "self_ms", "share");
  detail += line;
  for (const trace::SelfTime& s : table) {
    std::snprintf(line, sizeof line, "  %-28s %8llu %12.3f %12.3f %6.1f%%\n",
                  s.name.c_str(), static_cast<unsigned long long>(s.count),
                  static_cast<double>(s.total_ns) * 1e-6,
                  static_cast<double>(s.self_ns) * 1e-6,
                  traced_ns > 0 ? 100.0 * static_cast<double>(s.self_ns) / traced_ns
                                : 0.0);
    detail += line;
  }
  out.notes.push_back(triad_sizes);
  out.notes.push_back("trace written to " + trace_path);
  out.notes.push_back("untraced phase " + std::to_string(plain.ops) +
                      " ops in " + std::to_string(plain.loop_s) +
                      " s; traced phase " + std::to_string(traced.ops) +
                      " ops in " + std::to_string(traced.loop_s) + " s");
  std::string na;
  for (const std::string& name : not_exercised) na += " " + name;
  if (!na.empty()) out.notes.push_back("not exercised by this workload (0):" + na);
  context.spec = traced.spec;
  context.resolved = traced.resolved;
  return emit(context, out, detail);
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  bool trace_flag = false, have_workload = false, have_seed = false,
       have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-metrics") {
      for (const CatalogEntry& e : end_to_end_catalog())
        std::printf("end_to_end %s %s\n", e.name, e.unit);
      for (const CatalogEntry& e : layer_catalog())
        std::printf("per_layer %s %s\n", e.name, e.unit);
      for (const std::string& w : workload_names()) std::printf("workload %s\n", w.c_str());
      return 0;
    }
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        config.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        config.seed = std::stoull(value);
        have_seed = true;
      } else if (arg == "--seconds") {
        config.seconds = std::stod(value);
        have_seconds = config.seconds > 0;
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        trace_flag = value == "1";
        have_trace = true;
      } else if (arg == "--work-dir") {
        config.work_dir = value;
      } else {
        return usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + arg + ": " + value).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace)
    return usage("--workload, --seed, --seconds (> 0) and --trace are required");
  bool known = false;
  for (const std::string& w : workload_names()) known |= w == config.workload;
  if (!known) return usage(("unknown workload " + config.workload).c_str());

  pin_environment();
  Context context;
  context.workload = config.workload;
  context.seed = config.seed;
  context.seconds = static_cast<int>(config.seconds);
  context.trace = trace_flag;
  try {
    return trace_flag ? run_traced(config, context) : run_untraced(config, context);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
