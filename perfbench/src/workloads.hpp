// The three benchmark workloads.
//
//  - optimize-maxcut: one caller, closed loop. Default-spec sessions on a
//    seeded 3-regular MaxCut graph; rounds of one fixed-budget Nelder-Mead
//    optimize plus a block of evaluate calls on seeded schedules.
//  - fresh-labs: a sequence of fresh ProblemSession::labs sessions, each
//    built, evaluated once at a seeded schedule and destroyed.
//  - serve-mixed: closed loop of serve::Client connections over AF_UNIX to
//    an in-process ScheduleServer; most requests hit a warmed hot set of
//    MaxCut problems, every cold_every-th names a never-seen SK problem.
//
// Each run_* measures its loop until `seconds` have passed and its minimum
// sample count is reached, checks every output it is told to against an
// oracle, and returns the raw samples; metrics.cpp turns them into the
// reported figures.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "inputs.hpp"
#include "report.hpp"

namespace perfbench {

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string work_dir = ".";  ///< socket and trace files go here
  MaxcutSizes maxcut;
  LabsSizes labs;
  ServeSizes serve;
  /// Test hook: corrupt the first checked output and every k-th after it
  /// (0 = off), to prove that mismatches are counted.
  int corrupt_every = 0;

  /// Shrink every workload to a size that runs in about a second.
  void use_small_sizes();
};

/// Raw samples of one measured phase of a workload.
struct RunStats {
  std::vector<double> setup_s;       ///< per set-up
  std::vector<double> first_eval_s;  ///< set-up + first expectation
  std::vector<double> latency_ms;    ///< per operation, in completion order
  std::vector<double> rates;         ///< throughput samples, 1/s
  /// Latency samples the run guarantees; also the tail's window size.
  std::size_t min_ops = 0;
  std::uint64_t ops = 0;             ///< operations in the timed loop
  double loop_s = 0.0;               ///< wall time of the timed loop
  double peak_rss_mb = 0.0;          ///< process peak RSS at the loop's end
  /// qokit_precomputes_total delta over the phase's counter window (the
  /// whole phase; the load alone for serve-mixed), and the number of
  /// sessions the benchmark built in that window, which it must equal.
  std::uint64_t precomputes = 0;
  std::uint64_t expected_precomputes = 0;
  FailureCount failures;
  std::vector<Metric> extra;  ///< workload-specific readable figures
  std::vector<Metric> layer;  ///< workload-owned per-layer metrics
  std::string spec;           ///< spec spelling of the main session
  std::string resolved;       ///< what that spec resolved to
};

/// Peak resident set size of the process so far, in MB (10^6 bytes).
double peak_rss_mb();

RunStats run_optimize_maxcut(const Config& config);
RunStats run_fresh_labs(const Config& config);
RunStats run_serve_mixed(const Config& config);

/// Dispatch on config.workload; throws std::invalid_argument on an
/// unknown name.
RunStats run_workload(const Config& config);

/// Names of the workloads, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

}  // namespace perfbench
