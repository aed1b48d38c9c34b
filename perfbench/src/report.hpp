// What one benchmark run reports, and how it is printed.
//
// Human-readable lines (context stamp, every metric by name and unit,
// sample counts) go to stdout first; the run's last stdout line is one
// JSON object with exactly the keys correct / attempted / failed / metrics.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Counts operations and the ones that failed: a non-Ok response, an
/// exception, or an output that disagrees with its oracle.
class FailureCount {
 public:
  void attempt() { ++attempted_; }
  void fail(const std::string& what);
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  /// failed / attempted (0 when nothing was attempted).
  double ratio() const;
  /// Merge another counter (e.g. one per client thread).
  void merge(const FailureCount& other);

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  int printed_ = 0;  ///< failure messages echoed to stderr so far
};

struct Outcome {
  FailureCount failures;
  std::vector<Metric> metrics;  ///< the gated set for this mode, in order
  std::vector<Metric> extra;    ///< printed for reading, not in the JSON
  std::vector<std::string> notes;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// The final result line: {"correct", "attempted", "failed", "metrics"}.
std::string result_json(const Outcome& outcome);

/// Print the human-readable block (metrics, extras, notes) to `out`.
void print_readable(std::FILE* out, const Outcome& outcome);

/// Context stamp: the shared bench_report.hpp fields plus nproc and the
/// session's resolved spec, precision and pipeline geometry.
struct Context {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  std::string spec;      ///< SimulatorSpec::to_string() of the session
  std::string resolved;  ///< precision / plan / geometry as built
};
void print_context(std::FILE* out, const Context& context);

}  // namespace perfbench
