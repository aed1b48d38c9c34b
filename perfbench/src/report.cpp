#include "report.hpp"

#include <unistd.h>

#include <charconv>

#include "bench/bench_report.hpp"

namespace perfbench {
namespace {

/// Shortest decimal that reads back as exactly `v`.
void append_number(std::string& out, double v) {
  char buf[40];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, r.ptr);
}

void append_string(std::string& out, const std::string& s) {
  out += '"';
  out += qokit::bench::json_sanitize(s);
  out += '"';
}

}  // namespace

void FailureCount::fail(const std::string& what) {
  ++failed_;
  if (printed_ < 10) {
    std::fprintf(stderr, "perfbench: FAILED: %s\n", what.c_str());
    if (++printed_ == 10)
      std::fprintf(stderr, "perfbench: further failures not echoed\n");
  }
}

double FailureCount::ratio() const {
  return attempted_ ? static_cast<double>(failed_) /
                          static_cast<double>(attempted_)
                    : 0.0;
}

void FailureCount::merge(const FailureCount& other) {
  attempted_ += other.attempted_;
  failed_ += other.failed_;
}

std::string result_json(const Outcome& outcome) {
  const FailureCount& f = outcome.failures;
  std::string out = "{\"correct\": ";
  out += f.failed() == 0 && f.attempted() > 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(f.attempted());
  out += ", \"failed\": " + std::to_string(f.failed());
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < outcome.metrics.size(); ++i) {
    const Metric& m = outcome.metrics[i];
    if (i) out += ", ";
    append_string(out, m.name);
    out += ": {\"value\": ";
    append_number(out, m.value);
    out += ", \"unit\": ";
    append_string(out, m.unit);
    out += '}';
  }
  out += "}}";
  return out;
}

void print_readable(std::FILE* out, const Outcome& outcome) {
  const auto line = [out](const Metric& m, const char* tag) {
    std::fprintf(out, "%-8s %-34s %16.6f %s\n", tag, m.name.c_str(), m.value,
                 m.unit.c_str());
  };
  for (const Metric& m : outcome.metrics) line(m, "metric");
  for (const Metric& m : outcome.extra) line(m, "info");
  std::fprintf(out, "%-8s %-34s %16.6f ratio (%llu of %llu)\n", "info",
               "failed_ratio", outcome.failures.ratio(),
               static_cast<unsigned long long>(outcome.failures.failed()),
               static_cast<unsigned long long>(outcome.failures.attempted()));
  for (const std::string& note : outcome.notes)
    std::fprintf(out, "note     %s\n", note.c_str());
}

void print_context(std::FILE* out, const Context& context) {
  std::fprintf(out, "{\n");
  qokit::bench::write_context(out, /*smoke=*/false);
  std::string tail;
  tail += "  \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  tail += ",\n  \"workload\": ";
  append_string(tail, context.workload);
  tail += ",\n  \"seed\": " + std::to_string(context.seed);
  tail += ",\n  \"seconds\": " + std::to_string(context.seconds);
  tail += ",\n  \"trace\": ";
  tail += context.trace ? "true" : "false";
  tail += ",\n  \"spec\": ";
  append_string(tail, context.spec);
  tail += ",\n  \"resolved\": ";
  append_string(tail, context.resolved);
  std::fprintf(out, "%s\n}\n", tail.c_str());
}

}  // namespace perfbench
