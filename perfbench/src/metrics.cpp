#include "metrics.hpp"

#include <stdexcept>

#include "stats.hpp"

namespace perfbench {

const std::vector<CatalogEntry>& end_to_end_catalog() {
  static const std::vector<CatalogEntry> catalog = {
      {"setup_s", "s"},
      {"first_eval_s", "s"},
      {"throughput", "1/s"},
      {"latency_ms_p50", "ms"},
      {"latency_ms_tail", "ms"},
      {"peak_rss_mb", "MB"},
  };
  return catalog;
}

const std::vector<CatalogEntry>& layer_catalog() {
  static const std::vector<CatalogEntry> catalog = {
      {"diagonal.precompute_ms", "ms"},
      {"diagonal.term_amps_per_ns", "term-amps/ns"},
      {"diagonal.bytes", "bytes"},
      {"problems.terms_ms", "ms"},
      {"terms.count", "count"},
      {"fur.simulate_ms", "ms"},
      {"fur.expectation_ms", "ms"},
      {"fur.fused_expectation_ms", "ms"},
      {"pipeline.sweeps_per_layer", "count"},
      {"pipeline.layer_ns_per_amp", "ns/amp"},
      {"pipeline.bytes_per_amp", "bytes/amp"},
      {"pipeline.gbps", "GB/s"},
      {"simd.rx_lo_ns_per_amp", "ns/amp"},
      {"simd.rx_hi_ns_per_amp", "ns/amp"},
      {"simd.phase_ns_per_amp", "ns/amp"},
      {"simd.expectation_ns_per_amp", "ns/amp"},
      {"statevector.init_ms", "ms"},
      {"batch.ms_per_schedule_b1", "ms"},
      {"batch.ms_per_schedule_b13", "ms"},
      {"batch.mode_b13", "mode"},
      {"optimize.evaluations", "count"},
      {"optimize.batches", "count"},
      {"optimize.iterations", "count"},
      {"optimize.final_value", "cost"},
      {"api.evaluate_overhead_us", "us"},
      {"api.timings_on_ratio", "ratio"},
      {"serve.queue_ms_p50", "ms"},
      {"serve.queue_ms_p99", "ms"},
      {"serve.hit_eval_ms_p50", "ms"},
      {"serve.miss_eval_ms_p50", "ms"},
      {"serve.wire_ms_p50", "ms"},
      {"serve.hit_ratio", "ratio"},
      {"serve.evictions", "count"},
      {"serve.rejected", "count"},
      {"machine.triad_gbps", "GB/s"},
      {"trace.overhead_ratio", "ratio"},
      {"trace.diagonal_self_share", "ratio"},
      {"trace.serve_self_share", "ratio"},
      {"trace.precomputes", "count"},
  };
  return catalog;
}

Outcome end_to_end(const RunStats& run) {
  Outcome out;
  out.failures = run.failures;
  const int level = tail_level(run.min_ops);
  out.add("setup_s", median(run.setup_s), "s");
  out.add("first_eval_s", median(run.first_eval_s), "s");
  out.add("throughput", median(run.rates), "1/s");
  out.add("latency_ms_p50",
          windowed_percentile(run.latency_ms, run.min_ops, 500), "ms");
  out.add("latency_ms_tail",
          windowed_percentile(run.latency_ms, run.min_ops, level), "ms");
  out.add("peak_rss_mb", run.peak_rss_mb, "MB");
  out.extra = run.extra;
  out.notes.push_back(
      "samples: " + std::to_string(run.setup_s.size()) + " set-ups, " +
      std::to_string(run.first_eval_s.size()) + " first evaluations, " +
      std::to_string(run.latency_ms.size()) +
      " latencies; latency_ms_p50 and _tail are the medians over " +
      std::to_string(run.latency_ms.size() / run.min_ops) + " windows of >= " +
      std::to_string(run.min_ops) + " latencies of each window's p50 and " +
      level_name(level) + " (>= " +
      std::to_string(samples_beyond(run.min_ops, level)) + " samples beyond)");
  return out;
}

std::vector<Metric> in_layer_order(const std::vector<Metric>& measured,
                                   std::vector<std::string>* not_exercised) {
  for (const Metric& m : measured) {
    bool known = false;
    for (const CatalogEntry& e : layer_catalog()) known |= m.name == e.name;
    if (!known)
      throw std::logic_error("per-layer metric '" + m.name +
                             "' is missing from layer_catalog()");
  }
  std::vector<Metric> out;
  for (const CatalogEntry& e : layer_catalog()) {
    const Metric* found = nullptr;
    for (const Metric& m : measured)
      if (m.name == e.name) found = &m;
    if (found) {
      out.push_back({e.name, found->value, e.unit});
    } else {
      out.push_back({e.name, 0.0, e.unit});
      if (not_exercised) not_exercised->push_back(e.name);
    }
  }
  return out;
}

}  // namespace perfbench
