// The reported metric sets and how they are computed from a run.
//
// end_to_end_catalog() and layer_catalog() list every metric in the order
// BENCHMARK.json declares them; tests/test_contract.py holds the two in
// sync. Every workload reports every metric of its mode: a per-layer
// metric a workload never exercises (optimize.* outside optimize-maxcut,
// serve.* outside serve-mixed) reads 0.
#pragma once

#include <string>
#include <vector>

#include "report.hpp"
#include "workloads.hpp"

namespace perfbench {

struct CatalogEntry {
  const char* name;
  const char* unit;
};

const std::vector<CatalogEntry>& end_to_end_catalog();
const std::vector<CatalogEntry>& layer_catalog();

/// setup_s, first_eval_s, throughput, latency_ms_p50, latency_ms_tail and
/// peak_rss_mb of an untraced run, plus the workload's readable extras.
Outcome end_to_end(const RunStats& run);

/// Everything the traced run measured, keyed by per-layer metric name;
/// assembled into catalog order, with 0 for metrics the workload does not
/// exercise. Throws if a measured name is not in the catalog.
std::vector<Metric> in_layer_order(const std::vector<Metric>& measured,
                                   std::vector<std::string>* not_exercised);

}  // namespace perfbench
