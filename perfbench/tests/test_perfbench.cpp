// Self-tests of the benchmark: the percentile rule, failure counting,
// seed -> input determinism, the span self-time arithmetic, and every
// workload end to end at a small size.
#include <cmath>
#include <cstdio>
#include <string>

#include "inputs.hpp"
#include "metrics.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                  \
  do {                                                               \
    if (!(cond)) {                                                   \
      ++g_failures;                                                  \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,    \
                   __LINE__, #cond);                                 \
    }                                                                \
  } while (0)

using namespace perfbench;

void test_percentile_rule() {
  // The highest level with at least 10 samples beyond it.
  CHECK(tail_level(20) == 500);
  CHECK(tail_level(99) == 500);
  CHECK(tail_level(100) == 900);
  CHECK(tail_level(999) == 900);
  CHECK(tail_level(1000) == 990);
  CHECK(tail_level(10000) == 999);
  for (std::size_t n : {20u, 57u, 100u, 333u, 1000u, 4321u, 10000u}) {
    const int level = tail_level(n);
    CHECK(samples_beyond(n, level) >= kMinBeyond);
  }
  bool threw = false;
  try {
    tail_level(19);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  CHECK(threw);
  // Nearest rank: the 90th of 100 ordered samples 1..100 is 90.
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  CHECK(percentile(v, 900) == 90.0);
  CHECK(percentile(v, 500) == 50.0);
  CHECK(percentile(v, 990) == 99.0);
  // Windows of 20: the burst in the last window moves one window's p50,
  // not the median over the three.
  std::vector<double> timeline(60, 1.0);
  for (int i = 40; i < 60; ++i) timeline[i] = 100.0;
  CHECK(windowed_percentile(timeline, 20, 500) == 1.0);
  CHECK(percentile(timeline, 900) == 100.0);
  // A remainder joins the last window.
  CHECK(windowed_percentile(std::vector<double>(45, 2.0), 20, 500) == 2.0);
  CHECK(median({3.0, 1.0, 2.0}) == 2.0);
  CHECK(median({4.0, 1.0, 2.0, 3.0}) == 2.5);
}

void test_failure_counting() {
  FailureCount f;
  for (int i = 0; i < 8; ++i) f.attempt();
  f.fail("one");
  f.fail("two");
  CHECK(f.attempted() == 8 && f.failed() == 2);
  CHECK(f.ratio() == 0.25);
  FailureCount g;
  g.attempt();
  g.merge(f);
  CHECK(g.attempted() == 9 && g.failed() == 2);
  Outcome out;
  out.failures = f;
  out.add("latency_ms_p50", 1.5, "ms");
  const std::string json = result_json(out);
  CHECK(json.find("\"correct\": false") != std::string::npos);
  CHECK(json.find("\"failed\": 2") != std::string::npos);
  CHECK(json.find("\"latency_ms_p50\": {\"value\": 1.5, \"unit\": \"ms\"}") !=
        std::string::npos);
}

void test_inputs_are_pure_functions_of_the_seed() {
  const auto a = random_schedule(mix(7, Stream::EvalSchedule, 3), 6, 0.6, 0.9);
  const auto b = random_schedule(mix(7, Stream::EvalSchedule, 3), 6, 0.6, 0.9);
  const auto c = random_schedule(mix(8, Stream::EvalSchedule, 3), 6, 0.6, 0.9);
  CHECK(a.gammas == b.gammas && a.betas == b.betas);
  CHECK(a.gammas != c.gammas);
  CHECK(regular3_graph(7, 12).edges() == regular3_graph(7, 12).edges());
  CHECK(regular3_graph(7, 12).edges() != regular3_graph(8, 12).edges());
  CHECK(labs_check_indices(7, 2, 20, 16) == labs_check_indices(7, 2, 20, 16));
  CHECK(labs_check_indices(7, 2, 20, 16) != labs_check_indices(7, 3, 20, 16));
  const ServeSizes z;  // 8 hot problems, every 10th request cold
  const ServeItem s1 = serve_item(7, 19, z);
  const ServeItem s2 = serve_item(7, 19, z);
  CHECK(s1.cold && s2.cold && s1.cold_seed == s2.cold_seed);
  CHECK(s1.schedules.size() == 4 && s1.schedules[3].gammas == s2.schedules[3].gammas);
  CHECK(serve_item(7, 29, z).cold_seed != s1.cold_seed);
  const ServeItem hot = serve_item(7, 18, z);
  CHECK(!hot.cold && hot.hot == 2 && hot.set >= 0 && hot.set < z.pool);
  CHECK(hot.schedules[0].betas ==
        serve_hot_schedules(7, hot.hot, hot.set, z)[0].betas);
  CHECK(serve_item(8, 18, z).schedules[0].betas != hot.schedules[0].betas ||
        serve_item(8, 18, z).set != hot.set);
}

void test_labs_reference_energy() {
  // The benchmark's own energy agrees with the published optimum at n=7
  // (the Barker sequence, E = 3) and with brute force over all states.
  double best = 1e9;
  for (std::uint64_t x = 0; x < 128; ++x)
    best = std::min(best, labs_energy_reference(x, 7));
  CHECK(best == 3.0);
  CHECK(labs_energy_reference(0, 4) == 9.0 + 4.0 + 1.0);
}

void test_self_time() {
  using trace::Record;
  // Parent [0,100) with children [10,30) and [20,50) (overlapping) and a
  // grandchild inside the first child.
  const std::vector<Record> spans = {
      {"a.parent", 0, 100, 1, 0, 1, 1},
      {"b.child", 10, 30, 2, 1, 1, 1},
      {"b.child", 20, 50, 3, 1, 1, 1},
      {"c.grand", 12, 18, 4, 2, 1, 1},
  };
  const auto table = trace::self_times(spans);
  for (const auto& s : table) {
    if (s.name == "a.parent") CHECK(s.self_ns == 60 && s.total_ns == 100);
    if (s.name == "b.child") CHECK(s.self_ns == 14 + 30 && s.count == 2);
    if (s.name == "c.grand") CHECK(s.self_ns == 6);
  }
  CHECK(trace::module_self_ns(table, "b") == 44);
  CHECK(trace::chrome_json(spans).find("\"name\":\"c.grand\"") !=
        std::string::npos);
}

void test_layer_order() {
  std::vector<std::string> na;
  const auto out = in_layer_order({{"simd.rx_lo_ns_per_amp", 0.5, "ns/amp"}}, &na);
  CHECK(out.size() == layer_catalog().size());
  CHECK(na.size() == layer_catalog().size() - 1);
  bool threw = false;
  try {
    in_layer_order({{"no.such_metric", 1.0, "ms"}}, nullptr);
  } catch (const std::logic_error&) {
    threw = true;
  }
  CHECK(threw);
}

Config small(const std::string& workload) {
  Config c;
  c.workload = workload;
  c.seed = 3;
  c.seconds = 0.2;
  c.use_small_sizes();
  return c;
}

void test_small_workloads() {
  for (const std::string& w : workload_names()) {
    const RunStats run = run_workload(small(w));
    const Outcome out = end_to_end(run);
    CHECK(run.failures.attempted() > 0);
    CHECK(run.failures.failed() == 0);
    CHECK(out.metrics.size() == end_to_end_catalog().size());
    for (const Metric& m : out.metrics) CHECK(std::isfinite(m.value) && m.value > 0);
    if (run.failures.failed()) std::fprintf(stderr, "  workload %s\n", w.c_str());
  }
}

void test_mismatches_are_counted() {
  std::fprintf(stderr, "injecting mismatches: the FAILED lines below are expected\n");
  for (const std::string& w : workload_names()) {
    Config c = small(w);
    c.corrupt_every = 50;  // > checks per fresh-labs session
    const RunStats run = run_workload(c);
    CHECK(run.failures.failed() > 0);
    CHECK(run.failures.failed() < run.failures.attempted());
    if (run.failures.failed() == 0 || run.failures.failed() >= run.failures.attempted())
      std::fprintf(stderr, "  workload %s: %llu of %llu failed\n", w.c_str(),
                   static_cast<unsigned long long>(run.failures.failed()),
                   static_cast<unsigned long long>(run.failures.attempted()));
    CHECK(result_json(end_to_end(run)).find("\"correct\": false") !=
          std::string::npos);
  }
}

}  // namespace

int main() {
  test_percentile_rule();
  test_failure_counting();
  test_inputs_are_pure_functions_of_the_seed();
  test_labs_reference_energy();
  test_self_time();
  test_layer_order();
  test_small_workloads();
  test_mismatches_are_counted();
  if (g_failures) {
    std::fprintf(stderr, "perfbench_tests: %d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench_tests: all checks passed\n");
  return 0;
}
