// Observability subsystem (src/obs/): the disabled-is-free contract, span
// nesting and attributes, histogram bucket math, Exec-invariant counter
// totals, exporter round-trips (JSON / Prometheus / chrome-tracing), and
// the per-item batch timing attribution it rode in with.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "api/qokit.hpp"
#include "obs/obs.hpp"
#include "support/simd_levels.hpp"

namespace {

using namespace qokit;

/// Minimal recursive-descent JSON validator: enough grammar to certify
/// that every exporter emits a machine-parseable document (objects,
/// arrays, strings with escapes, numbers, literals).
class JsonValidator {
 public:
  explicit JsonValidator(std::string_view s) : s_(s) {}

  bool valid() {
    skip();
    if (!value()) return false;
    skip();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip();
    if (peek() == '}') return ++pos_, true;
    while (true) {
      skip();
      if (!string()) return false;
      skip();
      if (peek() != ':') return false;
      ++pos_;
      skip();
      if (!value()) return false;
      skip();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') return ++pos_, true;
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip();
    if (peek() == ']') return ++pos_, true;
    while (true) {
      skip();
      if (!value()) return false;
      skip();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') return ++pos_, true;
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        if (pos_ + 1 >= s_.size()) return false;
        ++pos_;
      }
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-'))
      ++pos_;
    return pos_ > start;
  }

  bool literal(std::string_view lit) {
    if (s_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

/// Prometheus text exposition checker: every line must be a `# TYPE`
/// comment or a `name[{labels}] value` sample with a numeric value.
bool valid_prometheus(const std::string& text) {
  if (text.empty()) return false;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) return false;  // must end with newline
    const std::string_view line(text.data() + pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) return false;
    if (line.substr(0, 7) == "# TYPE ") continue;
    if (line[0] == '#') return false;
    // name[{labels}] value
    std::size_t i = 0;
    auto name_char = [&](char c) {
      return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
             c == ':';
    };
    while (i < line.size() && name_char(line[i])) ++i;
    if (i == 0) return false;
    if (i < line.size() && line[i] == '{') {
      const std::size_t close = line.find('}', i);
      if (close == std::string_view::npos) return false;
      i = close + 1;
    }
    if (i >= line.size() || line[i] != ' ') return false;
    ++i;
    if (i >= line.size()) return false;
    for (; i < line.size(); ++i) {
      const char c = line[i];
      if (!(std::isdigit(static_cast<unsigned char>(c)) || c == '-' ||
            c == '+' || c == '.' || c == 'e' || c == 'E' || c == 'i' ||
            c == 'n' || c == 'f' || c == 'a'))  // inf / nan spellings
        return false;
    }
  }
  return true;
}

std::uint64_t counter_value(const obs::Snapshot& snap,
                            std::string_view name) {
  for (const auto& [n, v] : snap.counters)
    if (n == name) return v;
  ADD_FAILURE() << "counter not in snapshot: " << name;
  return 0;
}

const obs::HistogramSnapshot* find_histogram(const obs::Snapshot& snap,
                                             std::string_view name) {
  for (const auto& [n, h] : snap.histograms)
    if (n == name) return &h;
  return nullptr;
}

/// Trace documents emit one event per line; grab the line of the first
/// event with this exact name ("" when absent).
std::string event_line(const std::string& trace, const std::string& name) {
  const std::string needle = "\"name\":\"" + name + "\"";
  const std::size_t at = trace.find(needle);
  if (at == std::string::npos) return "";
  const std::size_t start = trace.rfind('\n', at) + 1;
  const std::size_t end = trace.find('\n', at);
  return trace.substr(start, end - start);
}

/// Every trace line of the events named `name`.
std::vector<std::string> event_lines(const std::string& trace,
                                     const std::string& name) {
  std::vector<std::string> lines;
  const std::string needle = "\"name\":\"" + name + "\"";
  for (std::size_t at = trace.find(needle); at != std::string::npos;
       at = trace.find(needle, at + 1)) {
    const std::size_t start = trace.rfind('\n', at) + 1;
    lines.push_back(trace.substr(start, trace.find('\n', at) - start));
  }
  return lines;
}

/// The number after `"key":` in one trace line.
double event_field(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = line.find(needle);
  return at == std::string::npos
             ? -1.0
             : std::stod(line.substr(at + needle.size()));
}

api::ProblemSession labs_session(const char* spec) {
  return api::ProblemSession::labs(10, SimulatorSpec::parse(spec));
}

/// One round of everything instrumented: a timed scalar evaluate with
/// overlap + sampling, then a mixed-depth batch.
void run_queries(const api::ProblemSession& s) {
  api::EvalRequest req;
  req.overlap = true;
  req.timings = true;
  req.shots = 8;
  s.evaluate(linear_ramp(3), req);
  const std::vector<QaoaParams> batch{linear_ramp(2), linear_ramp(3)};
  s.evaluate_batch(batch, req);
}

/// Restores the observability flag each test flips.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override { was_enabled_ = obs::enabled(); }
  void TearDown() override { obs::set_enabled(was_enabled_); }

 private:
  bool was_enabled_ = false;
};

TEST_F(ObsTest, SpecObsTokenParsesAndEnables) {
  EXPECT_TRUE(SimulatorSpec::parse("auto:obs=on").obs);
  EXPECT_FALSE(SimulatorSpec::parse("auto:obs=off").obs);
  EXPECT_FALSE(SimulatorSpec::parse("auto").obs);
  EXPECT_EQ(SimulatorSpec::parse("auto:obs=on").to_string(), "auto:obs=on");
  EXPECT_THROW(SimulatorSpec::parse("auto:obs=maybe"),
               std::invalid_argument);

  obs::set_enabled(false);
  const api::ProblemSession s = labs_session("auto:obs=on");
  EXPECT_TRUE(obs::enabled());
  // The default spec never turns an enabled process back off.
  const api::ProblemSession plain = labs_session("auto");
  EXPECT_TRUE(obs::enabled());
}

TEST_F(ObsTest, DisabledIsFreeAfterWarmup) {
  // Warm pass with observability on: registers every metric on these code
  // paths and creates the thread shards, the only obs-internal heap
  // activity there is.
  obs::set_enabled(true);
  const api::ProblemSession warm = labs_session("auto");
  run_queries(warm);

  obs::set_enabled(false);
  const std::uint64_t allocs = obs::detail::allocation_count();
  const std::uint64_t events = obs::trace_event_count();
  const obs::Snapshot before = obs::snapshot();

  // Same workload, plus a fresh session (construction paths included):
  // with observability off nothing may allocate, count, or trace.
  run_queries(warm);
  const api::ProblemSession cold = labs_session("auto");
  run_queries(cold);

  const obs::Snapshot after = obs::snapshot();
  EXPECT_EQ(obs::detail::allocation_count(), allocs);
  EXPECT_EQ(obs::trace_event_count(), events);
  EXPECT_EQ(before.counters, after.counters);
}

TEST_F(ObsTest, SpanNestingAndAttributes) {
  obs::set_enabled(true);
  obs::reset();
  const api::ProblemSession s = labs_session("serial");
  api::EvalRequest req;
  req.timings = true;
  s.evaluate(linear_ramp(3), req);

  const std::string trace = obs::trace_json();
  EXPECT_TRUE(JsonValidator(trace).valid()) << trace.substr(0, 400);

  // Nesting depths recorded at open: evaluate (0) > evaluate_batch (1,
  // the one evolve-and-score step) > simulate_expectation (2; "simulate"
  // where the backend reduces in a second pass) > layer (3); reduce
  // opens at depth 2, after the evolution.
  const std::string evaluate = event_line(trace, "evaluate");
  ASSERT_FALSE(evaluate.empty());
  EXPECT_NE(evaluate.find("\"depth\":0"), std::string::npos) << evaluate;
  EXPECT_NE(evaluate.find("\"n\":10"), std::string::npos) << evaluate;
  EXPECT_NE(evaluate.find("\"p\":3"), std::string::npos) << evaluate;
  EXPECT_NE(evaluate.find("\"backend\":\"serial\""), std::string::npos)
      << evaluate;

  const std::string batch = event_line(trace, "evaluate_batch");
  ASSERT_FALSE(batch.empty());
  EXPECT_NE(batch.find("\"depth\":1"), std::string::npos) << batch;

  std::string simulate = event_line(trace, "simulate_expectation");
  if (simulate.empty()) simulate = event_line(trace, "simulate");
  ASSERT_FALSE(simulate.empty());
  EXPECT_NE(simulate.find("\"depth\":2"), std::string::npos) << simulate;

  const std::string layer = event_line(trace, "layer");
  ASSERT_FALSE(layer.empty());
  EXPECT_NE(layer.find("\"depth\":3"), std::string::npos) << layer;

  const std::string reduce = event_line(trace, "reduce");
  ASSERT_FALSE(reduce.empty());
  EXPECT_NE(reduce.find("\"depth\":2"), std::string::npos) << reduce;

  // The precompute span from construction is there too, at top level.
  const std::string precompute = event_line(trace, "precompute");
  ASSERT_FALSE(precompute.empty());
  EXPECT_NE(precompute.find("\"depth\":0"), std::string::npos)
      << precompute;
}

TEST_F(ObsTest, DistLayerSpansNestUnderSimulate) {
  // dist opens its `layer` spans on rank 0's thread; they must still be
  // children of the caller's `simulate` span: same thread id, one level
  // deeper, inside its time range.
  obs::set_enabled(true);
  const api::ProblemSession s = labs_session("dist:2");
  obs::reset();
  s.evaluate(linear_ramp(3));
  const std::string trace = obs::trace_json();
  EXPECT_TRUE(JsonValidator(trace).valid());
  const std::vector<std::string> sims = event_lines(trace, "simulate");
  ASSERT_EQ(sims.size(), 1u) << trace.substr(0, 400);
  const std::string& sim = sims.front();
  const double tid = event_field(sim, "tid");
  const double depth = event_field(sim, "depth");
  const double ts = event_field(sim, "ts");
  const double end = ts + event_field(sim, "dur");
  EXPECT_EQ(depth, 2.0) << sim;  // evaluate > evaluate_batch > simulate
  const std::vector<std::string> layers = event_lines(trace, "layer");
  ASSERT_EQ(layers.size(), 3u);
  for (const std::string& layer : layers) {
    EXPECT_EQ(event_field(layer, "tid"), tid) << layer;
    EXPECT_EQ(event_field(layer, "depth"), depth + 1) << layer;
    EXPECT_GE(event_field(layer, "ts"), ts) << layer;
    EXPECT_LE(event_field(layer, "ts") + event_field(layer, "dur"),
              end + 0.002)
        << layer;
  }
  // Rank 0's spans inside a layer follow it under the caller's thread.
  for (const std::string& pass : event_lines(trace, "pipeline_layer")) {
    if (event_field(pass, "tid") == tid) {
      EXPECT_EQ(event_field(pass, "depth"), depth + 2) << pass;
    }
  }
}

TEST_F(ObsTest, HistogramBucketMath) {
  obs::set_enabled(true);
  obs::reset();
  const obs::Histogram h =
      obs::histogram("qokit_test_bucket_math", {10, 100, 1000});
  h.record(5);
  h.record(10);  // boundary lands in its own bucket (v <= bound)
  h.record(11);
  h.record(1000);
  h.record(5000);  // overflow

  const obs::Snapshot snap = obs::snapshot();
  const obs::HistogramSnapshot* hs =
      find_histogram(snap, "qokit_test_bucket_math");
  ASSERT_NE(hs, nullptr);
  ASSERT_EQ(hs->bounds, (std::vector<std::uint64_t>{10, 100, 1000}));
  EXPECT_EQ(hs->buckets, (std::vector<std::uint64_t>{2, 1, 1, 1}));
  EXPECT_EQ(hs->count, 5u);
  EXPECT_EQ(hs->sum, 6026u);

  // Prometheus renders the same data cumulatively.
  const std::string prom = snap.to_prometheus();
  EXPECT_NE(prom.find("qokit_test_bucket_math_bucket{le=\"10\"} 2\n"),
            std::string::npos);
  EXPECT_NE(prom.find("qokit_test_bucket_math_bucket{le=\"100\"} 3\n"),
            std::string::npos);
  EXPECT_NE(prom.find("qokit_test_bucket_math_bucket{le=\"1000\"} 4\n"),
            std::string::npos);
  EXPECT_NE(prom.find("qokit_test_bucket_math_bucket{le=\"+Inf\"} 5\n"),
            std::string::npos);
  EXPECT_NE(prom.find("qokit_test_bucket_math_sum 6026\n"),
            std::string::npos);
  EXPECT_NE(prom.find("qokit_test_bucket_math_count 5\n"),
            std::string::npos);

  EXPECT_THROW(obs::histogram("qokit_bad_bounds", {}),
               std::invalid_argument);
  EXPECT_THROW(obs::histogram("qokit_bad_bounds", {100, 10}),
               std::invalid_argument);
}

TEST_F(ObsTest, CounterTotalsExecInvariant) {
  // Counters are incremented at dispatch entry, never per block or
  // per thread, so the same workload must produce identical totals
  // whatever the execution policy.
  obs::set_enabled(true);
  const auto workload = [](const char* spec) {
    obs::reset();
    const api::ProblemSession s = labs_session(spec);
    run_queries(s);
    return obs::snapshot();
  };
  const obs::Snapshot serial = workload("serial");
  const obs::Snapshot threaded = workload("threaded");
  EXPECT_EQ(serial.counters, threaded.counters);
  EXPECT_GT(counter_value(serial, "qokit_evaluates_total"), 0u);
  EXPECT_GT(counter_value(serial, "qokit_sampler_draws_total"), 0u);
  EXPECT_GT(counter_value(serial, "qokit_batch_schedules_total"), 0u);
}

TEST_F(ObsTest, ExportsParseBackUnderDist) {
  obs::set_enabled(true);
  obs::reset();
  const api::ProblemSession s = labs_session("dist:2");
  api::EvalRequest req;
  req.timings = true;
  req.shots = 4;
  s.evaluate(linear_ramp(2), req);

  const obs::Snapshot snap = s.metrics();
  const std::uint64_t calls =
      counter_value(snap, "qokit_alltoall_calls_total");
  EXPECT_GT(calls, 0u);
  EXPECT_GT(counter_value(snap, "qokit_alltoall_bytes_total"), 0u);
  // One pairwise swap round per peer: K - 1 = 1 per call at K = 2.
  EXPECT_EQ(counter_value(snap, "qokit_alltoall_rounds_total"), calls);

  const std::string json = snap.to_json();
  EXPECT_TRUE(JsonValidator(json).valid()) << json.substr(0, 400);
  EXPECT_NE(json.find("\"qokit_alltoall_calls_total\""), std::string::npos);
  EXPECT_NE(json.find("\"qokit_alltoall_wait_ns\""), std::string::npos);

  EXPECT_TRUE(valid_prometheus(snap.to_prometheus()));

  // The trace covers construction (precompute), the evaluate, and the
  // rank threads' alltoall spans (merged in at rank-thread exit).
  const std::string trace = obs::trace_json();
  EXPECT_TRUE(JsonValidator(trace).valid()) << trace.substr(0, 400);
  EXPECT_FALSE(event_line(trace, "precompute").empty());
  EXPECT_FALSE(event_line(trace, "simulate").empty());
  const std::string alltoall = event_line(trace, "alltoall");
  ASSERT_FALSE(alltoall.empty());
  EXPECT_EQ(alltoall.find("\"transport\""), std::string::npos) << alltoall;
  EXPECT_NE(alltoall.find("\"bytes\":"), std::string::npos) << alltoall;
  EXPECT_NE(alltoall.find("\"ranks\":2"), std::string::npos) << alltoall;
}

TEST_F(ObsTest, BatchTimingsArePerItem) {
  const api::ProblemSession s = labs_session("auto");
  const std::vector<QaoaParams> batch{linear_ramp(1), linear_ramp(4),
                                      linear_ramp(2)};
  api::EvalRequest req;
  req.timings = true;
  const std::vector<api::EvalResult> rs = s.evaluate_batch(batch, req);
  ASSERT_EQ(rs.size(), batch.size());
  for (const api::EvalResult& r : rs) {
    ASSERT_TRUE(r.timings.has_value());
    EXPECT_EQ(r.timings->precompute_ns, s.precompute_ns());
    // This item's own evolution time, nested inside the whole call.
    EXPECT_GT(r.timings->simulate_ns, 0u);
    EXPECT_GT(r.timings->batch_ns, 0u);
    EXPECT_LE(r.timings->simulate_ns, r.timings->batch_ns);
    EXPECT_LE(r.timings->reduce_ns, r.timings->batch_ns);
  }
  // One shared submission: every item reports the same whole-call time,
  // but per-item attribution must not just repeat the aggregate.
  EXPECT_EQ(rs[0].timings->batch_ns, rs[1].timings->batch_ns);
  EXPECT_NE(rs[1].timings->simulate_ns, rs[1].timings->batch_ns);

  // Scalar evaluate is a batch of one: its batch_ns is the whole call.
  // Per-layer time comes from obs, on the same untimed code path: one
  // qokit_layer_ns sample per layer, one qokit_reduce_ns per schedule.
  obs::set_enabled(true);
  obs::reset();
  api::EvalRequest scalar_req;
  scalar_req.timings = true;
  const api::EvalResult scalar = s.evaluate(linear_ramp(2), scalar_req);
  ASSERT_TRUE(scalar.timings.has_value());
  EXPECT_GT(scalar.timings->batch_ns, 0u);
  EXPECT_LE(scalar.timings->simulate_ns, scalar.timings->batch_ns);
  const obs::Snapshot snap = obs::snapshot();
  const obs::HistogramSnapshot* layers =
      find_histogram(snap, "qokit_layer_ns");
  ASSERT_NE(layers, nullptr);
  EXPECT_EQ(layers->count, 2u);
  const obs::HistogramSnapshot* reduces =
      find_histogram(snap, "qokit_reduce_ns");
  ASSERT_NE(reduces, nullptr);
  EXPECT_EQ(reduces->count, 1u);
  // dist (from rank 0) and gatesim (one circuit per layer) open the same
  // per-layer span.
  for (const char* spec : {"dist:2", "gatesim"}) {
    SCOPED_TRACE(spec);
    const api::ProblemSession other = labs_session(spec);
    obs::reset();
    other.evaluate(linear_ramp(3));
    const obs::Snapshot other_snap = obs::snapshot();
    const obs::HistogramSnapshot* other_layers =
        find_histogram(other_snap, "qokit_layer_ns");
    ASSERT_NE(other_layers, nullptr);
    EXPECT_EQ(other_layers->count, 3u);
  }

  // The engine-level switch: timing vectors only materialize on request.
  BatchOptions opts;
  const BatchResult plain = s.batch().evaluate(batch, opts);
  EXPECT_TRUE(plain.simulate_ns.empty());
  EXPECT_TRUE(plain.reduce_ns.empty());
  opts.record_timings = true;
  const BatchResult timed = s.batch().evaluate(batch, opts);
  EXPECT_EQ(timed.simulate_ns.size(), batch.size());
  EXPECT_EQ(timed.reduce_ns.size(), batch.size());
}

TEST_F(ObsTest, KernelCallsCountAgainstTheActiveLevel) {
  // One dispatch counter per level; the qokit_simd_level gauge holds the
  // level's value (0 scalar, 1 avx2, 2 avx512).
  qokit::testing::SimdLevelGuard guard;
  obs::set_enabled(true);
  const StateVector sv = StateVector::plus_state(6);
  for (const SimdLevel level : qokit::testing::supported_simd_levels()) {
    SCOPED_TRACE(simd_level_name(level));
    force_simd_level(level);
    obs::reset();
    sv.norm_squared(Exec::Serial);
    const obs::Snapshot snap = obs::snapshot();
    for (const SimdLevel other :
         {SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512})
      EXPECT_EQ(counter_value(snap, std::string("qokit_kernel_calls_") +
                                        simd_level_name(other) + "_total"),
                other == level ? 1u : 0u);
    double gauge = -1.0;
    for (const auto& [name, value] : snap.gauges)
      if (name == "qokit_simd_level") gauge = value;
    EXPECT_EQ(gauge, static_cast<double>(level));
  }
}

TEST_F(ObsTest, TimingsAndObsNeverChangeResults) {
  // The measured path is the production path: asking for timings or
  // turning observability on only reads clocks and records events, so
  // evaluate() and a batch of one return the same bits in every mode.
  const QaoaParams q = linear_ramp(3);
  const std::vector<QaoaParams> one{q};
  for (const char* name :
       {"auto:prec=f64", "serial:prec=f64", "u16:prec=f64", "fwht:prec=f64",
        "gatesim", "dist:2:prec=f64", "auto:prec=f32", "serial:prec=f32",
        "u16:prec=f32", "fwht:prec=f32", "dist:2:prec=f32"}) {
    SCOPED_TRACE(name);
    obs::set_enabled(false);
    // n = 11 is wide enough for the fused final-pass expectation.
    const api::ProblemSession s =
        api::ProblemSession::sk(11, 3, SimulatorSpec::parse(name));
    api::EvalRequest req;
    req.overlap = true;
    req.shots = 16;
    const api::EvalResult ref = s.evaluate_batch(one, req).front();
    for (const bool timings : {false, true}) {
      for (const bool observed : {false, true}) {
        SCOPED_TRACE(std::string("timings=") + (timings ? "on" : "off") +
                     " obs=" + (observed ? "on" : "off"));
        obs::set_enabled(observed);
        req.timings = timings;
        const api::EvalResult scalar = s.evaluate(q, req);
        const api::EvalResult batched = s.evaluate_batch(one, req).front();
        for (const api::EvalResult* r : {&scalar, &batched}) {
          EXPECT_EQ(r->expectation, ref.expectation);
          EXPECT_EQ(r->overlap, ref.overlap);
          EXPECT_EQ(r->samples, ref.samples);
          EXPECT_EQ(r->timings.has_value(), timings);
        }
      }
    }
  }
}

TEST_F(ObsTest, HalfSpaceDecisionIsTracedAndObsNeverChangesIt) {
  // The simulate spans say which space ran; turning observability on or
  // off never changes the choice or the bits.
  const QaoaParams q = linear_ramp(3);
  double expectation[2] = {0.0, 0.0};
  for (const bool observed : {false, true}) {
    obs::set_enabled(observed);
    const api::ProblemSession s = api::ProblemSession::labs(
        13, SimulatorSpec::parse("auto:pipeline=on"));
    EXPECT_TRUE(s.simulator().half_space()) << observed;
    expectation[observed] = s.evaluate(q).expectation.value();
  }
  EXPECT_EQ(expectation[0], expectation[1]);

  // n = 13 takes the half space; n = 11 is below kMinHalfQubits and runs
  // the full fused path.
  for (const int n : {13, 11}) {
    obs::set_enabled(true);
    obs::reset();
    const api::ProblemSession s = api::ProblemSession::labs(
        n, SimulatorSpec::parse("auto:pipeline=on"));
    EXPECT_EQ(s.simulator().half_space(), n == 13);
    s.evaluate(q);
    api::EvalRequest evolve_only;  // simulate without the fused reduction
    evolve_only.expectation = false;
    evolve_only.overlap = true;
    s.evaluate(q, evolve_only);
    const std::string trace = obs::trace_json();
    const char* half = s.simulator().half_space() ? "\"half\":1"
                                                  : "\"half\":0";
    EXPECT_NE(event_line(trace, "simulate_expectation").find(half),
              std::string::npos)
        << n;
    EXPECT_NE(event_line(trace, "simulate").find(half), std::string::npos)
        << n;
  }
}

TEST_F(ObsTest, GaugeAndResetSemantics) {
  obs::set_enabled(true);
  const obs::Gauge g = obs::gauge("qokit_test_gauge");
  g.set(2.5);
  EXPECT_EQ(g.value(), 2.5);
  g.set(-1.0);
  EXPECT_EQ(g.value(), -1.0);

  const obs::Counter c = obs::counter("qokit_test_reset_counter");
  c.add(7);
  EXPECT_GE(c.value(), 7u);
  obs::reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0.0);
  EXPECT_EQ(obs::trace_event_count(), 0u);

  // Re-registration by name returns the same metric; a kind clash throws.
  c.add(1);
  EXPECT_EQ(obs::counter("qokit_test_reset_counter").value(), 1u);
  EXPECT_THROW(obs::gauge("qokit_test_reset_counter"), std::logic_error);
}

}  // namespace
