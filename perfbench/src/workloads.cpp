#include "workloads.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <map>
#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "api/session.hpp"
#include "common/cpu_features.hpp"
#include "common/parallel.hpp"
#include "fur/simulator.hpp"
#include "inputs.hpp"
#include "obs/obs.hpp"
#include "problems/labs.hpp"
#include "problems/maxcut.hpp"
#include "problems/sk.hpp"
#include "serve/server.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using qokit::QaoaParams;
using qokit::TermList;
using qokit::api::ProblemSession;

double seconds_between(std::uint64_t t0, std::uint64_t t1) {
  return static_cast<double>(t1 - t0) * 1e-9;
}

std::uint64_t precomputes_total() {
  static const qokit::obs::Counter c =
      qokit::obs::counter("qokit_precomputes_total");
  return c.value();
}

/// Build a session inside an "api.session_build" span. The diagonal
/// precompute happens inside the constructor, so its span is derived from
/// ProblemSession::precompute_ns(), the constructor's own timing of the
/// simulator build (diagonal precompute plus layer plan).
ProblemSession build_session(const TermList& terms,
                             const qokit::SimulatorSpec& spec = {}) {
  const trace::Span span("api.session_build");
  const std::uint64_t t0 = trace::now_ns();
  ProblemSession session(terms, spec);
  trace::add_child("diagonal.precompute", t0, t0 + session.precompute_ns());
  return session;
}

double evaluate(const ProblemSession& session, const QaoaParams& q) {
  const trace::Span span("api.evaluate");
  return session.evaluate(q).expectation.value();
}

/// Compares outputs with their oracles. A caller counts one failure per
/// operation whose outputs disagree, however many of them do.
class Checker {
 public:
  explicit Checker(const Config& config)
      : corrupt_every_(config.corrupt_every) {}

  /// |got - want| <= rel * max(1, |want|); otherwise describes the
  /// mismatch in *why.
  bool close(double got, double want, double rel, std::string* why) {
    if (corrupt_now()) got += 1.0;
    if (std::abs(got - want) <= rel * std::max(1.0, std::abs(want)))
      return true;
    *why = "got " + std::to_string(got) + ", oracle " + std::to_string(want);
    return false;
  }

  /// Bitwise-equal vectors.
  bool equal(std::vector<double> got, const std::vector<double>& want) {
    if (corrupt_now() && !got.empty()) got.front() += 1.0;
    return got == want;
  }

 private:
  bool corrupt_now() {  // checks 1, 1 + k, 1 + 2k, ...
    return corrupt_every_ > 0 && checks_++ % corrupt_every_ == 0;
  }

  int corrupt_every_;
  std::uint64_t checks_ = 0;
};

/// "prec=f64 simd=avx2 threads=4 exec=parallel plan=fused sweeps=2
/// geometry=16/6/10" for a built session.
std::string describe(const ProblemSession& session) {
  std::string out = "n=" + std::to_string(session.num_qubits());
  out += " prec=";
  out += session.simulator().precision() == qokit::Precision::F32 ? "f32"
                                                                  : "f64";
  out += " simd=";
  out += qokit::simd_level_name(qokit::active_simd_level());
  out += " threads=" + std::to_string(qokit::max_threads());
  const auto* fur =
      dynamic_cast<const qokit::FurQaoaSimulator*>(&session.simulator());
  if (!fur) return out + " backend=non-fur";
  out += " exec=";
  out += fur->config().exec == qokit::Exec::Serial ? "serial" : "parallel";
  const qokit::pipeline::LayerPlan& plan = fur->layer_plan();
  if (!plan.active()) return out + " plan=unfused(" + plan.fallback_reason() + ")";
  const qokit::pipeline::Geometry g = plan.options().geometry;
  out += " plan=fused sweeps=" + std::to_string(plan.full_sweeps());
  out += " geometry=" + std::to_string(g.tile_log2) + "/" +
         std::to_string(g.group_qubits) + "/" + std::to_string(g.chunk_log2);
  return out;
}

bool before(std::uint64_t deadline) { return trace::now_ns() < deadline; }

std::uint64_t deadline_after(double seconds) {
  return trace::now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
}

}  // namespace

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // KiB -> MB
}

void Config::use_small_sizes() {
  maxcut.n = 10;
  maxcut.setups_per_round = 1;
  maxcut.budget = 30;
  maxcut.evals_per_round = 10;
  maxcut.min_evals = 20;
  maxcut.min_rounds = 2;
  maxcut.check_every = 2;
  labs.n = 10;
  labs.min_sessions = 20;
  labs.check_indices = 16;
  serve.n = 8;
  serve.hot = 4;
  serve.clients = 2;
  serve.workers = 2;
  serve.setups = 2;
  serve.min_requests = 40;
}

// ------------------------------------------------------------ optimize-maxcut

RunStats run_optimize_maxcut(const Config& config) {
  const MaxcutSizes& z = config.maxcut;
  RunStats st;
  st.min_ops = static_cast<std::size_t>(z.min_evals);
  Checker check(config);
  const std::uint64_t precomputes0 = precomputes_total();

  const qokit::Graph graph = regular3_graph(config.seed, z.n);
  const ProblemSession oracle(qokit::maxcut_terms(graph),
                              qokit::SimulatorSpec::parse("serial:pipeline=off"));
  ++st.expected_precomputes;
  struct Pending {
    QaoaParams q;
    double value;
  };
  std::vector<Pending> pending;

  // Set-up: a fresh session on the graph and its first expectation. The
  // first one serves the measured loop; each round builds setups_per_round
  // more, so the set-up samples spread over the whole run.
  std::uint64_t setups = 0;
  const auto fresh_session = [&] {
    const QaoaParams q = random_schedule(
        mix(config.seed, Stream::SetupSchedule, setups++), z.p, 0.6, 0.9);
    st.failures.attempt();
    const std::uint64_t t0 = trace::now_ns();
    TermList terms;
    {
      const trace::Span span("problems.terms");
      terms = qokit::maxcut_terms(graph);
    }
    ProblemSession fresh = build_session(terms);
    const std::uint64_t t1 = trace::now_ns();
    const double e = evaluate(fresh, q);
    const std::uint64_t t2 = trace::now_ns();
    ++st.expected_precomputes;
    st.setup_s.push_back(seconds_between(t0, t1));
    st.first_eval_s.push_back(seconds_between(t0, t2));
    pending.push_back({q, e});
    return fresh;
  };
  const ProblemSession session = fresh_session();
  st.spec = session.spec().to_string();
  st.resolved = describe(session);

  // Measured loop: rounds of one fixed-budget optimize, a block of
  // evaluate calls, and setups_per_round fresh sessions.
  std::vector<double> opt_s;
  std::uint64_t evals = 0;
  int rounds = 0;
  const std::uint64_t start = trace::now_ns();
  const std::uint64_t deadline = deadline_after(config.seconds);
  while (rounds < z.min_rounds || evals < static_cast<std::uint64_t>(z.min_evals) ||
         before(deadline)) {
    qokit::api::OptimizerSpec opt;
    opt.p = z.p;
    opt.initial = qokit::linear_ramp(z.p);
    Prng jitter(mix(config.seed, Stream::OptimizeStart, rounds));
    for (double& g : opt.initial.gammas) g += jitter.uniform(-0.05, 0.05);
    for (double& b : opt.initial.betas) b += jitter.uniform(-0.05, 0.05);
    opt.nelder_mead.max_evals = z.budget;
    opt.nelder_mead.xtol = 0.0;  // never converge early: fixed budget
    opt.nelder_mead.ftol = 0.0;
    st.failures.attempt();
    const std::uint64_t t0 = trace::now_ns();
    qokit::api::EvalResult r;
    {
      const trace::Span span("optimize.run");
      r = session.optimize(opt);
    }
    const double secs = seconds_between(t0, trace::now_ns());
    opt_s.push_back(secs);
    st.rates.push_back(static_cast<double>(r.evaluations.value()) / secs);
    pending.push_back({r.params.value(), r.expectation.value()});
    if (rounds == 0) {
      st.layer.push_back({"optimize.evaluations",
                          static_cast<double>(r.evaluations.value()), "count"});
      st.layer.push_back(
          {"optimize.batches", static_cast<double>(r.batches.value()), "count"});
      st.layer.push_back({"optimize.iterations",
                          static_cast<double>(r.iterations.value()), "count"});
      st.layer.push_back(
          {"optimize.final_value", r.expectation.value(), "cost"});
    }
    for (int j = 0; j < z.evals_per_round; ++j, ++evals) {
      const QaoaParams q = random_schedule(
          mix(config.seed, Stream::EvalSchedule, evals), z.p, 0.6, 0.9);
      st.failures.attempt();
      const std::uint64_t e0 = trace::now_ns();
      const double e = evaluate(session, q);
      st.latency_ms.push_back(static_cast<double>(trace::now_ns() - e0) * 1e-6);
      if (evals % static_cast<std::uint64_t>(z.check_every) == 0)
        pending.push_back({q, e});
    }
    for (int j = 0; j < z.setups_per_round; ++j) fresh_session();
    ++rounds;
  }
  st.loop_s = seconds_between(start, trace::now_ns());
  st.peak_rss_mb = peak_rss_mb();
  st.ops = evals + static_cast<std::uint64_t>(rounds);
  st.precomputes = precomputes_total() - precomputes0;

  {
    const trace::Span span("check.oracle");
    std::string why;
    for (const Pending& c : pending)
      if (!check.close(c.value, oracle.evaluate(c.q).expectation.value(),
                       1e-10, &why))
        st.failures.fail("optimize-maxcut: expectation vs "
                         "serial:pipeline=off: " + why);
  }
  st.extra.push_back({"opt_s", median(opt_s), "s"});
  st.extra.push_back({"optimize_runs", static_cast<double>(rounds), "count"});
  st.extra.push_back({"evaluate_calls", static_cast<double>(evals), "count"});
  st.extra.push_back(
      {"oracle_checks", static_cast<double>(pending.size()), "count"});
  return st;
}

// ---------------------------------------------------------------- fresh-labs

RunStats run_fresh_labs(const Config& config) {
  const LabsSizes& z = config.labs;
  RunStats st;
  st.min_ops = static_cast<std::size_t>(z.min_sessions);
  Checker check(config);
  const std::uint64_t precomputes0 = precomputes_total();

  double lifecycle_s = 0.0;
  std::uint64_t i = 0;
  const std::uint64_t start = trace::now_ns();
  const std::uint64_t deadline = deadline_after(config.seconds);
  for (; i < static_cast<std::uint64_t>(z.min_sessions) || before(deadline);
       ++i) {
    const QaoaParams q =
        random_schedule(mix(config.seed, Stream::LabsSchedule, i), z.p, 0.1, 0.9);
    const trace::Span fresh("api.fresh_problem", i + 1);
    st.failures.attempt();
    const std::uint64_t t0 = trace::now_ns();
    TermList terms;
    {
      const trace::Span span("problems.terms");
      terms = qokit::labs_terms(z.n);
    }
    std::optional<ProblemSession> session(build_session(terms));
    const std::uint64_t t1 = trace::now_ns();
    const double e = evaluate(*session, q);
    const std::uint64_t t2 = trace::now_ns();
    ++st.expected_precomputes;
    {
      const trace::Span span("check.labs_energy");
      const qokit::CostDiagonal& diag = session->cost_diagonal();
      std::string why;
      bool ok = std::isfinite(e) && e >= 0.0;
      if (!ok) why = "expectation " + std::to_string(e);
      for (std::uint64_t x :
           labs_check_indices(config.seed, i, z.n, z.check_indices))
        if (!check.close(diag[x], labs_energy_reference(x, z.n), 1e-12, &why)) {
          ok = false;
          why = "diagonal[" + std::to_string(x) + "] " + why +
                " (autocorrelation energy)";
        }
      if (!ok) st.failures.fail("fresh-labs: session " + std::to_string(i) +
                                ": " + why);
    }
    const std::uint64_t t3 = trace::now_ns();
    {
      const trace::Span span("api.session_destroy");
      session.reset();
    }
    const std::uint64_t t4 = trace::now_ns();
    st.setup_s.push_back(seconds_between(t0, t1));
    st.first_eval_s.push_back(seconds_between(t0, t2));
    st.latency_ms.push_back(static_cast<double>(t2 - t1) * 1e-6);
    lifecycle_s += seconds_between(t0, t2) + seconds_between(t3, t4);
  }
  st.loop_s = seconds_between(start, trace::now_ns());
  st.peak_rss_mb = peak_rss_mb();
  st.ops = i;
  st.rates.push_back(static_cast<double>(i) / lifecycle_s);
  st.precomputes = precomputes_total() - precomputes0;
  {
    const ProblemSession probe(qokit::labs_terms(z.n));
    st.spec = probe.spec().to_string();
    st.resolved = describe(probe);
  }
  st.extra.push_back({"sessions", static_cast<double>(i), "count"});
  return st;
}

// --------------------------------------------------------------- serve-mixed

namespace {

struct ServeRecord {
  std::uint64_t k = 0;
  bool cold = false;
  qokit::serve::Status status = qokit::serve::Status::InternalError;
  bool hit = false;
  double latency_ms = 0.0;
  std::uint64_t end_ns = 0;  ///< completion time on the trace clock
  std::uint64_t queue_ns = 0;
  std::uint64_t eval_ns = 0;
  std::vector<double> expectations;
  std::string error;
};

std::string socket_path(const std::string& work_dir) {
  const std::string name = "perfbench-" + std::to_string(::getpid()) + ".sock";
  const std::string in_dir = work_dir + "/" + name;
  // sockaddr_un holds 108 bytes; fall back to the working directory.
  return in_dir.size() < 100 ? in_dir : name;
}

/// One request round trip inside a "serve.request" span, with the
/// server-reported queue and eval intervals as derived children.
ServeRecord round_trip(qokit::serve::Client& client,
                       const qokit::serve::Request& request, std::uint64_t k,
                       bool cold) {
  const trace::Span span("serve.request", k + 1);
  ServeRecord rec;
  rec.k = k;
  rec.cold = cold;
  const std::uint64_t t0 = trace::now_ns();
  try {
    qokit::serve::Response r = client.call(request);
    rec.status = r.status;
    rec.hit = r.cache_hit;
    rec.queue_ns = r.queue_ns;
    rec.eval_ns = r.eval_ns;
    rec.expectations = std::move(r.expectations);
    rec.error = std::move(r.error);
  } catch (const std::exception& e) {
    rec.error = e.what();
  }
  const std::uint64_t t1 = trace::now_ns();
  rec.latency_ms = static_cast<double>(t1 - t0) * 1e-6;
  rec.end_ns = t1;
  const std::uint64_t server = rec.queue_ns + rec.eval_ns;
  const std::uint64_t wire = t1 - t0 > server ? t1 - t0 - server : 0;
  const std::uint64_t q0 = t0 + wire / 2;
  trace::add_child("serve.queue", q0, q0 + rec.queue_ns);
  trace::add_child("serve.eval", q0 + rec.queue_ns, q0 + server);
  return rec;
}

}  // namespace

RunStats run_serve_mixed(const Config& config) {
  const ServeSizes& z = config.serve;
  RunStats st;
  st.min_ops = static_cast<std::size_t>(z.min_requests);
  Checker check(config);

  // Untimed preparation: the hot problems, a direct session per hot
  // problem (the oracle), and the cache budget.
  std::vector<TermList> hot_terms;
  std::vector<ProblemSession> oracles;
  std::uint64_t budget = 0;
  for (int h = 0; h < z.hot; ++h) {
    hot_terms.push_back(qokit::maxcut_terms(regular3_graph(config.seed, z.n, h)));
    oracles.emplace_back(hot_terms.back());
    budget += qokit::serve::session_footprint_bytes(oracles.back());
  }
  {
    const ProblemSession cold(qokit::sk_terms(z.n, 1));
    budget += static_cast<std::uint64_t>(z.cold_slots) *
              qokit::serve::session_footprint_bytes(cold);
  }
  st.spec = oracles.front().spec().to_string();
  st.resolved = describe(oracles.front());

  qokit::serve::ServerConfig server_config;
  server_config.workers = z.workers;
  server_config.cache_bytes = budget;
  server_config.listen_path = socket_path(config.work_dir);

  // Direct-session expectations per (hot problem, schedule set), computed
  // once each.
  std::map<std::pair<int, int>, std::vector<double>> hot_oracle;
  const auto check_hot = [&](const ServeRecord& rec, int h, int set) {
    if (rec.status != qokit::serve::Status::Ok) {
      st.failures.fail("serve-mixed: status " +
                       std::string(qokit::serve::to_string(rec.status)) +
                       " " + rec.error);
      return;
    }
    std::vector<double>& want = hot_oracle[{h, set}];
    if (want.empty())
      for (const auto& r : oracles[h].evaluate_batch(
               serve_hot_schedules(config.seed, h, set, z)))
        want.push_back(r.expectation.value());
    if (!check.equal(rec.expectations, want))
      st.failures.fail("serve-mixed: hot request " + std::to_string(rec.k) +
                       " differs from a direct session evaluation");
  };

  // Set-up: start the server, connect the clients, warm the hot set (one
  // request per hot problem, spread over the clients). Sampled before and
  // after the load so the samples spread over the run; the last server
  // started before the load carries it.
  std::unique_ptr<qokit::serve::ScheduleServer> server;
  std::vector<qokit::serve::Client> clients;
  const auto start_and_warm = [&] {
    clients.clear();
    server.reset();
    const trace::Span span("serve.setup");
    const std::uint64_t t0 = trace::now_ns();
    server = std::make_unique<qokit::serve::ScheduleServer>(server_config);
    for (int c = 0; c < z.clients; ++c)
      clients.emplace_back(server_config.listen_path);
    std::vector<std::vector<ServeRecord>> warm(z.clients);
    std::vector<std::thread> threads;
    for (int c = 0; c < z.clients; ++c)
      threads.emplace_back([&, c] {
        for (int h = c; h < z.hot; h += z.clients) {
          qokit::serve::Request request;
          request.terms = hot_terms[h];
          request.schedules = serve_hot_schedules(config.seed, h, 0, z);
          warm[c].push_back(round_trip(clients[c], request,
                                       static_cast<std::uint64_t>(h), false));
        }
      });
    for (std::thread& t : threads) t.join();
    st.setup_s.push_back(seconds_between(t0, trace::now_ns()));
    for (int c = 0; c < z.clients; ++c)
      for (const ServeRecord& rec : warm[c]) {
        st.failures.attempt();
        const int h = static_cast<int>(rec.k);
        check_hot(rec, h, 0);
      }
  };
  for (int s = 0; s < z.setups; ++s) start_and_warm();

  // Measured load: closed loop, each client sends its next request when
  // the previous reply arrives; request k's content is serve_item(seed, k).
  const qokit::serve::SessionCache::Stats before_load = server->cache_stats();
  const std::uint64_t precomputes0 = precomputes_total();
  std::atomic<std::uint64_t> next{0};
  std::atomic<std::uint64_t> done{0};
  std::atomic<bool> stop{false};
  std::vector<std::vector<ServeRecord>> records(z.clients);
  std::vector<std::thread> threads;
  const std::uint64_t start = trace::now_ns();
  const std::uint64_t deadline = deadline_after(config.seconds);
  for (int c = 0; c < z.clients; ++c)
    threads.emplace_back([&, c] {
      while (!stop.load()) {
        const std::uint64_t k = next.fetch_add(1);
        const ServeItem item = serve_item(config.seed, k, z);
        qokit::serve::Request request;
        request.terms = item.cold ? qokit::sk_terms(z.n, item.cold_seed)
                                  : hot_terms[item.hot];
        request.schedules = item.schedules;
        records[c].push_back(round_trip(clients[c], request, k, item.cold));
        if (!records[c].back().error.empty() &&
            records[c].back().status == qokit::serve::Status::InternalError)
          break;  // connection lost; this client stops
        if (done.fetch_add(1) + 1 >= static_cast<std::uint64_t>(z.min_requests) &&
            !before(deadline))
          stop.store(true);
      }
    });
  for (std::thread& t : threads) t.join();
  st.loop_s = seconds_between(start, trace::now_ns());
  st.peak_rss_mb = peak_rss_mb();
  st.precomputes = precomputes_total() - precomputes0;
  const qokit::serve::SessionCache::Stats after_load = server->cache_stats();
  for (int s = 0; s < z.setups; ++s) start_and_warm();
  clients.clear();
  server.reset();

  // Completion order, then per-window throughput: each window of
  // min_requests completions over the time since the previous window.
  std::vector<ServeRecord> done_order;
  for (auto& per_client : records)
    for (ServeRecord& rec : per_client) done_order.push_back(std::move(rec));
  std::sort(done_order.begin(), done_order.end(),
            [](const ServeRecord& a, const ServeRecord& b) {
              return a.end_ns < b.end_ns;
            });
  const std::size_t window = static_cast<std::size_t>(z.min_requests);
  const std::size_t windows = done_order.size() / window;
  std::uint64_t window_start = start;
  for (std::size_t w = 0; w < windows; ++w) {
    const std::size_t first = w * window;
    const std::size_t end = w + 1 == windows ? done_order.size() : first + window;
    std::size_t ok_in_window = 0;
    for (std::size_t i = first; i < end; ++i)
      ok_in_window += done_order[i].status == qokit::serve::Status::Ok;
    st.rates.push_back(static_cast<double>(ok_in_window) /
                       seconds_between(window_start, done_order[end - 1].end_ns));
    window_start = done_order[end - 1].end_ns;
  }

  // Every Ok response must equal a direct session evaluation.
  std::vector<double> cold_s, queue_ms, hit_eval_ms, miss_eval_ms, wire_ms;
  std::uint64_t ok = 0, hits = 0, cold = 0, rejected = 0;
  {
    const trace::Span span("check.direct_session");
    for (const ServeRecord& rec : done_order) {
      ++st.ops;
      st.failures.attempt();
      st.latency_ms.push_back(rec.latency_ms);
      if (rec.status == qokit::serve::Status::Overloaded) ++rejected;
      if (rec.cold) {
        ++cold;
        cold_s.push_back(rec.latency_ms * 1e-3);
      }
      if (rec.status != qokit::serve::Status::Ok) {
        st.failures.fail("serve-mixed: request " + std::to_string(rec.k) +
                         " status " +
                         std::string(qokit::serve::to_string(rec.status)) +
                         " " + rec.error);
        continue;
      }
      ++ok;
      hits += rec.hit ? 1 : 0;
      queue_ms.push_back(static_cast<double>(rec.queue_ns) * 1e-6);
      (rec.hit ? hit_eval_ms : miss_eval_ms)
          .push_back(static_cast<double>(rec.eval_ns) * 1e-6);
      wire_ms.push_back(
          rec.latency_ms -
          static_cast<double>(rec.queue_ns + rec.eval_ns) * 1e-6);
      const ServeItem item = serve_item(config.seed, rec.k, z);
      if (!item.cold) {
        check_hot(rec, item.hot, item.set);
        continue;
      }
      const ProblemSession direct(qokit::sk_terms(z.n, item.cold_seed));
      std::vector<double> want;
      for (const auto& r : direct.evaluate_batch(item.schedules))
        want.push_back(r.expectation.value());
      if (!check.equal(rec.expectations, want))
        st.failures.fail("serve-mixed: cold request " +
                         std::to_string(rec.k) +
                         " differs from a direct session evaluation");
    }
  }
  st.expected_precomputes = cold;  // the counter window is the load
  st.first_eval_s = cold_s;
  const auto p = [](const std::vector<double>& v, int level) {
    return v.empty() ? 0.0 : percentile(v, level);
  };
  st.extra.push_back({"serve_rps", static_cast<double>(ok) / st.loop_s, "1/s"});
  st.extra.push_back({"requests", static_cast<double>(st.ops), "count"});
  st.extra.push_back({"cold_requests", static_cast<double>(cold), "count"});
  st.extra.push_back({"load_misses",
                      static_cast<double>(after_load.misses - before_load.misses),
                      "count"});
  st.layer.push_back({"serve.queue_ms_p50", p(queue_ms, 500), "ms"});
  st.layer.push_back({"serve.queue_ms_p99", p(queue_ms, 990), "ms"});
  st.layer.push_back({"serve.hit_eval_ms_p50", p(hit_eval_ms, 500), "ms"});
  st.layer.push_back({"serve.miss_eval_ms_p50", p(miss_eval_ms, 500), "ms"});
  st.layer.push_back({"serve.wire_ms_p50", p(wire_ms, 500), "ms"});
  st.layer.push_back(
      {"serve.hit_ratio",
       st.ops ? static_cast<double>(hits) / static_cast<double>(st.ops) : 0.0,
       "ratio"});
  st.layer.push_back(
      {"serve.evictions",
       static_cast<double>(after_load.evictions - before_load.evictions),
       "count"});
  st.layer.push_back({"serve.rejected", static_cast<double>(rejected), "count"});
  return st;
}

// ------------------------------------------------------------------ dispatch

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"optimize-maxcut",
                                                 "fresh-labs", "serve-mixed"};
  return names;
}

RunStats run_workload(const Config& config) {
  if (config.workload == "optimize-maxcut") return run_optimize_maxcut(config);
  if (config.workload == "fresh-labs") return run_fresh_labs(config);
  if (config.workload == "serve-mixed") return run_serve_mixed(config);
  throw std::invalid_argument("unknown workload '" + config.workload + "'");
}

}  // namespace perfbench
