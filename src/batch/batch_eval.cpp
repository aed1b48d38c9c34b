#include "batch/batch_eval.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <stdexcept>
#include <string>

#include "common/bitops.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "obs/obs.hpp"
#include "statevector/sampling.hpp"

namespace qokit {
namespace {

std::uint64_t tick_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Per-call option checks shared by the constructor and evaluate_into.
void check_options(const BatchOptions& opts, int num_qubits) {
  if (opts.sample_shots < 0)
    throw std::invalid_argument("BatchEvaluator: sample_shots must be >= 0");
  if (opts.overlap_weight < -1 || opts.overlap_weight > num_qubits)
    throw std::invalid_argument(
        "BatchEvaluator: overlap_weight " +
        std::to_string(opts.overlap_weight) +
        " is out of range (allowed: -1 for the full space, or 0.." +
        std::to_string(num_qubits) + ")");
}

/// Every schedule must pair each gamma with a beta, and every angle must
/// be finite: a NaN or infinite angle would otherwise come back as a NaN
/// expectation inside a successful result.
void check_schedules(std::span<const QaoaParams> schedules) {
  const auto check_angles = [](std::size_t index, const char* name,
                               const std::vector<double>& angles) {
    for (std::size_t j = 0; j < angles.size(); ++j)
      if (!std::isfinite(angles[j]))
        throw std::invalid_argument(
            "BatchEvaluator: schedule " + std::to_string(index) + " " +
            name + "[" + std::to_string(j) + "] is not finite");
  };
  for (std::size_t i = 0; i < schedules.size(); ++i) {
    const QaoaParams& s = schedules[i];
    if (s.gammas.size() != s.betas.size())
      throw std::invalid_argument("BatchEvaluator: schedule " +
                                  std::to_string(i) +
                                  ": gammas/betas length mismatch");
    check_angles(i, "gamma", s.gammas);
    check_angles(i, "beta", s.betas);
  }
}

}  // namespace

BatchEvaluator::BatchEvaluator(const QaoaFastSimulatorBase& sim,
                               BatchOptions opts)
    : sim_(&sim),
      opts_(opts),
      start_amps_(dim_of(sim.num_qubits()) >> (sim.half_space() ? 1 : 0)),
      scratch_(static_cast<std::size_t>(max_threads())) {
  check_options(opts_, sim.num_qubits());
}

BatchParallelism BatchEvaluator::resolve_parallelism(std::size_t batch) const {
  return resolve(opts_.parallelism, batch);
}

BatchParallelism BatchEvaluator::resolve(BatchParallelism requested,
                                         std::size_t batch) const {
  if (requested != BatchParallelism::Auto) return requested;
  const int threads = max_threads();
  if (threads <= 1 || batch < 2) return BatchParallelism::Inner;
  // One simulate_qaoa call already employs the machine's threads itself
  // (the virtual-rank distributed simulator): stacking an outer team on
  // top would only oversubscribe.
  if (sim_->prefers_sequential_batches()) return BatchParallelism::Inner;
  // Actual amplitude width (f32 states cost half), so the outer-scratch
  // budget admits twice the f32 slots it would f64 ones.
  const std::uint64_t bytes =
      start_amps_ * amplitude_bytes(sim_->precision());
  if (static_cast<std::uint64_t>(threads) * bytes > kMaxOuterScratchBytes)
    return BatchParallelism::Inner;
  // Sub-grain states get no inner parallelism at all (parallel_for runs
  // them serially), so threading across schedules is the only parallelism
  // available -- and it skips the per-kernel team dispatch entirely.
  if (start_amps_ < static_cast<std::uint64_t>(kParallelGrain))
    return BatchParallelism::Outer;
  // Large states: outer only when the batch can fill every thread;
  // otherwise the simulator's own kernels use the machine better.
  return batch >= static_cast<std::size_t>(threads) ? BatchParallelism::Outer
                                                    : BatchParallelism::Inner;
}

void BatchEvaluator::evaluate_into(std::span<const QaoaParams> schedules,
                                   const BatchOptions& opts,
                                   BatchResult& out) const {
  check_options(opts, sim_->num_qubits());
  check_schedules(schedules);
  const std::size_t m = schedules.size();
  out.used = resolve(opts.parallelism, m);
  // resize() reuses existing capacity (and, for states, the statevector
  // buffers inside surviving slots), so a reused `out` allocates nothing
  // in steady state; unrequested fields are cleared.
  out.expectations.resize(opts.compute_expectation ? m : 0);
  out.overlaps.resize(opts.compute_overlap ? m : 0);
  out.states.resize(opts.keep_states ? m : 0);
  out.samples.resize(opts.sample_shots > 0 ? m : 0);
  out.simulate_ns.resize(opts.record_timings ? m : 0);
  out.reduce_ns.resize(opts.record_timings ? m : 0);

  static const obs::Counter batch_calls =
      obs::counter("qokit_batch_calls_total");
  static const obs::Counter batch_schedules =
      obs::counter("qokit_batch_schedules_total");
  static const obs::Counter scratch_hits =
      obs::counter("qokit_batch_scratch_hits_total");
  static const obs::Counter scratch_allocs =
      obs::counter("qokit_batch_scratch_allocs_total");
  static const obs::Histogram reduce_hist = obs::histogram("qokit_reduce_ns");
  batch_calls.add();
  batch_schedules.add(m);
  obs::Span span("evaluate_batch");
  span.attr("schedules", static_cast<std::int64_t>(m));
  span.attr("mode",
            out.used == BatchParallelism::Outer ? "outer" : "inner");

  // The one evolve-and-score step every caller shares. Evolve schedule i
  // in slot: the simulator writes its start state into the slot
  // (start_state_into reuses the slot's buffer, so no allocation after
  // the slot's first use), then evolves it in place. A requested expectation rides the evolution
  // (simulate_qaoa_expectation: fused into the final pass on
  // FurQaoaSimulator, two-pass elsewhere, bit-identical either way).
  auto evolve = [&](std::size_t i, StateVector& slot) {
    // A slot already sized (and precision-matched) like the start state
    // refills in place; a fresh or mismatched slot pays an allocation.
    if (slot.size() == start_amps_ &&
        slot.precision() == sim_->precision())
      scratch_hits.add();
    else scratch_allocs.add();
    const std::uint64_t t0 = opts.record_timings ? tick_ns() : 0;
    sim_->start_state_into(slot);
    const QaoaParams& q = schedules[i];
    if (opts.compute_expectation)
      out.expectations[i] =
          sim_->simulate_qaoa_expectation(slot, q.gammas, q.betas);
    else
      slot = sim_->simulate_qaoa_from(std::move(slot), q.gammas, q.betas);
    if (opts.record_timings) out.simulate_ns[i] = tick_ns() - t0;
  };
  // Scoring: the reductions left once the expectation is known. Always on
  // the submitting thread, in schedule order. A half-storage slot is
  // expanded once into the reused full scratch first, so overlaps,
  // samples and kept states run the unchanged 2^n code.
  const bool scored = !out.overlaps.empty() || !out.samples.empty() ||
                      !out.states.empty();
  auto score = [&](std::size_t i, StateVector& slot) {
    obs::Span rspan("reduce", reduce_hist);
    const std::uint64_t t0 = opts.record_timings ? tick_ns() : 0;
    const StateVector* state = &slot;
    if (scored && slot.is_half()) {
      slot.expand_into(full_);
      state = &full_;
    }
    if (!out.overlaps.empty())
      out.overlaps[i] = sim_->get_overlap(*state, opts.overlap_weight);
    if (!out.samples.empty()) {
      // Seeded per schedule index, so the drawn bitstrings are independent
      // of evaluation order and of the parallelism mode.
      Rng rng(opts.sample_seed + i);
      out.samples[i] = sample_states(*state, opts.sample_shots, rng);
    }
    if (!out.states.empty()) out.states[i] = *state;  // copy; slot lives on
    if (opts.record_timings) out.reduce_ns[i] = tick_ns() - t0;
  };

  if (out.used == BatchParallelism::Inner) {
    StateVector& slot = scratch_.front();
    for (std::size_t i = 0; i < m; ++i) {
      evolve(i, slot);
      score(i, slot);
    }
    return;
  }

  // Outer: rounds of up to one schedule per scratch slot. Evolution
  // threads across the round (schedule(static, 1) pins iteration c to one
  // thread, so slot c is touched by exactly one thread; the kernels are
  // elementwise, so partitioning cannot change their arithmetic; the
  // fused expectation sums its reduce blocks in index order whatever the
  // team). Scoring runs after the join on the calling thread, exactly
  // where a sequential loop would score.
  const std::size_t slots = scratch_.size();
  std::vector<std::exception_ptr> errors(slots);
  for (std::size_t base = 0; base < m; base += slots) {
    const std::int64_t chunk =
        static_cast<std::int64_t>(std::min(slots, m - base));
    QOKIT_OMP_PRAGMA(omp parallel for schedule(static, 1))
    for (std::int64_t c = 0; c < chunk; ++c) {
      // Exceptions (e.g. bad_alloc filling a scratch slot) must not
      // escape the parallel region -- that would call std::terminate.
      // Funnel them through per-slot pointers and rethrow after the join,
      // so failure behaves like the sequential loop's.
      try {
        evolve(base + static_cast<std::size_t>(c),
               scratch_[static_cast<std::size_t>(c)]);
      } catch (...) {
        errors[static_cast<std::size_t>(c)] = std::current_exception();
      }
    }
    for (const std::exception_ptr& e : errors)
      if (e) std::rethrow_exception(e);
    for (std::int64_t c = 0; c < chunk; ++c)
      score(base + static_cast<std::size_t>(c),
            scratch_[static_cast<std::size_t>(c)]);
  }
}

BatchResult BatchEvaluator::evaluate(
    std::span<const QaoaParams> schedules) const {
  return evaluate(schedules, opts_);
}

BatchResult BatchEvaluator::evaluate(std::span<const QaoaParams> schedules,
                                     const BatchOptions& opts) const {
  BatchResult out;
  evaluate_into(schedules, opts, out);
  return out;
}

std::vector<double> BatchEvaluator::expectations(
    std::span<const QaoaParams> schedules) const {
  BatchOptions trimmed = opts_;  // keep the parallelism choice
  trimmed.compute_expectation = true;
  trimmed.compute_overlap = false;
  trimmed.keep_states = false;
  trimmed.sample_shots = 0;
  BatchResult out;
  evaluate_into(schedules, trimmed, out);
  return std::move(out.expectations);
}

std::vector<double> BatchEvaluator::expectations_packed(
    const std::vector<std::vector<double>>& points) const {
  std::vector<QaoaParams> schedules;
  schedules.reserve(points.size());
  for (const std::vector<double>& x : points)
    schedules.push_back(QaoaParams::unflatten(x));
  return expectations(schedules);
}

}  // namespace qokit
