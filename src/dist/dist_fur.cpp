#include "dist/dist_fur.hpp"

#include <bit>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>

#include "common/aligned.hpp"
#include "common/bitops.hpp"
#include "diagonal/ops.hpp"
#include "fur/su2.hpp"
#include "obs/obs.hpp"
#include "pipeline/layer_exec.hpp"

namespace qokit {

namespace dist {
namespace {

// Shared body of the two apply_mixer_x overloads: the slice layout and
// exchange schedule are precision-independent; only the element width
// moving through kern::rx and the alltoall changes.
template <class C>
void apply_mixer_x_impl(Communicator& comm, C* local,
                        std::uint64_t local_size, int num_qubits,
                        double beta) {
  const int g = std::countr_zero(static_cast<unsigned>(comm.size()));
  const int nl = num_qubits - g;  // local qubits per rank
  if (nl < g)
    throw std::invalid_argument(
        "dist::apply_mixer_x: need num_qubits >= 2*log2(ranks)");
  if (local_size != dim_of(nl))
    throw std::invalid_argument("dist::apply_mixer_x: slice size mismatch");
  const double c = std::cos(beta);
  const double s = std::sin(beta);
  // Local qubits: the paper's in-place fused RX passes, unchanged on the
  // slice. Exec::Serial -- the K rank threads are the parallelism here.
  for (int q = 0; q < nl; ++q)
    kern::rx(local, local_size, q, c, s, Exec::Serial);
  if (g == 0) return;
  // Alltoall with block 2^(nl - g) swaps qubit ranges [nl-g, nl) and
  // [nl, n): the former global qubits land on the top g local positions.
  const std::uint64_t block = local_size >> g;
  comm.alltoall(local, block);
  for (int q = nl - g; q < nl; ++q)
    kern::rx(local, local_size, q, c, s, Exec::Serial);
  // The exchange is an involution; undo it to restore canonical qubit
  // order so diagonal slices stay valid for the next layer.
  comm.alltoall(local, block);
}

}  // namespace

void apply_mixer_x(Communicator& comm, cdouble* local,
                   std::uint64_t local_size, int num_qubits, double beta) {
  apply_mixer_x_impl(comm, local, local_size, num_qubits, beta);
}

void apply_mixer_x(Communicator& comm, cfloat* local,
                   std::uint64_t local_size, int num_qubits, double beta) {
  apply_mixer_x_impl(comm, local, local_size, num_qubits, beta);
}

double expectation_slice(Communicator& comm, const cdouble* local,
                         const double* costs, std::uint64_t count) {
  return comm.allreduce_sum(
      qokit::expectation_slice(local, costs, count, Exec::Serial));
}

double expectation_slice(Communicator& comm, const cfloat* local,
                         const double* costs, std::uint64_t count) {
  return comm.allreduce_sum(
      qokit::expectation_slice(local, costs, count, Exec::Serial));
}

}  // namespace dist

namespace {

/// `cfg`, once check_qubit_limit has passed: the first member initializer,
/// so an oversized problem is named before any rank or slice exists.
DistConfig within_qubit_limit(const TermList& terms, const DistConfig& cfg) {
  check_qubit_limit(terms.num_qubits(), cfg.prec);
  return cfg;
}

}  // namespace

DistributedFurSimulator::DistributedFurSimulator(const TermList& terms,
                                                 DistConfig cfg)
    : cfg_(within_qubit_limit(terms, cfg)),
      log2_ranks_(std::countr_zero(static_cast<unsigned>(
          cfg.ranks > 0 ? cfg.ranks : 1))),
      world_(cfg.ranks) {
  const int n = terms.num_qubits();
  if (2 * log2_ranks_ > n)
    throw std::invalid_argument(
        "DistributedFurSimulator: " + std::to_string(cfg.ranks) +
        " ranks need at least " + std::to_string(2 * log2_ranks_) +
        " qubits (2*log2 K), got " + std::to_string(n));
  // Distributed diagonal precompute: each rank fills its own slice with the
  // blocked transform, whose outputs depend on their block and not on the
  // slicing, so the result is bit-identical to the single-node diagonal.
  obs::Span span("precompute");
  span.attr("n", n);
  span.attr("ranks", cfg_.ranks);
  aligned_vector<double> values(dim_of(n));
  const std::uint64_t local = values.size() >> log2_ranks_;
  world_.run([&](Communicator& comm) {
    const std::uint64_t base = static_cast<std::uint64_t>(comm.rank()) * local;
    fill_cost_diagonal(terms, base, base + local, values.data() + base,
                       Exec::Serial);
  });
  diag_ = CostDiagonal::from_values(n, std::move(values));
  // Each rank's per-layer work is phase + X mixer on a 2^(n - g) slice:
  // plan it once for the local qubit count, plus a butterfly-only sweep
  // plan for the post-alltoall mix of the swapped-in global qubits.
  const int nl = n - log2_ranks_;
  local_plan_ = pipeline::LayerPlan::build(nl, MixerType::X,
                                           MixerBackend::Fused,
                                           cfg_.pipeline);
  global_sweep_plan_ = pipeline::LayerPlan::build_rx_sweep(
      nl, nl - log2_ranks_, nl, cfg_.pipeline);
}

void DistributedFurSimulator::start_state_into(StateVector& slot) const {
  slot.assign_plus(num_qubits(), cfg_.prec, /*half=*/false, Exec::Parallel,
                   local_plan_.tile_amps());
}

namespace {

/// One rank team's full schedule over the sharded amplitude array, at
/// either precision. Mirrors FurQaoaSimulator::simulate_qaoa_from's fused/
/// unfused split, per-rank and with Exec::Serial throughout (the K rank
/// threads are the parallelism).
template <class T>
void dist_schedule(const VirtualRankWorld& world,
                   const pipeline::LayerPlan& local_plan,
                   const pipeline::LayerPlan& global_sweep_plan,
                   std::complex<T>* data, std::uint64_t local,
                   const double* costs, int n, int g,
                   std::span<const double> gammas,
                   std::span<const double> betas, const obs::Span& parent) {
  static const obs::Histogram layer_hist = obs::histogram("qokit_layer_ns");
  world.run([&](Communicator& comm) {
    const std::uint64_t base = static_cast<std::uint64_t>(comm.rank()) * local;
    std::complex<T>* slice = data + base;
    const double* diag_slice = costs + base;
    const pipeline::PhaseCtxT<T> ctx{.costs = diag_slice};
    const std::uint64_t block = local >> g;
    for (std::size_t l = 0; l < gammas.size(); ++l) {
      // One `layer` span per layer, from rank 0: the ranks move through a
      // layer in lockstep (every alltoall is a barrier). It opens on the
      // rank's thread but nests under the caller's `simulate` span.
      std::optional<obs::Span> span;
      if (comm.rank() == 0) {
        span.emplace("layer", layer_hist, parent);
        span->attr("layer", static_cast<std::int64_t>(l));
      }
      if (local_plan.active()) {
        // Fused Algorithm 4: the rank-local phase + low-qubit mixing run
        // as tiled passes over the slice, and after the alltoall reorder
        // the swapped-in global qubits get the same strided tiling.
        pipeline::run_layer(local_plan, slice, local, ctx, gammas[l],
                            betas[l], Exec::Serial);
        if (g > 0) {
          comm.alltoall(slice, block);
          pipeline::run_sweep(global_sweep_plan, slice, local,
                              std::cos(betas[l]), std::sin(betas[l]),
                              Exec::Serial);
          comm.alltoall(slice, block);
        }
      } else {
        // Algorithm 4, unfused (the pipeline's oracle): one local phase
        // multiply against the cached slice and one distributed mixer
        // (local qubits in place, global ones through the alltoall
        // reordering).
        apply_phase_slice(slice, diag_slice, local, gammas[l], Exec::Serial);
        dist::apply_mixer_x(comm, slice, local, n, betas[l]);
      }
    }
  });
}

}  // namespace

StateVector DistributedFurSimulator::simulate_qaoa_from(
    StateVector state, std::span<const double> gammas,
    std::span<const double> betas) const {
  if (gammas.size() != betas.size())
    throw std::invalid_argument("simulate_qaoa: gammas/betas length mismatch");
  if (state.num_qubits() != num_qubits())
    throw std::invalid_argument("simulate_qaoa: state size mismatch");
  obs::Span span("simulate");
  span.attr("n", num_qubits());
  span.attr("p", static_cast<std::int64_t>(gammas.size()));
  span.attr("ranks", cfg_.ranks);
  const std::uint64_t local = state.size() >> log2_ranks_;
  const double* costs = diag_.data();
  const int n = num_qubits();
  const int g = log2_ranks_;
  if (state.precision() == Precision::F32)
    dist_schedule(world_, local_plan_, global_sweep_plan_, state.data_f32(),
                  local, costs, n, g, gammas, betas, span);
  else
    dist_schedule(world_, local_plan_, global_sweep_plan_, state.data(),
                  local, costs, n, g, gammas, betas, span);
  // The slices live in one contiguous buffer and the exchange is undone
  // every layer, so the "gather" is free.
  return state;
}

double DistributedFurSimulator::simulate_and_expectation(
    std::span<const double> gammas, std::span<const double> betas) const {
  const StateVector state = simulate_qaoa(gammas, betas);
  // Score the evolved slices in place: each rank reduces its own slice and
  // the total comes back through one allreduce -- the state is never
  // traversed as a whole.
  const std::uint64_t local = state.size() >> log2_ranks_;
  const double* costs = diag_.data();
  double result = 0.0;
  if (state.precision() == Precision::F32) {
    const cfloat* data = state.data_f32();
    world_.run([&](Communicator& comm) {
      const std::uint64_t base =
          static_cast<std::uint64_t>(comm.rank()) * local;
      const double total =
          dist::expectation_slice(comm, data + base, costs + base, local);
      if (comm.rank() == 0) result = total;
    });
    return result;
  }
  const cdouble* data = state.data();
  world_.run([&](Communicator& comm) {
    const std::uint64_t base = static_cast<std::uint64_t>(comm.rank()) * local;
    const double total =
        dist::expectation_slice(comm, data + base, costs + base, local);
    if (comm.rank() == 0) result = total;
  });
  return result;
}

double DistributedFurSimulator::get_expectation(
    const StateVector& result) const {
  return expectation(result, diag_);
}

double DistributedFurSimulator::get_overlap(const StateVector& result,
                                            int restrict_weight) const {
  if (restrict_weight < 0) return overlap_ground(result, diag_);
  // Shared sector helper: identical semantics to FurQaoaSimulator by
  // construction (the distributed simulator itself only runs the X mixer).
  return overlap_ground_sector(result, diag_, restrict_weight);
}

std::unique_ptr<QaoaFastSimulatorBase> choose_simulator_distributed(
    const TermList& terms, int ranks) {
  return std::make_unique<DistributedFurSimulator>(
      terms, DistConfig{.ranks = ranks});
}

}  // namespace qokit
