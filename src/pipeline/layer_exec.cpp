// LayerPlan executor: drives the active SIMD kernel family over
// cache-resident units. Bit-identity with the unfused path rests on two
// alignment invariants that every sub-range issued here preserves:
//
//  1. Elementwise kernels (phase / phase_table / phase_popcount) are
//     called on ranges whose start is a multiple of 4 and whose length is
//     a multiple of 4 (or the single whole-array call when the array is
//     shorter) — so the AVX2 kernels partition elements into the same
//     absolute groups of 4 as dispatch.cpp's kSimdBlock blocks, and the
//     same elements take the vector vs libm-fallback path.
//  2. Butterflies go through butterfly_group, kGroupQubits qubits per
//     call, over whole tiles or over row chunks of >= 4 columns that never
//     cross a row — so each qubit's pairs form the same runs as in the
//     unfused per-qubit calls, the same absolute pairs land in vector
//     registers, and no pair falls to a (differently rounded) scalar tail
//     in one decomposition but not the other (simd/butterfly_group.hpp).
//
// Given those, per-amplitude results depend only on (input values, qubit,
// dispatch level) — not on traversal order — and each pass applies its
// operations to each amplitude in exactly the unfused order (phase first,
// then butterflies by ascending qubit).
//
// A half plan ends with a mirror pass: the top qubit is the last butterfly
// of the layer on the full state too, so the lower half's qubits 0..n-2
// see the full state's dataflow, and mirror_rx then gives each amplitude
// the top qubit's update with its partner read from the mirror image.
#include "pipeline/layer_exec.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "common/parallel.hpp"
#include "fur/fwht.hpp"
#include "obs/obs.hpp"
#include "simd/butterfly_group.hpp"
#include "simd/kernels.hpp"

namespace qokit::pipeline {
namespace {

/// Pass-shape counters, incremented once per pass (never inside the
/// per-unit loops) so observability's cost scales with passes, not tiles.
const obs::Counter& tile_pass_counter() {
  static const obs::Counter c =
      obs::counter("qokit_pipeline_tile_passes_total");
  return c;
}

const obs::Counter& strided_pass_counter() {
  static const obs::Counter c =
      obs::counter("qokit_pipeline_strided_passes_total");
  return c;
}

const obs::Counter& mirror_pass_counter() {
  static const obs::Counter c =
      obs::counter("qokit_pipeline_mirror_passes_total");
  return c;
}

/// Select the active kernel family for the amplitude scalar. Both share
/// one dispatch level, so a mixed-precision run never mixes families.
template <class T>
const simd::detail::KernelsT<T>& active_family();
template <>
const simd::detail::KernelsT<double>& active_family<double>() {
  return simd::detail::active_kernels();
}
template <>
const simd::detail::KernelsT<float>& active_family<float>() {
  return simd::detail::active_kernels_f32();
}

/// Parallelize over independent cache-units. Units touch disjoint
/// amplitudes and carry no reductions, so any thread count (and Serial)
/// produces the same bits; the grain check mirrors parallel_for_blocks.
template <class F>
void for_units(Exec exec, std::int64_t units, std::int64_t unit_amps, F&& f) {
  if (units <= 0) return;
  if (exec == Exec::Serial || units < 2 ||
      units * unit_amps < kParallelGrain) {
    for (std::int64_t u = 0; u < units; ++u) f(u);
    return;
  }
  QOKIT_OMP_PRAGMA(omp parallel for schedule(static))
  for (std::int64_t u = 0; u < units; ++u) f(u);
}

/// Fused expectation partials for one unit's contiguous piece
/// [base, base+count): one k.expectation / k.expectation_u16 call per
/// absolute kReduceBlock sub-block, written to partials[abs / block].
/// base and count are whole multiples of kReduceBlock (guaranteed by
/// can_fuse_expectation), so these are exactly the calls the two-pass
/// expectation dispatch makes for the same sub-range — same pointers,
/// same lengths, same kernel family. Partials stay double at both
/// precisions.
template <class T>
void reduce_piece(const simd::detail::KernelsT<T>& k,
                  const std::complex<T>* amp, const ExpectationCtx& red,
                  std::uint64_t base, std::uint64_t count,
                  double* partials) {
  const auto block = static_cast<std::uint64_t>(kReduceBlock);
  for (std::uint64_t off = 0; off < count; off += block) {
    const std::uint64_t i = base + off;
    partials[i / block] =
        red.codes ? k.expectation_u16(amp + i, red.codes + i, red.offset,
                                      red.scale, block)
                  : k.expectation(amp + i, red.costs + i, block);
  }
}

/// Fused expectation partials of the upper half of a flip-symmetric
/// state, for the half-state piece [base, base+count) of a 2^(n-1) =
/// `half`-amplitude array: the full indices [2 half - base - count,
/// 2 half - base) hold that piece reversed. Each of those reduce blocks is
/// reverse-copied, amplitudes and costs (or codes), into per-thread
/// scratch and reduced by the unchanged kernel -- the same values in the
/// same positions as the full state's block (costs are flip-symmetric
/// bitwise), so the same partial, in the same slot.
template <class T>
void reduce_mirror_piece(const simd::detail::KernelsT<T>& k,
                         const std::complex<T>* amp,
                         const ExpectationCtx& red, std::uint64_t half,
                         std::uint64_t base, std::uint64_t count,
                         double* partials) {
  constexpr auto block = static_cast<std::uint64_t>(kReduceBlock);
  alignas(64) static thread_local std::complex<T> a[block];
  alignas(64) static thread_local double costs[block];
  alignas(64) static thread_local std::uint16_t codes[block];
  const std::uint64_t end = 2 * half - base;
  for (std::uint64_t f = end - count; f < end; f += block) {
    const std::uint64_t top = 2 * half - 1 - f;  // half index of amp f
    for (std::uint64_t t = 0; t < block; ++t) a[t] = amp[top - t];
    if (red.codes) {
      for (std::uint64_t t = 0; t < block; ++t) codes[t] = red.codes[top - t];
      partials[f / block] =
          k.expectation_u16(a, codes, red.offset, red.scale, block);
    } else {
      for (std::uint64_t t = 0; t < block; ++t) costs[t] = red.costs[top - t];
      partials[f / block] = k.expectation(a, costs, block);
    }
  }
}

/// Both halves' partials of the half-state piece [base, base+count): its
/// own blocks and their upper-half mirror images.
template <class T>
void reduce_half_piece(const simd::detail::KernelsT<T>& k,
                       const std::complex<T>* amp, const ExpectationCtx& red,
                       std::uint64_t half, std::uint64_t base,
                       std::uint64_t count, double* partials) {
  reduce_piece(k, amp, red, base, count, partials);
  reduce_mirror_piece(k, amp, red, half, base, count, partials);
}

/// The diagonal phase on amp[base, base+count), double or u16 path.
template <class T>
void phase_unit(const simd::detail::KernelsT<T>& k, std::complex<T>* amp,
                const PhaseCtxT<T>& ctx, std::uint64_t base,
                std::uint64_t count, double gamma) {
  if (ctx.codes)
    k.phase_table(amp + base, ctx.codes + base, ctx.table, count);
  else
    k.phase(amp + base, ctx.costs + base, count, gamma);
}

/// Qubits per butterfly_group call: a radix-8 register block.
constexpr int kGroupQubits = 3;

simd::detail::Butterfly kind_of(PassButterfly butterfly) {
  return butterfly == PassButterfly::Rx ? simd::detail::Butterfly::Rx
                                        : simd::detail::Butterfly::Hadamard;
}

/// Butterflies on qubits [q, q_end) over the contiguous tile
/// [base, base+count), kGroupQubits per load/store: for q_end <=
/// log2(count) and base a multiple of count, the groups covering exactly
/// this tile are [base >> m, (base + count) >> m).
template <class T>
void butterfly_tile(const simd::detail::KernelsT<T>& k, std::complex<T>* amp,
                    std::uint64_t base, std::uint64_t count, int q, int q_end,
                    PassButterfly butterfly, double c, double s) {
  for (int m; q < q_end; q += m) {
    m = std::min(kGroupQubits, q_end - q);
    k.butterfly_group(amp, q, m, base >> m, (base + count) >> m,
                      kind_of(butterfly), c, s);
  }
}

template <class T>
void run_tile_pass(const simd::detail::KernelsT<T>& k, const LayerPass& p,
                   std::complex<T>* amp, std::uint64_t n_amps,
                   const PhaseCtxT<T>& ctx, double gamma,
                   const std::complex<T>* pop_table, double c, double s,
                   Exec exec, const ExpectationCtx* red = nullptr,
                   double* partials = nullptr) {
  const std::uint64_t tile =
      std::min<std::uint64_t>(n_amps, 1ull << p.width_log2);
  const std::int64_t units = static_cast<std::int64_t>(n_amps / tile);
  for_units(exec, units, static_cast<std::int64_t>(tile),
            [&](std::int64_t u) {
              const std::uint64_t base =
                  static_cast<std::uint64_t>(u) * tile;
              int q = p.q_begin;
              if (p.pre == PassPhase::Diagonal) {
                if (!ctx.codes && p.butterfly == PassButterfly::Rx &&
                    q == 0 && p.q_end > 0) {
                  // The fused family kernel: phase + the qubit-0 butterfly
                  // in one read/write of the tile.
                  k.phase_rx(amp + base, ctx.costs + base, tile, gamma, c,
                             s);
                  q = 1;
                } else {
                  phase_unit(k, amp, ctx, base, tile, gamma);
                }
              }
              butterfly_tile(k, amp, base, tile, q, p.q_end, p.butterfly, c,
                             s);
              if (p.post == PassPhase::Popcount)
                k.phase_popcount(amp + base, base, tile, pop_table);
              if (red)
                reduce_piece(k, amp, *red, base, tile, partials);
            });
}

template <class T>
void run_strided_pass(const simd::detail::KernelsT<T>& k, const LayerPass& p,
                      std::complex<T>* amp, std::uint64_t n_amps,
                      const std::complex<T>* pop_table, double c, double s,
                      Exec exec, const ExpectationCtx* red = nullptr,
                      double* partials = nullptr) {
  const int a = p.q_begin;
  const int b = p.q_end;
  const std::uint64_t chunk = 1ull << p.width_log2;  // width_log2 <= a
  const std::uint64_t row = 1ull << a;               // row stride
  const std::uint64_t rows = 1ull << (b - a);
  const std::int64_t cols = static_cast<std::int64_t>(row >> p.width_log2);
  const std::int64_t blocks = static_cast<std::int64_t>(n_amps >> b);
  const std::int64_t unit_amps = static_cast<std::int64_t>(rows * chunk);
  for_units(
      exec, blocks * cols, unit_amps, [&](std::int64_t u) {
        const std::uint64_t blk = static_cast<std::uint64_t>(u / cols) << b;
        const std::uint64_t col = static_cast<std::uint64_t>(u % cols)
                                  << p.width_log2;
        // All g butterflies on the cache-resident 2^g-row working set,
        // kGroupQubits at a time: the partners for qubit q = a + j are rows
        // r and r | 2^j, both inside the set, so ascending-q order sees
        // exactly the unfused dataflow. Each call covers the 2^m rows that
        // differ only in the group's row bits, `chunk` columns wide.
        for (int q = a, m; q < b; q += m) {
          m = std::min(kGroupQubits, b - q);
          const std::uint64_t rbits = ((1ull << m) - 1) << (q - a);
          for (std::uint64_t r = 0; r < rows; ++r) {
            if (r & rbits) continue;
            const std::uint64_t g0 =
                simd::detail::group_index(blk + r * row + col, q, m);
            k.butterfly_group(amp, q, m, g0, g0 + chunk,
                              kind_of(p.butterfly), c, s);
          }
        }
        if (p.post == PassPhase::Popcount)
          for (std::uint64_t r = 0; r < rows; ++r) {
            const std::uint64_t i0 = blk + r * row + col;
            k.phase_popcount(amp + i0, i0, chunk, pop_table);
          }
        if (red)
          // Each row's chunk starts at blk + r*row + col — a multiple of
          // the chunk length (col is a whole chunk multiple, row and blk
          // are larger powers of two), so kReduceBlock sub-blocks nest
          // exactly.
          for (std::uint64_t r = 0; r < rows; ++r)
            reduce_piece(k, amp, *red, blk + r * row + col, chunk,
                         partials);
      });
}

/// The mirror pass: qubit n-1's RX on the half state, one unit = a block
/// of 2^width_log2 amplitudes and its mirror block (the half plan keeps
/// the unit at most half the array, so the two never overlap). With `red`
/// set, each unit then reduces both blocks and their upper-half images.
template <class T>
void run_mirror_pass(const simd::detail::KernelsT<T>& k, const LayerPass& p,
                     std::complex<T>* amp, std::uint64_t n_amps, double c,
                     double s, Exec exec, const ExpectationCtx* red,
                     double* partials) {
  const std::uint64_t unit = 1ull << p.width_log2;
  const std::int64_t units = static_cast<std::int64_t>(n_amps / (2 * unit));
  for_units(exec, units, static_cast<std::int64_t>(2 * unit),
            [&](std::int64_t u) {
              const std::uint64_t lo = static_cast<std::uint64_t>(u) * unit;
              k.mirror_rx(amp, n_amps, lo, lo + unit, c, s);
              if (red) {
                reduce_half_piece(k, amp, *red, n_amps, lo, unit, partials);
                reduce_half_piece(k, amp, *red, n_amps, n_amps - lo - unit,
                                  unit, partials);
              }
            });
}

/// Shared body of run_layer / run_layer_expectation. When `red` is set the
/// FINAL pass also reduces each unit into `partials` (see the header's
/// determinism argument).
template <class T>
void run_layer_impl(const LayerPlan& plan, std::complex<T>* amp,
                    std::uint64_t n_amps, const PhaseCtxT<T>& phase,
                    double gamma, double beta, Exec exec,
                    const ExpectationCtx* red, double* partials) {
  if (!plan.active())
    throw std::logic_error("pipeline::run_layer: plan is not active: " +
                           plan.fallback_reason());
  if (n_amps != (1ull << plan.num_qubits()))
    throw std::invalid_argument("pipeline::run_layer: array size mismatch");
  if (!phase.costs && !(phase.codes && phase.table))
    throw std::invalid_argument(
        "pipeline::run_layer: PhaseCtx needs costs or codes+table");
  const simd::detail::KernelsT<T>& k = active_family<T>();
  const double c = std::cos(beta);
  const double s = std::sin(beta);
  std::complex<T> pop_table[kMaxQubits + 1];
  for (const LayerPass& p : plan.passes())
    if (p.post == PassPhase::Popcount) {
      fill_x_mixer_phase_table(plan.num_qubits(), beta, pop_table);
      break;
    }
  obs::Span span("pipeline_layer");
  span.attr("n", plan.num_qubits());
  span.attr("passes", static_cast<std::int64_t>(plan.passes().size()));
  const LayerPass* last = plan.passes().empty() ? nullptr
                                                : &plan.passes().back();
  for (const LayerPass& p : plan.passes()) {
    const ExpectationCtx* pass_red = (red && &p == last) ? red : nullptr;
    obs::Span pspan(p.mirror    ? "mirror_pass"
                    : p.strided ? "strided_pass"
                                : "tile_pass");
    pspan.attr("q_begin", p.q_begin);
    pspan.attr("q_end", p.q_end);
    pspan.attr("width_log2", p.width_log2);
    if (p.mirror) {
      mirror_pass_counter().add();
      run_mirror_pass(k, p, amp, n_amps, c, s, exec, pass_red, partials);
    } else if (p.strided) {
      strided_pass_counter().add();
      run_strided_pass(k, p, amp, n_amps, pop_table, c, s, exec, pass_red,
                       partials);
    } else {
      tile_pass_counter().add();
      run_tile_pass(k, p, amp, n_amps, phase, gamma, pop_table, c, s, exec,
                    pass_red, partials);
    }
  }
}

/// Shared body of run_sweep: butterfly-only passes, no phase source.
template <class T>
void run_sweep_impl(const LayerPlan& plan, std::complex<T>* amp,
                    std::uint64_t n_amps, double c, double s, Exec exec) {
  if (!plan.active())
    throw std::logic_error("pipeline::run_sweep: plan is not active: " +
                           plan.fallback_reason());
  if (n_amps != (1ull << plan.num_qubits()))
    throw std::invalid_argument("pipeline::run_sweep: array size mismatch");
  const simd::detail::KernelsT<T>& k = active_family<T>();
  const PhaseCtxT<T> no_phase;
  obs::Span span("pipeline_sweep");
  span.attr("n", plan.num_qubits());
  for (const LayerPass& p : plan.passes()) {
    if (p.strided) {
      strided_pass_counter().add();
      run_strided_pass<T>(k, p, amp, n_amps, nullptr, c, s, exec);
    } else {
      tile_pass_counter().add();
      run_tile_pass<T>(k, p, amp, n_amps, no_phase, 0.0, nullptr, c, s,
                       exec);
    }
  }
}

}  // namespace

void run_layer(const LayerPlan& plan, cdouble* amp, std::uint64_t n_amps,
               const PhaseCtx& phase, double gamma, double beta, Exec exec) {
  run_layer_impl(plan, amp, n_amps, phase, gamma, beta, exec, nullptr,
                 nullptr);
}

void run_layer(const LayerPlan& plan, cfloat* amp, std::uint64_t n_amps,
               const PhaseCtxF32& phase, double gamma, double beta,
               Exec exec) {
  run_layer_impl(plan, amp, n_amps, phase, gamma, beta, exec, nullptr,
                 nullptr);
}

bool can_fuse_expectation(const LayerPlan& plan, std::uint64_t n_amps) {
  if (!plan.active() || plan.passes().empty()) return false;
  if (n_amps < static_cast<std::uint64_t>(kReduceBlock)) return false;
  const LayerPass& last = plan.passes().back();
  // The final pass's unit width must hold whole kReduceBlocks so fused
  // partial blocks align with the two-pass decomposition; a trailing
  // elementwise multiply would have to run before the reduction read,
  // which no current plan shape produces (Fwht's Popcount lands on the
  // middle pass) — checked anyway so new plan shapes fail safe.
  if ((std::uint64_t{1} << last.width_log2) <
      static_cast<std::uint64_t>(kReduceBlock))
    return false;
  return last.post == PassPhase::None;
}

void run_layer_expectation(const LayerPlan& plan, cdouble* amp,
                           std::uint64_t n_amps, const PhaseCtx& phase,
                           double gamma, double beta, Exec exec,
                           const ExpectationCtx& reduce, double* partials) {
  if (!can_fuse_expectation(plan, n_amps))
    throw std::logic_error(
        "pipeline::run_layer_expectation: plan cannot carry a fused "
        "expectation (see can_fuse_expectation)");
  if (!reduce.costs && !reduce.codes)
    throw std::invalid_argument(
        "pipeline::run_layer_expectation: ExpectationCtx needs costs or "
        "codes");
  static const obs::Counter fused_reductions =
      obs::counter("qokit_pipeline_fused_reductions_total");
  fused_reductions.add();
  run_layer_impl(plan, amp, n_amps, phase, gamma, beta, exec, &reduce,
                 partials);
}

void run_layer_expectation(const LayerPlan& plan, cfloat* amp,
                           std::uint64_t n_amps, const PhaseCtxF32& phase,
                           double gamma, double beta, Exec exec,
                           const ExpectationCtx& reduce, double* partials) {
  if (!can_fuse_expectation(plan, n_amps))
    throw std::logic_error(
        "pipeline::run_layer_expectation: plan cannot carry a fused "
        "expectation (see can_fuse_expectation)");
  if (!reduce.costs && !reduce.codes)
    throw std::invalid_argument(
        "pipeline::run_layer_expectation: ExpectationCtx needs costs or "
        "codes");
  static const obs::Counter fused_reductions =
      obs::counter("qokit_pipeline_fused_reductions_total");
  fused_reductions.add();
  run_layer_impl(plan, amp, n_amps, phase, gamma, beta, exec, &reduce,
                 partials);
}

void run_sweep(const LayerPlan& plan, cdouble* amp, std::uint64_t n_amps,
               double c, double s, Exec exec) {
  run_sweep_impl(plan, amp, n_amps, c, s, exec);
}

void run_sweep(const LayerPlan& plan, cfloat* amp, std::uint64_t n_amps,
               double c, double s, Exec exec) {
  run_sweep_impl(plan, amp, n_amps, c, s, exec);
}

}  // namespace qokit::pipeline
