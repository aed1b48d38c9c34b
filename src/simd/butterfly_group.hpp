// Register-blocked butterflies: the one radix traversal every vector kernel
// family instantiates, and the per-qubit decomposition that defines it.
//
// A group of the qubits [q, q + m) (1 <= m <= 3) is the 2^m amplitudes
//
//     group_base(g, q, m) + r * 2^q,   r in [0, 2^m),
//
// named by a group index g in [0, n_amps >> m). For m = 1 the group index
// is the pair index of the per-qubit kernels (rx_pairs, hadamard_pairs).
// KernelsT::butterfly_group(x, q, m, gb, ge, ...) applies the butterflies of
// qubits q, q + 1, ..., q + m - 1, in that order, to every group in
// [gb, ge). Its bits are *defined* by group_per_qubit below: split the
// groups into the ranges walk_groups yields, then make one per-qubit call
// per range and qubit. Every family meets that definition bit for bit:
//
//  - the scalar family is group_per_qubit over its own pair loops;
//  - a vector family runs RadixGroup<Ops>. Per register block it loads 2^m
//    registers at the qubit strides (fewer when the low qubits sit inside
//    one register), applies the m levels in ascending qubit order, and
//    stores once. Each lane computes the same fma(c, a, s * m) or
//    (a +- b) * k as the family's per-qubit kernel, and the pairs that
//    kernel hands to its tail go to the same tail here. Only the traversal
//    order changes, and each amplitude still sees qubit q before q + 1.
//
// A vector family's per-qubit entries are RadixGroup with m = 1, so each
// ISA writes its lane math once, in its Ops struct.
#pragma once

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>

#include "common/bitops.hpp"
#include "simd/kernels.hpp"

namespace qokit::simd::detail {

/// Row-0 amplitude of group g: m zero bits inserted at bit q.
inline std::uint64_t group_base(std::uint64_t g, int q, int m) noexcept {
  const std::uint64_t low = g & ((1ull << q) - 1);
  return ((g >> q) << (q + m)) | low;
}

/// Group index of amplitude i (bits q..q+m-1 of i clear): group_base's
/// inverse.
inline std::uint64_t group_index(std::uint64_t i, int q, int m) noexcept {
  const std::uint64_t low = i & ((1ull << q) - 1);
  return ((i >> (q + m)) << q) | low;
}

/// Split groups [gb, ge) into the ranges a per-qubit kernel sees. Whole
/// 2^(q+m)-amplitude blocks merge into span(a0, len), the contiguous
/// amplitudes [a0, a0 + len). A partial column run of `run` < 2^q groups
/// becomes rows(base, run): row r holds `run` amplitudes from
/// base + r * 2^q.
template <class Span, class Rows>
void walk_groups(int q, int m, std::uint64_t gb, std::uint64_t ge,
                 Span&& span, Rows&& rows) {
  const std::uint64_t cols = 1ull << q;
  for (std::uint64_t g = gb; g < ge;) {
    const std::uint64_t off = g & (cols - 1);
    if (off == 0 && ge - g >= cols) {
      const std::uint64_t whole = (ge - g) & ~(cols - 1);
      span(g << m, whole << m);
      g += whole;
    } else {
      const std::uint64_t run = std::min(ge - g, cols - off);
      rows(group_base(g, q, m), run);
      g += run;
    }
  }
}

/// Qubits [q, q + m) one at a time over `run` columns of each row from
/// `base` (row stride 2^q): one pairs(qubit, kb, ke) call per row pair.
template <class Pairs>
void rows_per_qubit(int q, int m, std::uint64_t base, std::uint64_t run,
                    Pairs&& pairs) {
  for (int j = 0; j < m; ++j)
    for (std::uint64_t r = 0; r < (1ull << m); ++r) {
      if ((r >> j) & 1) continue;
      const std::uint64_t kb = remove_bit(base + (r << q), q + j);
      pairs(q + j, kb, kb + run);
    }
}

/// The definition of butterfly_group: qubits [q, q + m) one at a time,
/// one pairs(qubit, kb, ke) call per walk_groups range.
template <class Pairs>
void group_per_qubit(int q, int m, std::uint64_t gb, std::uint64_t ge,
                     Pairs&& pairs) {
  walk_groups(
      q, m, gb, ge,
      [&](std::uint64_t a0, std::uint64_t len) {
        for (int j = 0; j < m; ++j) pairs(q + j, a0 >> 1, (a0 + len) >> 1);
      },
      [&](std::uint64_t base, std::uint64_t run) {
        rows_per_qubit(q, m, base, run, pairs);
      });
}

#if QOKIT_SIMD_X86
/// Returns v unchanged but opaque to the optimizer. GCC treats the add and
/// mul intrinsics as plain vector arithmetic, so without this a Hadamard
/// level's (a + b) * k would be fused into an FMA with the next level's add
/// in the same register block, rounding differently from the per-qubit
/// kernels the block must equal.
template <class V>
inline V no_contract(V v) {
  asm("" : "+v"(v));
  return v;
}
#endif

/// The radix-2^m traversal over one ISA's register operations. Ops has:
///   T, V, Coef        amplitude scalar, register, broadcast coefficients
///   kLog2W            log2 of the complex amplitudes one register holds
///   in_register(l)    whether qubit l < kLog2W has an in-register
///                     butterfly; a qubit without one runs through tail()
///                     (as the family's per-qubit kernel does)
///   coef<K>(c, s), load(p), store(p, v)
///   cross<K>(a, b, k) the pair butterfly between two whole registers
///   in_reg<K>(a, l, k) the butterfly on qubit l inside one register
///   tail(K, x, qubit, kb, ke, c, s)  the per-qubit kernel that takes
///                     the pairs this family leaves to a narrower one
template <class Ops>
struct RadixGroup {
  using T = typename Ops::T;
  using V = typename Ops::V;
  using Coef = typename Ops::Coef;
  using C = std::complex<T>;
  static constexpr int kL = Ops::kLog2W;
  static constexpr std::uint64_t kW = 1ull << kL;

  static void run(C* x, int q, int m, std::uint64_t gb, std::uint64_t ge,
                  Butterfly kind, double c, double s) {
    if (kind == Butterfly::Rx)
      run_kind<Butterfly::Rx>(x, q, m, gb, ge, c, s);
    else
      run_kind<Butterfly::Hadamard>(x, q, m, gb, ge, c, s);
  }

 private:
  /// True when every qubit of [q, q + m) below the register width has an
  /// in-register butterfly.
  static bool fits(int q, int m) {
    for (int l = q; l < std::min(q + m, kL); ++l)
      if (!Ops::in_register(l)) return false;
    return true;
  }

  /// One register block: 2^kLog2R registers `rstride` scalars apart. The
  /// low M - kLog2R qubits act inside each register; each qubit q + j
  /// above them pairs register r with r | 2^(j - (M - kLog2R)). The loops
  /// are unrolled explicitly: v[] must live in registers, and compilers
  /// keep it on the stack when they leave the loops rolled.
  template <int M, int kLog2R, Butterfly K>
  static void block(T* p, std::uint64_t rstride, int q, const Coef& k) {
    constexpr int R = 1 << kLog2R;
    V v[R];
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) v[r] = Ops::load(p + r * rstride);
#pragma GCC unroll 3
    for (int j = 0; j < M - kLog2R; ++j)
#pragma GCC unroll 8
      for (int r = 0; r < R; ++r)
        v[r] = Ops::template in_reg<K>(v[r], q + j, k);
#pragma GCC unroll 3
    for (int j = M - kLog2R; j < M; ++j) {
      const int bit = 1 << (j - (M - kLog2R));
#pragma GCC unroll 8
      for (int r = 0; r < R; ++r)
        if (!(r & bit)) Ops::template cross<K>(v[r], v[r | bit], k);
    }
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) Ops::store(p + r * rstride, v[r]);
  }

  /// outer x inner register blocks: block (o, i) starts at amplitude
  /// a0 + o * ostep + i * kW, with registers rstride amplitudes apart.
  /// `k` is a by-value local: the unaligned stores may alias any memory,
  /// so coefficients behind a reference would be reloaded after each one.
  template <int M, int kLog2R, Butterfly K>
  static void sweep(T* d, std::uint64_t a0, std::uint64_t outer,
                    std::uint64_t ostep, std::uint64_t inner,
                    std::uint64_t rstride, int q, const Coef k) {
    for (std::uint64_t o = 0; o < outer; ++o)
      for (std::uint64_t i = 0; i < inner; ++i)
        block<M, kLog2R, K>(d + 2 * (a0 + o * ostep + i * kW), 2 * rstride,
                            q, k);
  }

  template <Butterfly K>
  static void dispatch(int m, int log2r, T* d, std::uint64_t a0,
                       std::uint64_t outer, std::uint64_t ostep,
                       std::uint64_t inner, std::uint64_t rstride, int q,
                       const Coef& k) {
    switch (m * 4 + log2r) {
      case 4: return sweep<1, 0, K>(d, a0, outer, ostep, inner, rstride, q, k);
      case 5: return sweep<1, 1, K>(d, a0, outer, ostep, inner, rstride, q, k);
      case 8: return sweep<2, 0, K>(d, a0, outer, ostep, inner, rstride, q, k);
      case 9: return sweep<2, 1, K>(d, a0, outer, ostep, inner, rstride, q, k);
      case 10: return sweep<2, 2, K>(d, a0, outer, ostep, inner, rstride, q, k);
      case 12: return sweep<3, 0, K>(d, a0, outer, ostep, inner, rstride, q, k);
      case 13: return sweep<3, 1, K>(d, a0, outer, ostep, inner, rstride, q, k);
      case 14: return sweep<3, 2, K>(d, a0, outer, ostep, inner, rstride, q, k);
      case 15: return sweep<3, 3, K>(d, a0, outer, ostep, inner, rstride, q, k);
      default: return;  // m outside [1, 3]: callers never pass one
    }
  }

  /// Qubits [q, q + m) over the whole blocks [a0, a0 + len).
  template <Butterfly K, class Tail>
  static void span(T* d, int q, int m, std::uint64_t a0, std::uint64_t len,
                   const Coef& k, Tail& tail) {
    // A low qubit without an in-register butterfly (or below one that
    // lacks it) runs alone first, exactly as its per-qubit kernel would.
    for (; m > 0 && !fits(q, m); ++q, --m) {
      if (Ops::in_register(q))
        span<K>(d, q, 1, a0, len, k, tail);
      else
        tail(q, a0 >> 1, (a0 + len) >> 1);
    }
    if (m == 0) return;
    if (q >= kL) {
      // 2^m rows of 2^q columns per block, one register of columns at a
      // time.
      dispatch<K>(m, m, d, a0, len >> (q + m), 1ull << (q + m),
                  1ull << (q - kL), 1ull << q, q, k);
      return;
    }
    // Low qubits inside the register: consecutive registers, each block
    // holding max(2^(q+m), kW) amplitudes. A remainder shorter than one
    // register goes to the tail, as in the per-qubit kernel.
    const std::uint64_t ustep = std::max<std::uint64_t>(1ull << (q + m), kW);
    const std::uint64_t units = len / ustep;
    dispatch<K>(m, std::max(0, q + m - kL), d, a0, units, ustep, 1, kW, q, k);
    const std::uint64_t done = a0 + units * ustep;
    if (done < a0 + len)
      for (int j = 0; j < m; ++j) tail(q + j, done >> 1, (a0 + len) >> 1);
  }

  template <Butterfly K>
  static void run_kind(C* x, int q, int m, std::uint64_t gb,
                       std::uint64_t ge, double c, double s) {
    T* d = reinterpret_cast<T*>(x);
    const Coef k = Ops::template coef<K>(c, s);
    auto tail = [&](int qubit, std::uint64_t kb, std::uint64_t ke) {
      Ops::tail(K, x, qubit, kb, ke, c, s);
    };
    walk_groups(
        q, m, gb, ge,
        [&](std::uint64_t a0, std::uint64_t len) {
          span<K>(d, q, m, a0, len, k, tail);
        },
        [&](std::uint64_t base, std::uint64_t run) {
          // Partial rows: whole registers of columns through the radix,
          // the last run % kW columns of each row through the tail.
          std::uint64_t vec = 0;
          if (q >= kL) {
            vec = run & ~(kW - 1);
            dispatch<K>(m, m, d, base, 1, 0, vec >> kL, 1ull << q, q, k);
          }
          if (vec < run) rows_per_qubit(q, m, base + vec, run - vec, tail);
        });
  }
};

/// KernelsT::mirror_rx over one ISA's register operations (Ops as for
/// RadixGroup, plus reverse(v): the register's complexes in reverse
/// order). The register at amplitude i meets the reversed register that
/// ends at i's mirror, and the two go through cross<Rx> -- the operation
/// qubit n-1 gets in RadixGroup -- so each lane computes fma(c, a, s * m)
/// on the two values the full state pairs. A range end short of a whole
/// register (the mirror pass issues none) takes the same per-lane fma in
/// scalar form.
template <class Ops>
struct MirrorRx {
  using T = typename Ops::T;
  using V = typename Ops::V;
  using C = std::complex<T>;
  static constexpr std::uint64_t kW = 1ull << Ops::kLog2W;

  static void run(C* x, std::uint64_t half, std::uint64_t kb,
                  std::uint64_t ke, double c, double s) {
    T* d = reinterpret_cast<T*>(x);
    const typename Ops::Coef k = Ops::template coef<Butterfly::Rx>(c, s);
    std::uint64_t i = kb;
    for (; i + kW <= ke; i += kW) {
      T* pa = d + 2 * i;
      T* pb = d + 2 * (half - i - kW);
      V a = Ops::load(pa);
      V b = Ops::reverse(Ops::load(pb));
      Ops::template cross<Butterfly::Rx>(a, b, k);
      Ops::store(pa, a);
      Ops::store(pb, Ops::reverse(b));
    }
    const T tc = static_cast<T>(c);
    const T ts = static_cast<T>(s);
    for (; i < ke; ++i) {
      T* a = d + 2 * i;
      T* b = d + 2 * (half - 1 - i);
      const T are = a[0], aim = a[1], bre = b[0], bim = b[1];
      a[0] = std::fma(tc, are, ts * bim);
      a[1] = std::fma(tc, aim, ts * -bre);
      b[0] = std::fma(tc, bre, ts * aim);
      b[1] = std::fma(tc, bim, ts * -are);
    }
  }
};

}  // namespace qokit::simd::detail
