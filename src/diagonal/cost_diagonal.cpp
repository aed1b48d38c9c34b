#include "diagonal/cost_diagonal.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/bitops.hpp"
#include "obs/obs.hpp"

namespace qokit {

/// Derived-value cache: filled lazily, at most once per field group.
/// std::once_flag is the one raw <mutex> primitive the project linter
/// permits outside common/sync.hpp: call_once carries its own complete
/// discipline (the callable runs exactly once, happens-before every
/// return), so there is no lock protocol left for the thread-safety
/// analysis to check.
struct CostDiagonal::Cache {
  std::once_flag extrema_once;
  double min = 0.0;
  double max = 0.0;
  std::once_flag sector_once;
  std::vector<double> sector_min;  // indexed by Hamming weight, size n+1
};

CostDiagonal::CostDiagonal() : cache_(std::make_shared<Cache>()) {}

CostDiagonal::Cache& CostDiagonal::cache() const {
  // Every constructed CostDiagonal owns a cache box; a moved-from object
  // loses it. Recreate on (single-threaded) reuse of such an object.
  if (!cache_) cache_ = std::make_shared<Cache>();
  return *cache_;
}

namespace {

/// log2 of the transform block: 2^12 doubles = 32 KiB, one L1d. A constant,
/// not a knob: it fixes the summation order, which every caller shares.
constexpr int kBlockLog2 = 12;

/// f over the 2^l block with high index bits `b`, in place: scatter each
/// term into its low-mask slot, signed by its high mask's parity against b,
/// then l unnormalized Walsh-Hadamard butterfly passes.
void transform_block(const TermList& terms, std::uint64_t b, int l,
                     double* blk) {
  const std::uint64_t width = dim_of(l);
  std::fill(blk, blk + width, 0.0);
  for (const Term& t : terms)
    blk[t.mask & (width - 1)] += t.weight * parity_sign(b, t.mask >> l);
  for (std::uint64_t h = 1; h < width; h <<= 1)
    for (std::uint64_t i = 0; i < width; i += 2 * h)
      for (std::uint64_t j = i; j < i + h; ++j) {
        const double lo = blk[j];
        const double hi = blk[j + h];
        blk[j] = lo + hi;
        blk[j + h] = lo - hi;
      }
}

}  // namespace

void fill_cost_diagonal(const TermList& terms, std::uint64_t begin,
                        std::uint64_t end, double* out, Exec exec) {
  for (std::size_t k = 0; k < terms.size(); ++k)
    if (!std::isfinite(terms[k].weight))
      throw std::invalid_argument("fill_cost_diagonal: term " +
                                  std::to_string(k) + " has non-finite weight");
  if (end <= begin) return;
  const int l = std::min(terms.num_qubits(), kBlockLog2);
  const std::uint64_t width = dim_of(l);
  const std::uint64_t first = (begin >> l) << l;
  // One block per task, schedule(static): each output is written by the
  // thread that owns its block, the paper's element-owned locality.
  parallel_for_blocks(
      exec, static_cast<std::int64_t>(end - first),
      static_cast<std::int64_t>(width), [&](std::int64_t lo, std::int64_t) {
        const std::uint64_t x0 = first + static_cast<std::uint64_t>(lo);
        if (x0 >= begin && x0 + width <= end)
          return transform_block(terms, x0 >> l, l, out + (x0 - begin));
        aligned_vector<double> blk(width);
        transform_block(terms, x0 >> l, l, blk.data());
        const std::uint64_t from = std::max(x0, begin);
        const std::uint64_t to = std::min(x0 + width, end);
        std::copy(blk.begin() + (from - x0), blk.begin() + (to - x0),
                  out + (from - begin));
      });
}

CostDiagonal CostDiagonal::precompute(const TermList& terms, Exec exec) {
  static const obs::Counter precomputes =
      obs::counter("qokit_precomputes_total");
  static const obs::Histogram precompute_hist =
      obs::histogram("qokit_precompute_ns");
  precomputes.add();
  obs::Span span("precompute", precompute_hist);
  span.attr("n", terms.num_qubits());
  span.attr("terms", static_cast<std::int64_t>(terms.size()));
  CostDiagonal d;
  d.n_ = terms.num_qubits();
  // Unwritten until the transform's parallel blocks write (and first
  // touch) it: aligned_vector(n) does not zero-fill.
  d.values_.resize(dim_of(d.n_));
  fill_cost_diagonal(terms, 0, d.values_.size(), d.values_.data(), exec);
  return d;
}

CostDiagonal CostDiagonal::from_function(
    int num_qubits, const std::function<double(std::uint64_t)>& f, Exec exec) {
  CostDiagonal d;
  d.n_ = num_qubits;
  const std::int64_t dim = static_cast<std::int64_t>(dim_of(num_qubits));
  d.values_.resize(dim);  // every entry written below
  double* out = d.values_.data();
  parallel_for(exec, 0, dim, [&](std::int64_t x) {
    out[x] = f(static_cast<std::uint64_t>(x));
  });
  return d;
}

CostDiagonal CostDiagonal::from_values(int num_qubits,
                                       aligned_vector<double> values) {
  if (values.size() != dim_of(num_qubits))
    throw std::invalid_argument("from_values: size must be 2^n");
  CostDiagonal d;
  d.n_ = num_qubits;
  d.values_ = std::move(values);
  return d;
}

CostDiagonal::Cache& CostDiagonal::ensure_extrema() const {
  if (values_.empty()) throw std::logic_error("extrema: empty diagonal");
  Cache& c = cache();
  std::call_once(c.extrema_once, [&] {
    const auto [lo, hi] = std::minmax_element(values_.begin(), values_.end());
    c.min = *lo;
    c.max = *hi;
  });
  return c;
}

double CostDiagonal::min_value() const { return ensure_extrema().min; }

double CostDiagonal::max_value() const { return ensure_extrema().max; }

double CostDiagonal::sector_min(int weight) const {
  if (values_.empty()) throw std::logic_error("sector_min: empty diagonal");
  if (weight < 0 || weight > n_)
    throw std::invalid_argument("sector_min: weight outside [0, n]");
  Cache& c = cache();
  std::call_once(c.sector_once, [&] {
    std::vector<double> m(static_cast<std::size_t>(n_) + 1,
                          std::numeric_limits<double>::infinity());
    for (std::uint64_t x = 0; x < values_.size(); ++x) {
      double& slot = m[static_cast<std::size_t>(popcount(x))];
      slot = std::min(slot, values_[x]);
    }
    c.sector_min = std::move(m);
  });
  return c.sector_min[static_cast<std::size_t>(weight)];
}

std::uint64_t CostDiagonal::ground_state_count(double tol) const {
  const double lo = min_value();
  std::uint64_t count = 0;
  for (double v : values_)
    if (v <= lo + tol) ++count;
  return count;
}

}  // namespace qokit
