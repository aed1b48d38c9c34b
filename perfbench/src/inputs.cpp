#include "inputs.hpp"

namespace perfbench {
namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

std::uint64_t mix(std::uint64_t seed, Stream stream, std::uint64_t index) {
  return splitmix64(splitmix64(splitmix64(seed) ^
                               static_cast<std::uint64_t>(stream)) ^
                    index);
}

std::uint64_t Prng::next() {
  state_ += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state_;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Prng::uniform(double lo, double hi) {
  const double u = static_cast<double>(next() >> 11) * 0x1.0p-53;
  return lo + (hi - lo) * u;
}

qokit::QaoaParams random_schedule(std::uint64_t key, int p, double gmax,
                                  double bmax) {
  Prng rng(key);
  qokit::QaoaParams s;
  s.gammas.resize(p);
  s.betas.resize(p);
  for (int l = 0; l < p; ++l) {
    s.gammas[l] = rng.uniform(-gmax, gmax);
    s.betas[l] = rng.uniform(-bmax, bmax);
  }
  return s;
}

qokit::Graph regular3_graph(std::uint64_t seed, int n, std::uint64_t index) {
  return qokit::Graph::random_regular(n, 3, mix(seed, Stream::Graph, index));
}

std::vector<std::uint64_t> labs_check_indices(std::uint64_t seed,
                                              std::uint64_t session, int n,
                                              int count) {
  Prng rng(mix(seed, Stream::LabsIndices, session));
  const std::uint64_t dim = std::uint64_t{1} << n;
  std::vector<std::uint64_t> out(count);
  for (std::uint64_t& x : out) x = rng.next() & (dim - 1);
  return out;
}

double labs_energy_reference(std::uint64_t x, int n) {
  long long energy = 0;
  for (int k = 1; k < n; ++k) {
    long long c = 0;
    for (int i = 0; i + k < n; ++i) {
      const int si = ((x >> i) & 1) ? -1 : 1;
      const int sk = ((x >> (i + k)) & 1) ? -1 : 1;
      c += si * sk;
    }
    energy += c * c;
  }
  return static_cast<double>(energy);
}

namespace {

std::vector<qokit::QaoaParams> serve_schedules(std::uint64_t seed,
                                               Stream stream,
                                               std::uint64_t key,
                                               const ServeSizes& z) {
  std::vector<qokit::QaoaParams> out;
  for (int i = 0; i < z.schedules; ++i)
    out.push_back(random_schedule(
        mix(seed, stream, key * 64 + static_cast<unsigned>(i)), z.p, 0.6,
        0.9));
  return out;
}

}  // namespace

std::vector<qokit::QaoaParams> serve_hot_schedules(std::uint64_t seed, int hot,
                                                   int set,
                                                   const ServeSizes& z) {
  return serve_schedules(seed, Stream::ServeSchedule,
                         static_cast<std::uint64_t>(hot * z.pool + set), z);
}

ServeItem serve_item(std::uint64_t seed, std::uint64_t k,
                     const ServeSizes& z) {
  ServeItem item;
  const auto every = static_cast<std::uint64_t>(z.cold_every);
  item.cold = k % every == every - 1;
  if (item.cold) {
    item.cold_seed = mix(seed, Stream::ServeCold, k);
    item.schedules = serve_schedules(seed, Stream::ServeColdSchedule, k, z);
    return item;
  }
  item.hot = static_cast<int>(k % static_cast<std::uint64_t>(z.hot));
  item.set = static_cast<int>(mix(seed, Stream::ServeSet, k) %
                              static_cast<std::uint64_t>(z.pool));
  item.schedules = serve_hot_schedules(seed, item.hot, item.set, z);
  return item;
}

}  // namespace perfbench
