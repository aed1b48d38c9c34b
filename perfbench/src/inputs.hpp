// Workload inputs as pure functions of the workload seed.
//
// Everything a run feeds the library -- graphs, schedules, the cold-problem
// seeds of serve-mixed, the diagonal indices fresh-labs checks -- is
// derived here from (seed, stream, index) through splitmix64, so the same
// seed gives the same inputs in every run and on every machine, and the
// library only ever sees the generated values.
#pragma once

#include <cstdint>
#include <vector>

#include "optimize/params.hpp"
#include "problems/graph.hpp"

namespace perfbench {

// Workload sizes; the defaults are the published workloads, and
// Config::use_small_sizes() shrinks them for the self-tests.

struct MaxcutSizes {
  int n = 18;
  int p = 6;
  int setups_per_round = 3; ///< fresh sessions built per round (setup_s)
  int budget = 200;         ///< Nelder-Mead evaluation budget per optimize
  int evals_per_round = 50;
  int min_evals = 100;      ///< fixes the tail at p90
  int min_rounds = 3;
  int check_every = 8;      ///< every k-th evaluate is checked
};

struct LabsSizes {
  int n = 20;
  int p = 6;
  int min_sessions = 20;    ///< fixes the tail at p50
  int check_indices = 64;   ///< diagonal entries checked per session
};

struct ServeSizes {
  int n = 16;
  int p = 4;
  int schedules = 4;        ///< schedules per request
  int pool = 64;            ///< schedule sets each hot problem draws from
  int hot = 8;              ///< warmed MaxCut problems
  int cold_every = 10;      ///< request k is cold when k % this == this-1
  int cold_slots = 4;       ///< cold sessions the cache budget holds
  int clients = 4;
  int workers = 4;
  int setups = 5;           ///< server start + warm-ups, before and after
                            ///< the load (setup_s)
  int min_requests = 1000;  ///< fixes the tail at p99
};

/// Independent streams of one seed.
enum class Stream : std::uint64_t {
  Graph = 1,
  SetupSchedule,
  OptimizeStart,
  EvalSchedule,
  LabsSchedule,
  LabsIndices,
  ServeSchedule,
  ServeColdSchedule,
  ServeCold,
  ServeSet,
};

/// splitmix64 finalizer of (seed, stream, index).
std::uint64_t mix(std::uint64_t seed, Stream stream, std::uint64_t index = 0);

/// Small deterministic generator (splitmix64 sequence).
class Prng {
 public:
  explicit Prng(std::uint64_t key) : state_(key) {}
  std::uint64_t next();
  double uniform(double lo, double hi);

 private:
  std::uint64_t state_;
};

/// A p-layer schedule with gammas in [-gmax, gmax] and betas in
/// [-bmax, bmax].
qokit::QaoaParams random_schedule(std::uint64_t key, int p, double gmax,
                                  double bmax);

/// Seeded random 3-regular graph on n vertices (graph `index` of the seed).
qokit::Graph regular3_graph(std::uint64_t seed, int n,
                            std::uint64_t index = 0);

/// `count` basis-state indices in [0, 2^n) for session `session`.
std::vector<std::uint64_t> labs_check_indices(std::uint64_t seed,
                                              std::uint64_t session, int n,
                                              int count);

/// LABS sidelobe energy sum_k C_k^2 of bitstring x, from the aperiodic
/// autocorrelations C_k = sum_i s_i s_{i+k} with s_i = 1 - 2 x_i. Written
/// here from the definition, sharing no code with the library.
double labs_energy_reference(std::uint64_t x, int n);

/// One serve-mixed request, as a function of (seed, request index k).
/// Hot requests draw one of `pool` schedule sets of their problem, so an
/// oracle value can be computed once per set; cold requests get their own.
struct ServeItem {
  bool cold = false;
  int hot = 0;                     ///< hot-set problem index (if !cold)
  int set = 0;                     ///< schedule set in the pool (if !cold)
  std::uint64_t cold_seed = 0;     ///< SK instance seed (if cold)
  std::vector<qokit::QaoaParams> schedules;
};
ServeItem serve_item(std::uint64_t seed, std::uint64_t k,
                     const ServeSizes& sizes);

/// Schedule set `set` of hot problem `hot` (what serve_item hands out).
std::vector<qokit::QaoaParams> serve_hot_schedules(std::uint64_t seed, int hot,
                                                   int set,
                                                   const ServeSizes& sizes);

}  // namespace perfbench
