// The alltoall transport of the distributed simulator (paper Sec. III-C):
// the qubit-reordering exchange of Algorithm 4 is a K-rank block
// transpose. After the exchange, rank r's block b holds what rank b held
// in block r.
//
// One schedule realizes it: K-1 XOR-scheduled pairwise rounds. In round
// s ranks r and r^s swap block r^s of r with block r of r^s directly, one
// copy per element. This is the round structure a real MPI_Sendrecv (or
// GPU peer-to-peer) transport implements, so a multi-node backend swaps
// the in-process std::swap_ranges for a send/receive pair and keeps the
// schedule.
#include <algorithm>
#include <chrono>

#include "dist/communicator.hpp"
#include "obs/obs.hpp"

namespace qokit {

namespace {

using detail::WorldState;

/// Instrumentation: calls / exchanged bytes / barrier rounds counters plus
/// a histogram of time this rank spent waiting at barriers (the
/// load-imbalance signal).
struct AlltoallMetrics {
  obs::Counter calls;
  obs::Counter bytes;
  obs::Counter rounds;
  obs::Histogram wait_ns;
};

const AlltoallMetrics& alltoall_metrics() {
  static const AlltoallMetrics m{obs::counter("qokit_alltoall_calls_total"),
                                 obs::counter("qokit_alltoall_bytes_total"),
                                 obs::counter("qokit_alltoall_rounds_total"),
                                 obs::histogram("qokit_alltoall_wait_ns")};
  return m;
}

/// Barrier arrival that accumulates this rank's wait time into *wait_ns
/// when observability is on (wait_ns == nullptr otherwise — the barrier
/// call itself is then untouched).
void barrier_wait(WorldState& st, std::uint64_t* wait_ns) {
  if (!wait_ns) {
    st.barrier.arrive_and_wait();
    return;
  }
  const auto t0 = std::chrono::steady_clock::now();
  st.barrier.arrive_and_wait();
  *wait_ns += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

/// K-1 XOR-scheduled rounds of direct block swaps. In round s the pair
/// (r, r^s) swaps r's block r^s with (r^s)'s block r; the lower rank
/// performs the swap while the higher one holds at the round barrier.
/// Each block is touched in exactly one round, so the rounds compose into
/// the full transpose with a single copy per element. Templated on the
/// amplitude type (the f32 exchange moves half the bytes).
template <class C>
void alltoall_pairwise(WorldState& st, int rank, C* buf, std::uint64_t block,
                       std::uint64_t* wait_ns) {
  const int k = st.size;
  st.windows[rank] = buf;
  barrier_wait(st, wait_ns);
  for (int s = 1; s < k; ++s) {
    // A peer that threw never (re)published its window; abandon the
    // exchange rather than swap through a stale or null pointer. run()
    // re-throws the peer's exception once the team joins.
    if (st.failed.load(std::memory_order_acquire)) return;
    const int peer = rank ^ s;
    if (rank < peer) {
      C* mine = buf + static_cast<std::uint64_t>(peer) * block;
      C* theirs = static_cast<C*>(st.windows[peer]) +
                  static_cast<std::uint64_t>(rank) * block;
      std::swap_ranges(mine, mine + block, theirs);
    }
    barrier_wait(st, wait_ns);
  }
}

/// Shared body of the two public alltoall overloads: instrumentation plus
/// the exchange, with xfer_bytes charged at the actual element width.
template <class C>
void alltoall_impl(WorldState& st, int rank, C* buf, std::uint64_t block) {
  if (st.size == 1) return;  // self-exchange is the identity
  const bool observed = obs::enabled();
  const int k = st.size;
  const std::uint64_t xfer_bytes =
      static_cast<std::uint64_t>(k) * block * sizeof(C);
  obs::Span span("alltoall");
  std::uint64_t wait_acc = 0;
  std::uint64_t* wait_ns = nullptr;
  if (observed) {
    const AlltoallMetrics& m = alltoall_metrics();
    m.calls.add();
    m.bytes.add(xfer_bytes);
    // One barrier-synchronized swap round per peer.
    m.rounds.add(static_cast<std::uint64_t>(k - 1));
    span.attr("bytes", xfer_bytes);
    span.attr("ranks", k);
    wait_ns = &wait_acc;
  }
  alltoall_pairwise(st, rank, buf, block, wait_ns);
  if (observed) alltoall_metrics().wait_ns.record(wait_acc);
}

}  // namespace

void Communicator::alltoall(cdouble* buf, std::uint64_t block) {
  alltoall_impl(*state_, rank_, buf, block);
}

void Communicator::alltoall(cfloat* buf, std::uint64_t block) {
  alltoall_impl(*state_, rank_, buf, block);
}

}  // namespace qokit
