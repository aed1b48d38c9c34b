#include "dist/communicator.hpp"

#include <exception>
#include <stdexcept>
#include <thread>

#include "common/bitops.hpp"
#include "obs/obs.hpp"

namespace qokit {

double Communicator::allreduce_sum(double value) {
  static const obs::Counter allreduces =
      obs::counter("qokit_allreduce_total");
  allreduces.add();
  auto& st = *state_;
  st.reduce_slots[rank_] = value;
  st.barrier.arrive_and_wait();
  // Every rank sums in rank order, so all ranks see the identical total
  // regardless of thread scheduling.
  double total = 0.0;
  for (int r = 0; r < st.size; ++r) total += st.reduce_slots[r];
  // Exit barrier so the slots can be re-published immediately afterwards.
  st.barrier.arrive_and_wait();
  return total;
}

VirtualRankWorld::VirtualRankWorld(int size) : size_(size) {
  if (size < 1 || (static_cast<unsigned>(size) &
                   (static_cast<unsigned>(size) - 1u)) != 0u)
    throw std::invalid_argument(
        "VirtualRankWorld: rank count must be a power of two >= 1, got " +
        std::to_string(size));
}

void VirtualRankWorld::run(const std::function<void(Communicator&)>& fn)
    const {
  detail::WorldState state(size_);

  if (size_ == 1) {
    // Single rank: run inline; barriers over a one-thread team are no-ops
    // and exceptions propagate naturally.
    Communicator comm(0, &state);
    fn(comm);
    return;
  }

  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(size_));
  std::vector<std::thread> team;
  team.reserve(static_cast<std::size_t>(size_));
  for (int r = 0; r < size_; ++r)
    team.emplace_back([&, r] {
      Communicator comm(r, &state);
      try {
        fn(comm);
      } catch (...) {
        errors[r] = std::current_exception();
        // Mark the world failed, then leave the barrier so surviving
        // ranks are released rather than deadlocked; they observe the
        // flag at their next barrier and abandon any exchange in flight.
        state.failed.store(true, std::memory_order_release);
        state.barrier.arrive_and_drop();
      }
    });
  for (auto& t : team) t.join();
  for (auto& e : errors)
    if (e) std::rethrow_exception(e);
}

}  // namespace qokit
