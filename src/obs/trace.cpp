// Scoped spans and the per-thread trace-event buffers.
#include "obs/obs_internal.hpp"

namespace qokit::obs {

namespace detail {

int& span_depth() noexcept {
  thread_local int depth = 0;
  return depth;
}

void push_event(const TraceEvent& event) noexcept {
  Global& g = global();
  Shard& s = my_shard();
  const MutexLock lock(s.events_mu);
  if (s.events.size() >= static_cast<std::size_t>(kMaxShardEvents)) {
    g.dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (s.events.size() == s.events.capacity())
    g.allocs.fetch_add(1, std::memory_order_relaxed);
  s.events.push_back(event);
}

}  // namespace detail

void Span::open(const char* name) noexcept {
  name_ = name;
  start_ = detail::now_ns();
  depth_ = detail::span_depth()++;
}

void Span::close() noexcept {
  --detail::span_depth();
  detail::TraceEvent e;
  e.name = name_;
  e.ts_ns = start_;
  e.dur_ns = detail::now_ns() - start_;
  e.tid = detail::my_shard().tid;
  e.depth = depth_;
  e.n_attrs = n_attrs_;
  for (int i = 0; i < n_attrs_; ++i) e.attrs[i] = attrs_[i];
  detail::push_event(e);
  if (hist_) hist_->record(e.dur_ns);
}

std::uint64_t trace_event_count() {
  using namespace detail;
  Global& g = global();
  const MutexLock lock(g.mu);
  std::uint64_t total = g.retired_events.size();
  for (Shard* s = g.shards; s; s = s->next) {
    const MutexLock elock(s->events_mu);
    total += s->events.size();
  }
  return total;
}

std::uint64_t dropped_event_count() {
  return detail::global().dropped.load(std::memory_order_relaxed);
}

}  // namespace qokit::obs
