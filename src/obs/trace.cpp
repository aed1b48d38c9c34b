// Scoped spans and the per-thread trace-event buffers.
#include "obs/obs_internal.hpp"

namespace qokit::obs {

namespace detail {

TracePosition& trace_position() noexcept {
  thread_local TracePosition pos;
  return pos;
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

Span::Span(const char* name, const Histogram& hist,
           const Span& parent) noexcept
    : live_(parent.live_ && enabled()) {
  if (!live_) return;
  hist_ = &hist;
  adopted_ = true;
  name_ = name;
  start_ = detail::now_ns();
  depth_ = parent.depth_ + 1;
  tid_ = parent.tid_;
  detail::TracePosition& pos = detail::trace_position();
  prev_depth_ = pos.depth;
  prev_tid_ = pos.tid;
  pos = {depth_ + 1, tid_};
}

void Span::open(const char* name) noexcept {
  name_ = name;
  start_ = detail::now_ns();
  detail::TracePosition& pos = detail::trace_position();
  depth_ = pos.depth++;
  tid_ = pos.tid ? pos.tid : detail::my_shard().tid;
}

void Span::close() noexcept {
  detail::TracePosition& pos = detail::trace_position();
  if (adopted_)
    pos = {prev_depth_, prev_tid_};
  else
    --pos.depth;
  detail::TraceEvent e;
  e.name = name_;
  e.ts_ns = start_;
  e.dur_ns = detail::now_ns() - start_;
  e.tid = tid_;
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
