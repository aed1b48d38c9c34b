// Shared internals of the observability layer (registry.cpp, trace.cpp,
// export.cpp). Not part of the public surface.
#pragma once

#include <array>
#include <chrono>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/sync.hpp"
#include "obs/obs.hpp"

namespace qokit::obs::detail {

/// Fixed metric-cell arena per shard. Counters take one cell, histograms
/// bounds+2 (per-bound buckets, overflow, sum). Registration throws once
/// the arena is exhausted — the metric set is code, not data, so the cap
/// is a static budget, not a runtime limit.
inline constexpr int kMaxCells = 1024;
inline constexpr int kMaxGauges = 64;
/// Per-thread trace-event retention; spans beyond it are dropped and
/// counted so a runaway obs-on loop stays memory-bounded.
inline constexpr int kMaxShardEvents = 1 << 15;
/// Cross-thread retention for events of finished threads (the distributed
/// simulator retires one rank team per simulate call).
inline constexpr int kMaxRetainedEvents = 1 << 17;

/// A finished span, ready for chrome://tracing export.
struct TraceEvent {
  const char* name = nullptr;
  std::uint64_t ts_ns = 0;   ///< start, relative to the process epoch
  std::uint64_t dur_ns = 0;
  int tid = 0;   ///< obs-assigned sequential thread id
  int depth = 0; ///< nesting depth at open (0 = top-level)
  int n_attrs = 0;
  Attr attrs[kMaxSpanAttrs];
};

/// One thread's slice of the registry: metric cells it alone writes
/// (relaxed atomics so scrapes may read concurrently) plus its trace
/// buffer (guarded by a tiny mutex taken on span close and drain only —
/// never by other threads' hot paths).
///
/// Lock order: Global::mu before events_mu, always. Cross-thread drains
/// (export, reset, retire) walk the shard list under Global::mu and take
/// each shard's events_mu nested inside it; the owning thread's span-close
/// path takes events_mu alone and never touches Global::mu.
struct Shard {
  std::array<std::atomic<std::uint64_t>, kMaxCells> cells{};
  Mutex events_mu;
  std::vector<TraceEvent> events QOKIT_GUARDED_BY(events_mu);
  int tid = 0;
  /// Intrusive shard-list link. Guarded by Global::mu like the list head
  /// it chains from (not annotated: clang's capability expressions cannot
  /// name another struct's member from here; the head pointer
  /// Global::shards carries the GUARDED_BY, and every traversal starts
  /// there).
  Shard* next = nullptr;
};

enum class MetricKind { Counter, Gauge, Histogram };

struct MetricDef {
  std::string name;
  MetricKind kind = MetricKind::Counter;
  int cell = -1;        ///< first cell (counter: 1, histogram: bounds+2)
  int gauge_slot = -1;  ///< gauges only
  std::vector<std::uint64_t> bounds;  ///< histograms only; heap buffer is
                                      ///< stable, handles point into it
};

/// Process-wide registry state. Leaked on purpose: threads may retire
/// shards during program teardown, so the registry must outlive every
/// static destructor.
struct Global {
  Mutex mu;  ///< metric defs, shard list, retired accumulators
  std::vector<MetricDef> metrics QOKIT_GUARDED_BY(mu);
  /// name -> metrics index
  std::unordered_map<std::string, int> index QOKIT_GUARDED_BY(mu);
  int next_cell QOKIT_GUARDED_BY(mu) = 0;
  int next_gauge QOKIT_GUARDED_BY(mu) = 0;
  std::array<std::atomic<std::uint64_t>, kMaxGauges> gauges{};  ///< bits
  /// Live shards, intrusive list (each link's events_mu nests inside mu;
  /// see Shard).
  Shard* shards QOKIT_GUARDED_BY(mu) = nullptr;
  /// Dead threads' cells.
  std::array<std::uint64_t, kMaxCells> retired QOKIT_GUARDED_BY(mu){};
  std::vector<TraceEvent> retired_events QOKIT_GUARDED_BY(mu);
  std::atomic<int> next_tid{1};
  std::atomic<std::uint64_t> allocs{0};
  std::atomic<std::uint64_t> dropped{0};
  std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
};

Global& global();

/// This thread's shard, created (and linked into the registry) on first
/// use. Retired — cells merged, events moved — when the thread exits.
Shard& my_shard();

/// Nanoseconds since the registry epoch.
std::uint64_t now_ns() noexcept;

/// Append a finished span to this thread's buffer (bounded; drops count).
void push_event(const TraceEvent& event) noexcept;

/// Where the next span this thread opens lands: its nesting depth, and
/// the thread id its event records under (0: this thread's own). An
/// adopted span (Span's parent-taking constructor) moves it under its
/// parent while open.
struct TracePosition {
  int depth = 0;
  int tid = 0;
};
TracePosition& trace_position() noexcept;

}  // namespace qokit::obs::detail
