// In-memory span recorder for the traced run.
//
// Spans are recorded by the benchmark's own code around each call it makes
// into one of the library's public functions; nothing inside src/ is
// instrumented. Each span has a name "<module>.<what>", a start and end on
// the steady clock, the span that was open on the same thread when it
// began (its parent), and a request id inherited from the parent unless
// given. Spans stay in memory until the run ends, then are written as a
// chrome://tracing document and folded into a self-time table.
//
// While tracing is off, which is how every end-to-end run executes, a span
// costs one relaxed atomic load.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench::trace {

struct Record {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t id = 0;
  std::int64_t parent = 0;  ///< 0 = root
  std::uint64_t request = 0;
  int tid = 0;
};

/// Steady-clock nanoseconds since the first call in the process.
std::uint64_t now_ns();

void set_enabled(bool on);
bool enabled();

/// Scoped span; records itself on destruction when tracing was on at
/// construction.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  bool live_;
  std::int64_t id_ = 0;
  std::int64_t parent_ = 0;
  std::uint64_t request_ = 0;
  std::uint64_t start_ = 0;
};

/// Record a span whose interval the benchmark learned from a value the
/// library reported (e.g. Response::queue_ns), as a child of the span
/// currently open on this thread.
void add_child(const char* name, std::uint64_t start_ns,
               std::uint64_t end_ns);

/// Every span recorded so far (all threads).
std::vector<Record> records();

/// Per-name totals: wall time of the spans and their self time, i.e. the
/// span's duration minus the part of it that its children cover.
struct SelfTime {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
};
std::vector<SelfTime> self_times(const std::vector<Record>& spans);

/// Sum of self time over every span whose name starts with "<module>.".
std::uint64_t module_self_ns(const std::vector<SelfTime>& table,
                             const std::string& module);

/// chrome://tracing (Trace Event Format) document of `spans`.
std::string chrome_json(const std::vector<Record>& spans);

}  // namespace perfbench::trace
