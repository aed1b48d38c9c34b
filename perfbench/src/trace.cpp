#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <utility>

namespace perfbench::trace {
namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::int64_t> g_next_id{1};
std::atomic<int> g_next_tid{1};

std::mutex g_mu;
std::vector<Record> g_records;  // guarded by g_mu

struct ThreadState {
  int tid = g_next_tid.fetch_add(1);
  std::vector<std::pair<std::int64_t, std::uint64_t>> open;  // id, request
};
thread_local ThreadState t_state;

void push(Record r) {
  const std::lock_guard<std::mutex> lock(g_mu);
  g_records.push_back(std::move(r));
}

}  // namespace

std::uint64_t now_ns() {
  static const auto origin = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - origin)
          .count());
}

void set_enabled(bool on) { g_enabled.store(on); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

Span::Span(const char* name, std::uint64_t request)
    : name_(name), live_(enabled()) {
  if (!live_) return;
  id_ = g_next_id.fetch_add(1);
  if (!t_state.open.empty()) {
    parent_ = t_state.open.back().first;
    request_ = t_state.open.back().second;
  }
  if (request) request_ = request;
  t_state.open.emplace_back(id_, request_);
  start_ = now_ns();
}

Span::~Span() {
  if (!live_) return;
  const std::uint64_t end = now_ns();
  t_state.open.pop_back();
  push(Record{name_, start_, end, id_, parent_, request_, t_state.tid});
}

void add_child(const char* name, std::uint64_t start_ns,
               std::uint64_t end_ns) {
  if (!enabled()) return;
  Record r{name, start_ns, std::max(start_ns, end_ns), g_next_id.fetch_add(1),
           0, 0, t_state.tid};
  if (!t_state.open.empty()) {
    r.parent = t_state.open.back().first;
    r.request = t_state.open.back().second;
  }
  push(std::move(r));
}

std::vector<Record> records() {
  const std::lock_guard<std::mutex> lock(g_mu);
  return g_records;
}

std::vector<SelfTime> self_times(const std::vector<Record>& spans) {
  // Children's intervals per parent, clipped to the parent and merged so
  // overlapping children (derived spans) are not subtracted twice.
  std::map<std::int64_t, std::vector<std::pair<std::uint64_t, std::uint64_t>>>
      children;
  for (const Record& r : spans)
    if (r.parent) children[r.parent].emplace_back(r.start_ns, r.end_ns);
  std::map<std::string, SelfTime> by_name;
  for (const Record& r : spans) {
    std::uint64_t covered = 0;
    auto it = children.find(r.id);
    if (it != children.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      std::uint64_t cur_b = 0, cur_e = 0;
      bool open = false;
      for (auto [b, e] : iv) {
        b = std::clamp(b, r.start_ns, r.end_ns);
        e = std::clamp(e, r.start_ns, r.end_ns);
        if (open && b <= cur_e) {
          cur_e = std::max(cur_e, e);
          continue;
        }
        if (open) covered += cur_e - cur_b;
        cur_b = b;
        cur_e = e;
        open = true;
      }
      if (open) covered += cur_e - cur_b;
    }
    SelfTime& s = by_name[r.name];
    s.name = r.name;
    ++s.count;
    const std::uint64_t dur = r.end_ns - r.start_ns;
    s.total_ns += dur;
    s.self_ns += dur - std::min(dur, covered);
  }
  std::vector<SelfTime> out;
  for (auto& [name, s] : by_name) out.push_back(s);
  std::sort(out.begin(), out.end(), [](const SelfTime& a, const SelfTime& b) {
    return a.self_ns > b.self_ns;
  });
  return out;
}

std::uint64_t module_self_ns(const std::vector<SelfTime>& table,
                             const std::string& module) {
  const std::string prefix = module + ".";
  std::uint64_t total = 0;
  for (const SelfTime& s : table)
    if (s.name.compare(0, prefix.size(), prefix) == 0) total += s.self_ns;
  return total;
}

std::string chrome_json(const std::vector<Record>& spans) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[512];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Record& r = spans[i];
    std::snprintf(
        buf, sizeof buf,
        "%s\n{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\",\"pid\":1,"
        "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,"
        "\"parent\":%lld,\"request\":%llu}}",
        i ? "," : "", r.name.c_str(),
        static_cast<int>(r.name.find('.') == std::string::npos
                             ? r.name.size()
                             : r.name.find('.')),
        r.name.c_str(), r.tid, static_cast<double>(r.start_ns) / 1e3,
        static_cast<double>(r.end_ns - r.start_ns) / 1e3,
        static_cast<long long>(r.id), static_cast<long long>(r.parent),
        static_cast<unsigned long long>(r.request));
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

}  // namespace perfbench::trace
