// Shared context block and timing summaries for every BENCH_*.json
// emitter.
//
// Benchmark numbers are only comparable against the hardware and build
// that produced them, so every bench stamps the same leading fields --
// schema version, CPU model, SIMD dispatch level, thread count, git
// revision, smoke flag -- through write_context() instead of each binary
// inventing its own subset. Header-only; bench binaries only.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/cpu_features.hpp"
#include "common/parallel.hpp"

namespace qokit::bench {

/// Strip characters that would break a JSON string literal (the fields
/// here are machine descriptions, never untrusted data).
inline std::string json_sanitize(std::string s) {
  for (char& c : s)
    if (c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20)
      c = ' ';
  return s;
}

/// The CPU model string from /proc/cpuinfo; "unknown" elsewhere.
inline std::string cpu_model() {
#if defined(__linux__)
  std::FILE* f = std::fopen("/proc/cpuinfo", "r");
  if (f) {
    char line[512];
    while (std::fgets(line, sizeof line, f)) {
      if (std::strncmp(line, "model name", 10) != 0) continue;
      const char* colon = std::strchr(line, ':');
      if (!colon) continue;
      std::string model(colon + 1);
      // Trim the leading space and trailing newline.
      while (!model.empty() && (model.front() == ' ' || model.front() == '\t'))
        model.erase(model.begin());
      while (!model.empty() &&
             (model.back() == '\n' || model.back() == '\r'))
        model.pop_back();
      std::fclose(f);
      return model.empty() ? "unknown" : model;
    }
    std::fclose(f);
  }
#endif
  return "unknown";
}

/// `git describe --always --dirty` of the working tree the bench ran in;
/// "unknown" when git or a repo is unavailable (e.g. an installed tree).
inline std::string git_describe() {
#if defined(__unix__) || defined(__APPLE__)
  std::FILE* p =
      ::popen("git describe --always --dirty --tags 2>/dev/null", "r");
  if (p) {
    char buf[128] = {0};
    const bool got = std::fgets(buf, sizeof buf, p) != nullptr;
    ::pclose(p);
    if (got) {
      std::string rev(buf);
      while (!rev.empty() && (rev.back() == '\n' || rev.back() == '\r'))
        rev.pop_back();
      if (!rev.empty()) return rev;
    }
  }
#endif
  return "unknown";
}

/// Emit the shared context fields (with a trailing comma) right after the
/// opening '{' of a BENCH_*.json document.
inline void write_context(std::FILE* out, bool smoke) {
  std::fprintf(out,
               "  \"schema\": 1,\n"
               "  \"cpu_model\": \"%s\",\n"
               "  \"simd_level\": \"%s\",\n"
               "  \"threads\": %d,\n"
               "  \"git\": \"%s\",\n"
               "  \"smoke\": %s,\n",
               json_sanitize(cpu_model()).c_str(),
               simd_level_name(active_simd_level()), max_threads(),
               json_sanitize(git_describe()).c_str(),
               smoke ? "true" : "false");
}

/// Median, minimum and interquartile range of one timing series, in ms.
struct Summary {
  double median_ms = 0.0;
  double min_ms = 0.0;
  double iqr_ms = 0.0;
};

/// Linear-interpolated quantile q of an ascending, non-empty series.
inline double quantile(const std::vector<double>& sorted, double q) {
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] +
         (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

inline Summary summarize(std::vector<double> ms) {
  std::sort(ms.begin(), ms.end());
  return {quantile(ms, 0.5), ms.front(),
          quantile(ms, 0.75) - quantile(ms, 0.25)};
}

/// True when two series' medians differ by no more than the larger of
/// their IQRs: the ratio between them is then "no change", not a gain.
inline bool within_noise(const Summary& a, const Summary& b) {
  return std::abs(a.median_ms - b.median_ms) <=
         std::max(a.iqr_ms, b.iqr_ms);
}

/// `"key": {"median_ms": .., "min_ms": .., "iqr_ms": ..}` (no separator).
inline void write_summary(std::FILE* out, const char* key, const Summary& s) {
  std::fprintf(out,
               "\"%s\": {\"median_ms\": %.4f, \"min_ms\": %.4f, "
               "\"iqr_ms\": %.4f}",
               key, s.median_ms, s.min_ms, s.iqr_ms);
}

}  // namespace qokit::bench
