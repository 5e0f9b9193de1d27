// Shared pieces of the end-to-end benchmark: the run arguments, the result
// record every workload fills, an in-memory span log, and small numeric
// helpers (quantiles, digests, peak memory).
#ifndef ETA2_PERFBENCH_COMMON_H
#define ETA2_PERFBENCH_COMMON_H

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

// Milliseconds between two instants.
[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// Wall time of one call, in milliseconds.
template <typename F>
double time_ms(F&& f) {
  const Clock::time_point t0 = Clock::now();
  f();
  return ms_between(t0, Clock::now());
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_build/perfbench-out";  // reports + spans
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

// The parallel pool width every workload runs at.
inline constexpr std::size_t kLanes = 2;

// One recorded span: a named interval, the span that caused it (-1 for a
// root) and the step (or batch sequence number) it belongs to.
struct Span {
  std::string name;
  double start_ms = 0.0;  // relative to the log's origin
  double end_ms = 0.0;
  std::int64_t parent = -1;
  std::int64_t step = -1;
};

// Spans kept in memory during the run and written out at exit as JSON
// lines. Not thread-safe: callers serialize access.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {
    spans_.reserve(1 << 14);
  }
  std::int64_t add(std::string name, Clock::time_point start,
                   Clock::time_point end, std::int64_t parent,
                   std::int64_t step);
  void write_jsonl(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

// Everything one workload run reports. `metrics` holds the end-to-end set
// (untraced run) or the per-layer set (traced run).
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> check_failures;
  // Free-form details for the report file (provenance, series, shares).
  std::map<std::string, std::string> notes;   // string-valued
  std::string series_json = "[]";             // per-step series, JSON array

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  // Records a check outcome; a failed check marks the run incorrect and
  // counts as one failed attempt.
  void check(bool ok, const std::string& what);
};

// Linear-interpolation quantile (q in [0, 1]) of `values`; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);
// Harrell-Davis quantile: a Beta-weighted mean of all order statistics.
// Used for every reported latency quantile; with a few hundred samples it
// moves far less from run to run than a single order statistic.
[[nodiscard]] double hd_quantile(std::vector<double> values, double q);
[[nodiscard]] double mean(std::span<const double> values);

// FNV-1a over raw bytes, chained through `state`.
void digest_bytes(std::uint64_t& state, const void* data, std::size_t size);
void digest_doubles(std::uint64_t& state, std::span<const double> values);
inline constexpr std::uint64_t kDigestInit = 1469598103934665603ULL;

// Peak resident set size of this process, in MB.
[[nodiscard]] double peak_rss_mb();

// JSON string escaping.
[[nodiscard]] std::string json_escape(const std::string& s);
// Shortest round-trip text of a double (JSON-safe: non-finite -> null).
[[nodiscard]] std::string json_number(double v);

}  // namespace perfbench

#endif  // ETA2_PERFBENCH_COMMON_H
