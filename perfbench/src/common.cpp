#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <fstream>
#include <stdexcept>

namespace perfbench {

std::int64_t SpanLog::add(std::string name, Clock::time_point start,
                          Clock::time_point end, std::int64_t parent,
                          std::int64_t step) {
  spans_.push_back(Span{std::move(name), ms_between(origin_, start),
                        ms_between(origin_, end), parent, step});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("perfbench: cannot write " + path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << json_escape(s.name)
        << "\",\"start_ms\":" << json_number(s.start_ms)
        << ",\"end_ms\":" << json_number(s.end_ms)
        << ",\"parent\":" << s.parent << ",\"step\":" << s.step << "}\n";
  }
}

void Result::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  correct = false;
  check_failures.push_back(what);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double hd_quantile(std::vector<double> values, double q) {
  if (values.size() < 2) return values.empty() ? 0.0 : values[0];
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  const double a = q * (n + 1.0);
  const double b = (1.0 - q) * (n + 1.0);
  const double log_norm = std::lgamma(a + b) - std::lgamma(a) - std::lgamma(b);
  const auto density = [&](double x) {
    if (x <= 0.0 || x >= 1.0) return 0.0;
    return std::exp(log_norm + (a - 1.0) * std::log(x) + (b - 1.0) * std::log1p(-x));
  };
  // Weight of order statistic i: the Beta(a, b) mass on ((i-1)/n, i/n],
  // by Simpson's rule on kPanels panels.
  constexpr int kPanels = 8;
  double sum = 0.0;
  double weight_sum = 0.0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    const double lo = static_cast<double>(i) / n;
    const double h = 1.0 / (n * kPanels);
    double s = density(lo) + density(lo + 1.0 / n);
    for (int j = 1; j < kPanels; ++j) s += (j % 2 == 1 ? 4.0 : 2.0) * density(lo + j * h);
    const double w = s * h / 3.0;
    sum += w * values[i];
    weight_sum += w;
  }
  return weight_sum > 0.0 ? sum / weight_sum : quantile(values, q);
}

double mean(std::span<const double> values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

void digest_bytes(std::uint64_t& state, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    state ^= bytes[i];
    state *= 1099511628211ULL;
  }
}

void digest_doubles(std::uint64_t& state, std::span<const double> values) {
  for (const double v : values) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    digest_bytes(state, &bits, sizeof bits);
  }
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += ' ';
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

}  // namespace perfbench
