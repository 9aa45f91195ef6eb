// In-memory span recorder and summary statistics for the request-level
// benchmark.
//
// A span is one call the benchmark makes into a layer's public function:
// name, start, end (seconds since the recorder's epoch), the span that
// caused it, and the request it belongs to. Spans stay in memory while the
// benchmark runs and are written out once at the end, so recording costs a
// clock read and a vector append. A disabled recorder records nothing.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string_view>
#include <vector>

namespace reqbench {

struct Span {
  const char* name;  // a string literal: the layer call it wraps
  double start = 0;
  double end = 0;
  int parent = -1;  // index into the recorder's spans; -1 = a root
  std::uint64_t request = 0;

  [[nodiscard]] double seconds() const noexcept { return end - start; }
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
  }

  /// Opens a span and returns its id (-1 when disabled).
  int begin(const char* name, int parent, std::uint64_t request) {
    if (!enabled_) return -1;
    spans_.push_back(Span{name, now(), 0, parent, request});
    return static_cast<int>(spans_.size()) - 1;
  }

  void end(int id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end = now();
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  /// Durations of every span called `name`.
  [[nodiscard]] std::vector<double> durations(std::string_view name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (name == s.name) out.push_back(s.seconds());
    }
    return out;
  }

  /// Seconds of every span called `name`, summed per request.
  [[nodiscard]] std::map<std::uint64_t, double> per_request(
      std::string_view name) const {
    std::map<std::uint64_t, double> out;
    for (const Span& s : spans_) {
      if (name == s.name) out[s.request] += s.seconds();
    }
    return out;
  }

  /// Sum of the durations of the direct children of span `id`.
  [[nodiscard]] double child_seconds(int id) const {
    double sum = 0;
    for (const Span& s : spans_) {
      if (s.parent == id) sum += s.seconds();
    }
    return sum;
  }

 private:
  using Clock = std::chrono::steady_clock;
  bool enabled_;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
};

/// RAII span: opens on construction, closes on destruction.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, int parent, std::uint64_t request)
      : tracer_(tracer), id_(tracer.begin(name, parent, request)) {}
  ~Scope() { tracer_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] int id() const noexcept { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

[[nodiscard]] inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

[[nodiscard]] inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

template <class Map>
[[nodiscard]] std::vector<double> values_of(const Map& m) {
  std::vector<double> out;
  out.reserve(m.size());
  for (const auto& [key, value] : m) out.push_back(value);
  return out;
}

/// The median and the tail: the highest whole percentile (nearest rank),
/// up to `max_percentile`, that still has at least 10 samples above it.
/// With 10 or fewer samples no percentile qualifies and the tail is the
/// maximum (percentile 100).
struct LatencySummary {
  double p50 = 0;
  double tail = 0;
  int tail_percentile = 100;
  std::size_t beyond = 0;
  std::size_t samples = 0;
};

[[nodiscard]] inline LatencySummary summarize(std::vector<double> v,
                                              int max_percentile) {
  LatencySummary out;
  out.samples = v.size();
  if (v.empty()) return out;
  std::sort(v.begin(), v.end());
  out.p50 = median(v);
  out.tail = v.back();
  const std::size_t n = v.size();
  for (int p = max_percentile; p >= 1; --p) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(static_cast<double>(p) * static_cast<double>(n) / 100.0));
    const std::size_t idx = rank == 0 ? 0 : rank - 1;
    const std::size_t beyond = n - 1 - idx;
    if (beyond >= 10) {
      out.tail = v[idx];
      out.tail_percentile = p;
      out.beyond = beyond;
      break;
    }
  }
  return out;
}

}  // namespace reqbench
