// Metric primitives for the cross-layer telemetry subsystem.
//
// Counters and histograms are the only primitives allowed inside parallel
// regions: both are commutative (relaxed atomic adds), so their final
// values do not depend on how increments interleave. Gauges are last-write
// and must only be set from serial code. The registry itself (name ->
// metric creation) is NOT thread-safe: fetch metric handles from serial
// code, bump them from anywhere.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace volcast::obs {

/// Monotonic event counter; add() is safe from any thread and the total is
/// independent of how increments interleave.
class Counter {
 public:
  void add(std::uint64_t delta = 1) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written value; serial writers only (not commutative).
class Gauge {
 public:
  void set(double v) noexcept { value_ = v; }
  [[nodiscard]] double value() const noexcept { return value_; }

 private:
  double value_ = 0.0;
};

/// Fixed-bucket histogram. The bucket layout is frozen at construction
/// (`upper_bounds` ascending, plus an implicit +inf overflow bucket), so
/// observe() is a branch-free-ish scan + one atomic increment — commutative
/// and therefore thread-count invariant.
class Histogram {
 public:
  explicit Histogram(std::span<const double> upper_bounds);

  void observe(double x) noexcept;

  /// Number of buckets including the overflow bucket.
  [[nodiscard]] std::size_t bucket_count() const noexcept {
    return bounds_.size() + 1;
  }
  /// Inclusive upper bound of bucket `i`; +inf for the overflow bucket.
  [[nodiscard]] double upper_bound(std::size_t i) const;
  [[nodiscard]] std::uint64_t bucket_value(std::size_t i) const;
  [[nodiscard]] std::uint64_t total() const noexcept;

  /// Approximate percentile in [0, 100]: the upper bound of the bucket
  /// where the cumulative count crosses p (deterministic, conservative).
  [[nodiscard]] double percentile(double p) const;

  [[nodiscard]] const std::vector<double>& bounds() const noexcept {
    return bounds_;
  }

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;
};

/// Named metric store with deterministic (name-sorted) iteration order.
/// Creation is serial-only; returned references are stable for the
/// registry's lifetime.
class MetricRegistry {
 public:
  /// Returns the named counter, creating it on first use.
  Counter& counter(const std::string& name);
  /// Returns the named gauge, creating it on first use.
  Gauge& gauge(const std::string& name);
  /// Returns the named histogram, creating it with `upper_bounds` on first
  /// use. Throws std::invalid_argument when re-requested with a different
  /// bucket layout.
  Histogram& histogram(const std::string& name,
                       std::span<const double> upper_bounds);

  [[nodiscard]] const std::map<std::string, std::unique_ptr<Counter>>&
  counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, std::unique_ptr<Gauge>>& gauges()
      const noexcept {
    return gauges_;
  }
  [[nodiscard]] const std::map<std::string, std::unique_ptr<Histogram>>&
  histograms() const noexcept {
    return histograms_;
  }

 private:
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace volcast::obs
