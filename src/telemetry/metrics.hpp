// metrics.hpp — lock-cheap observability for the generation hot paths.
//
// Design constraints (DESIGN.md §9):
//   * Instrumentation is compiled in unconditionally; a *disabled* registry
//     must cost one relaxed atomic load + a predictable branch per site
//     (<2% on bench_stream_engine), so production code never needs an
//     #ifdef build flavor.
//   * Updates are wait-free relaxed atomics — no mutex on any hot path.
//     Metric *creation* (name lookup) takes a mutex once per site; callers
//     cache the returned reference (stable for the registry's lifetime).
//   * Snapshots are weakly consistent: concurrent updates may or may not be
//     included, but every counter value read is one that existed (no torn
//     reads).  That is the standard Prometheus-style contract.
//
// Metric kinds:
//   Counter   — monotonic u64 (bytes generated, tasks claimed, CAS retries).
//   Gauge     — last-written double (queue depth, most-recent Gbit/s).
//   Histogram — fixed upper-bound buckets + sum + count (task latencies,
//               per-job throughput).  Bounds are chosen at creation.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace bsrng::telemetry {

class MetricsRegistry;

class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  explicit Counter(const std::atomic<bool>* enabled) : enabled_(enabled) {}
  const std::atomic<bool>* enabled_;
  std::atomic<std::uint64_t> v_{0};
};

class Gauge {
 public:
  void set(double v) noexcept {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    v_.store(v, std::memory_order_relaxed);
  }
  void add(double d) noexcept {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + d, std::memory_order_relaxed,
                                     std::memory_order_relaxed)) {
    }
  }
  double value() const noexcept { return v_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  explicit Gauge(const std::atomic<bool>* enabled) : enabled_(enabled) {}
  const std::atomic<bool>* enabled_;
  std::atomic<double> v_{0.0};
};

class Histogram {
 public:
  void observe(double v) noexcept {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    std::size_t i = 0;
    while (i < bounds_.size() && v > bounds_[i]) ++i;
    buckets_[i].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    double cur = sum_.load(std::memory_order_relaxed);
    while (!sum_.compare_exchange_weak(cur, cur + v,
                                       std::memory_order_relaxed,
                                       std::memory_order_relaxed)) {
    }
  }

  // Upper bounds; bucket i counts observations <= bounds[i], the final
  // bucket (index bounds.size()) is the +inf overflow.
  const std::vector<double>& bounds() const noexcept { return bounds_; }
  std::uint64_t bucket(std::size_t i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }

  // Default bounds for second-scale latencies: 1 us .. ~100 s, decade steps
  // with a 1-3 split (Prometheus-style).
  static std::span<const double> default_latency_bounds();

 private:
  friend class MetricsRegistry;
  Histogram(const std::atomic<bool>* enabled, std::span<const double> bounds)
      : enabled_(enabled), bounds_(bounds.begin(), bounds.end()),
        buckets_(bounds.size() + 1) {}
  const std::atomic<bool>* enabled_;
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

enum class MetricKind { kCounter, kGauge, kHistogram };

// One metric's state at snapshot time.
struct MetricValue {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  double value = 0.0;  // counter (exact up to 2^53) or gauge reading
  // Histogram only:
  std::uint64_t count = 0;
  double sum = 0.0;
  std::vector<double> bounds;
  std::vector<std::uint64_t> buckets;  // bounds.size() + 1 (overflow last)
};

struct MetricsSnapshot {
  std::vector<MetricValue> metrics;  // sorted by name

  const MetricValue* find(std::string_view name) const;

  // {"metrics":[{"name":...,"kind":"counter","value":...}, ...]}
  std::string to_json() const;
  // Inverse of to_json; nullopt on malformed input.  Exact for counters,
  // counts and buckets; doubles round-trip through %.17g.
  static std::optional<MetricsSnapshot> from_json(std::string_view json);
};

// Named metric store.  get-or-create accessors return references that stay
// valid for the registry's lifetime; asking for an existing name with a
// different kind throws std::invalid_argument.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(
      std::string_view name,
      std::span<const double> bounds = Histogram::default_latency_bounds());

  // Zero every registered metric (metrics stay registered; references stay
  // valid).  Test/bench convenience, not a hot-path call.
  void reset();

  MetricsSnapshot snapshot() const;
  std::string to_json() const { return snapshot().to_json(); }

 private:
  struct Entry {
    MetricKind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  // Find or insert `name`; the caller holds mu_ and must not keep the
  // returned reference past it (an insert moves entries).
  Entry& entry(std::string_view name, MetricKind kind,
               std::span<const double> bounds = {});

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;  // guards the map only, never the metric values
  std::vector<std::pair<std::string, Entry>> entries_;  // sorted by name
};

// Process-global registry used by the built-in instrumentation (StreamEngine,
// ThreadPool, multi_device, gpusim::Device).  Starts disabled unless the
// BSRNG_TELEMETRY environment variable is truthy (not ""/"0").
MetricsRegistry& metrics();

}  // namespace bsrng::telemetry
