#include "telemetry/metrics.hpp"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <stdexcept>

#include "telemetry/json.hpp"

namespace bsrng::telemetry {

namespace {

constexpr std::array<double, 15> kLatencyBounds = {
    1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3,
    1e-2, 3e-2, 1e-1, 3e-1, 1.0,  3.0,  1e2};

const char* kind_name(MetricKind k) {
  switch (k) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

std::optional<MetricKind> kind_from_name(std::string_view s) {
  if (s == "counter") return MetricKind::kCounter;
  if (s == "gauge") return MetricKind::kGauge;
  if (s == "histogram") return MetricKind::kHistogram;
  return std::nullopt;
}

}  // namespace

std::span<const double> Histogram::default_latency_bounds() {
  return kLatencyBounds;
}

MetricsRegistry::Entry& MetricsRegistry::entry(std::string_view name,
                                               MetricKind kind,
                                               std::span<const double> bounds) {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), name,
      [](const auto& e, std::string_view n) { return e.first < n; });
  if (it != entries_.end() && it->first == name) {
    if (it->second.kind != kind)
      throw std::invalid_argument("metric '" + std::string(name) +
                                  "' already registered as " +
                                  kind_name(it->second.kind));
    return it->second;
  }
  Entry e;
  e.kind = kind;
  switch (kind) {
    case MetricKind::kCounter:
      e.counter.reset(new Counter(&enabled_));
      break;
    case MetricKind::kGauge:
      e.gauge.reset(new Gauge(&enabled_));
      break;
    case MetricKind::kHistogram:
      e.histogram.reset(new Histogram(&enabled_, bounds));
      break;
  }
  return entries_.insert(it, {std::string(name), std::move(e)})->second;
}

// The metric pointer is read while mu_ is still held: a concurrent insert
// shifts entries_, so an Entry& must not outlive the lock (the metric it
// owns does — it lives behind a unique_ptr).
Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  return *entry(name, MetricKind::kCounter).counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  return *entry(name, MetricKind::kGauge).gauge;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::span<const double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  return *entry(name, MetricKind::kHistogram, bounds).histogram;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, e] : entries_) {
    switch (e.kind) {
      case MetricKind::kCounter:
        e.counter->v_.store(0, std::memory_order_relaxed);
        break;
      case MetricKind::kGauge:
        e.gauge->v_.store(0.0, std::memory_order_relaxed);
        break;
      case MetricKind::kHistogram:
        for (auto& b : e.histogram->buckets_)
          b.store(0, std::memory_order_relaxed);
        e.histogram->count_.store(0, std::memory_order_relaxed);
        e.histogram->sum_.store(0.0, std::memory_order_relaxed);
        break;
    }
  }
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lock(mu_);
  snap.metrics.reserve(entries_.size());
  for (const auto& [name, e] : entries_) {
    MetricValue v;
    v.name = name;
    v.kind = e.kind;
    switch (e.kind) {
      case MetricKind::kCounter:
        v.value = static_cast<double>(e.counter->value());
        break;
      case MetricKind::kGauge:
        v.value = e.gauge->value();
        break;
      case MetricKind::kHistogram: {
        const Histogram& h = *e.histogram;
        v.count = h.count();
        v.sum = h.sum();
        v.bounds = h.bounds();
        v.buckets.resize(v.bounds.size() + 1);
        for (std::size_t i = 0; i < v.buckets.size(); ++i)
          v.buckets[i] = h.bucket(i);
        break;
      }
    }
    snap.metrics.push_back(std::move(v));
  }
  return snap;
}

const MetricValue* MetricsSnapshot::find(std::string_view name) const {
  for (const auto& m : metrics)
    if (m.name == name) return &m;
  return nullptr;
}

std::string MetricsSnapshot::to_json() const {
  JsonValue::Array arr;
  for (const auto& m : metrics) {
    JsonValue::Object o;
    o.emplace("name", JsonValue(m.name));
    o.emplace("kind", JsonValue(kind_name(m.kind)));
    if (m.kind == MetricKind::kHistogram) {
      o.emplace("count", JsonValue(m.count));
      o.emplace("sum", JsonValue(m.sum));
      JsonValue::Array bounds, buckets;
      for (const double b : m.bounds) bounds.emplace_back(b);
      for (const std::uint64_t c : m.buckets) buckets.emplace_back(c);
      o.emplace("bounds", JsonValue(std::move(bounds)));
      o.emplace("buckets", JsonValue(std::move(buckets)));
    } else {
      o.emplace("value", JsonValue(m.value));
    }
    arr.emplace_back(std::move(o));
  }
  JsonValue::Object root;
  root.emplace("metrics", JsonValue(std::move(arr)));
  return JsonValue(std::move(root)).dump();
}

std::optional<MetricsSnapshot> MetricsSnapshot::from_json(
    std::string_view json) {
  const auto doc = json_parse(json);
  if (!doc || !doc->is_object()) return std::nullopt;
  const JsonValue* arr = doc->find("metrics");
  if (arr == nullptr || !arr->is_array()) return std::nullopt;
  MetricsSnapshot snap;
  for (const JsonValue& item : arr->as_array()) {
    if (!item.is_object()) return std::nullopt;
    const JsonValue* name = item.find("name");
    const JsonValue* kind = item.find("kind");
    if (name == nullptr || !name->is_string() || kind == nullptr ||
        !kind->is_string())
      return std::nullopt;
    const auto k = kind_from_name(kind->as_string());
    if (!k) return std::nullopt;
    MetricValue v;
    v.name = name->as_string();
    v.kind = *k;
    if (*k == MetricKind::kHistogram) {
      const JsonValue* count = item.find("count");
      const JsonValue* sum = item.find("sum");
      const JsonValue* bounds = item.find("bounds");
      const JsonValue* buckets = item.find("buckets");
      if (count == nullptr || !count->is_number() || sum == nullptr ||
          !sum->is_number() || bounds == nullptr || !bounds->is_array() ||
          buckets == nullptr || !buckets->is_array())
        return std::nullopt;
      if (buckets->as_array().size() != bounds->as_array().size() + 1)
        return std::nullopt;
      v.count = static_cast<std::uint64_t>(count->as_number());
      v.sum = sum->as_number();
      for (const JsonValue& b : bounds->as_array()) {
        if (!b.is_number()) return std::nullopt;
        v.bounds.push_back(b.as_number());
      }
      for (const JsonValue& b : buckets->as_array()) {
        if (!b.is_number()) return std::nullopt;
        v.buckets.push_back(static_cast<std::uint64_t>(b.as_number()));
      }
    } else {
      const JsonValue* value = item.find("value");
      if (value == nullptr || !value->is_number()) return std::nullopt;
      v.value = value->as_number();
    }
    snap.metrics.push_back(std::move(v));
  }
  return snap;
}

MetricsRegistry& metrics() {
  static MetricsRegistry* reg = [] {
    auto* r = new MetricsRegistry;
    const char* env = std::getenv("BSRNG_TELEMETRY");
    if (env != nullptr && env[0] != '\0' &&
        !(env[0] == '0' && env[1] == '\0'))
      r->set_enabled(true);
    return r;
  }();
  return *reg;
}

}  // namespace bsrng::telemetry
