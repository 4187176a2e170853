// record.cpp — telemetry counters, JSON output, and span dumps.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "perfbench.hpp"
#include "stats.hpp"

namespace perfbench {

namespace bt = bsrng::telemetry;

namespace {

// The program's own counters the per-layer ratios are built from.
constexpr const char* kCounters[] = {
    "net.requests",          "net.batched_spans",
    "net.backpressure_stalls", "net.sheds",
    "stream_engine.jobs",    "thread_pool.claim_cas_retries",
    "thread_pool.stale_batch_backoffs"};
constexpr const char* kJobHistogram = "stream_engine.job_seconds";

double counter(const RunResult& r, const char* name) {
  const auto it = r.counters.find(name);
  return it == r.counters.end() ? 0.0 : it->second;
}

}  // namespace

void collect_counters(const bt::MetricsSnapshot& after,
                      const bt::MetricsSnapshot* before, RunResult& r) {
  for (const char* name : kCounters) {
    const bt::MetricValue* a = after.find(name);
    const bt::MetricValue* b = before ? before->find(name) : nullptr;
    r.counters[name] = (a ? a->value : 0.0) - (b ? b->value : 0.0);
  }
  if (const bt::MetricValue* a = after.find(kJobHistogram)) {
    r.job_hist_bounds = a->bounds;
    r.job_hist_buckets = a->buckets;
    if (const bt::MetricValue* b = before ? before->find(kJobHistogram) : nullptr)
      for (std::size_t i = 0; i < r.job_hist_buckets.size() && i < b->buckets.size(); ++i)
        r.job_hist_buckets[i] -= b->buckets[i];
  }
}

void scrape_into(const Daemon& d, RunResult& r) {
  const auto snap = bt::MetricsSnapshot::from_json(d.scrape_metrics());
  if (!snap) throw std::runtime_error("unparseable /metrics");
  collect_counters(*snap, nullptr, r);
}

std::vector<Metric> counter_metrics(const RunResult& net_src,
                                    const RunResult& pool_src) {
  const double requests = counter(net_src, "net.requests");
  const double jobs = counter(pool_src, "stream_engine.jobs");
  return {
      // base: net.requests (every decoded request, any type)
      {"net.server.batched_ratio",
       requests > 0 ? counter(net_src, "net.batched_spans") / requests : 0.0, "ratio"},
      {"net.server.backpressure_stalls", counter(net_src, "net.backpressure_stalls"),
       "count"},
      {"net.server.sheds", counter(net_src, "net.sheds"), "count"},
      {"net.server.engine_job_us_p50",
       histogram_quantile(net_src.job_hist_bounds, net_src.job_hist_buckets, 0.5) * 1e6,
       "us"},
      // base: stream_engine.jobs (engine generate calls)
      {"core.pool.cas_retries_per_job",
       jobs > 0 ? counter(pool_src, "thread_pool.claim_cas_retries") / jobs : 0.0,
       "ratio"},
      {"core.pool.stale_backoffs", counter(pool_src, "thread_pool.stale_batch_backoffs"),
       "count"},
  };
}

std::string json_escape(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "{\"spans\":[\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"name\":" << json_escape(s.name) << ",\"start\":" << json_number(s.start)
        << ",\"end\":" << json_number(s.end) << ",\"parent\":" << s.parent
        << ",\"op\":" << s.op << "}" << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "]}\n";
}

}  // namespace perfbench
