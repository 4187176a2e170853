// bsrng_perfbench — one run of one workload of the repository benchmark.
//
//   bsrng_perfbench --workload bulk_fill|serve_stream|serve_small
//                   --seed N --seconds S --trace 0|1 --bsrngd PATH
//                   --out-dir DIR [--commit ID] [--smoke]
//
// --trace 0 measures the workload untraced and prints the end-to-end
// metrics.  --trace 1 runs the workload twice for a quarter of the time
// each (untraced, then traced with spans and BSRNG_TELEMETRY=1), replays
// its op sequence down the layer ladder, runs the probes, and prints the
// per-layer metrics.  The last stdout line is the result object; the full
// record (seed, nproc, lane widths, build, sample counts, sender lateness)
// goes to DIR/<workload>-seed<N>-trace<T>.json and spans to
// DIR/<workload>-seed<N>-spans.json.  Exit status: 0 when every op was
// verified, 1 on failed ops or errors, 2 on bad usage, 3 when an open-loop
// run fell behind its schedule (invalid, not reported).
#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "bsrng.hpp"
#include "perfbench.hpp"
#include "stats.hpp"

using namespace perfbench;
namespace bc = bsrng::core;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: bsrng_perfbench --workload W --seed N --seconds S "
               "--trace 0|1 --bsrngd PATH --out-dir DIR [--commit ID] "
               "[--smoke]\n");
  return 2;
}

bool higher_is_better(const std::string& name) {
  return name == "throughput_gbps" || name == "requests_per_s" || name == "ok_ratio";
}

std::string metrics_json(const std::vector<Metric>& m) {
  std::ostringstream o;
  o << "{";
  for (std::size_t i = 0; i < m.size(); ++i)
    o << (i ? ", " : "") << json_escape(m[i].name)
      << ": {\"value\": " << json_number(m[i].value)
      << ", \"unit\": " << json_escape(m[i].unit) << "}";
  o << "}";
  return o.str();
}

std::string samples_json(const RunResult& r) {
  std::vector<double> all;
  std::vector<std::size_t> per_window;
  for (const Window& w : r.windows) {
    all.insert(all.end(), w.latency_us.begin(), w.latency_us.end());
    per_window.push_back(w.latency_us.size());
  }
  std::ostringstream o;
  o << "{\"ops_attempted\": " << r.attempted << ", \"ops_completed\": " << r.completed
    << ", \"setup_s\": [";
  for (std::size_t i = 0; i < r.setup_s.size(); ++i)
    o << (i ? ", " : "") << json_number(r.setup_s[i]);
  o << "], \"windows\": " << r.windows.size()
    << ", \"latency_samples\": " << all.size()
    << ", \"latency_pooled\": " << (r.pooled_latency ? "true" : "false");
  if (!per_window.empty()) {
    std::sort(per_window.begin(), per_window.end());
    // The tail percentile a typical (median-sized) window supports.
    const std::size_t n = r.pooled_latency ? all.size() : per_window[per_window.size() / 2];
    if (n > 0) {
      const TailPercentile t = tail_percentile(std::vector<double>(n, 0.0));
      o << ", \"latency_samples_per_percentile\": " << n
        << ", \"latency_tail_p\": " << json_number(t.p)
        << ", \"latency_tail_beyond\": " << t.beyond;
    }
  }
  if (all.size() >= 2) {
    const Quartiles q = quartiles(all);
    o << ", \"latency_us_pooled_quartiles\": [" << json_number(q.q1) << ", "
      << json_number(q.q2) << ", " << json_number(q.q3) << "]";
  }
  o << ", \"window_gbps\": [";
  for (std::size_t i = 0; i < r.windows.size(); ++i) {
    const Window& w = r.windows[i];
    o << (i ? ", " : "")
      << json_number(w.seconds > 0 ? static_cast<double>(w.bytes) * 8 / w.seconds / 1e9 : 0);
  }
  o << "]";
  o << ", \"window_s\": " << json_number(r.window_s)
    << ", \"cpu_steal_share\": " << json_number(r.steal_share) << ", \"fail_ratio\": "
    << json_number(r.attempted ? static_cast<double>(r.failed) /
                                     static_cast<double>(r.attempted)
                               : 0.0);
  if (!r.late_us.empty()) {
    const TailPercentile t = tail_percentile(r.late_us);
    o << ", \"sender_late_us_p50\": " << json_number(median(r.late_us))
      << ", \"sender_late_us_tail\": " << json_number(t.value)
      << ", \"sender_late_tail_p\": " << json_number(t.p)
      << ", \"sender_late_samples\": " << t.samples;
  }
  o << ", \"errors\": [";
  for (std::size_t i = 0; i < r.errors.size(); ++i)
    o << (i ? ", " : "") << json_escape(r.errors[i]);
  o << "]}";
  return o.str();
}

std::string widths_json() {
  std::ostringstream o;
  o << "[";
  for (std::size_t a = 0; a < kNumAlgos; ++a) {
    const auto info = bc::find_algorithm(kAlgos[a]);
    const bc::PartitionSpec spec = info->partition_spec(1);
    const bool lane = info->partition == bc::PartitionKind::kLaneSlice;
    o << (a ? ", " : "") << "{\"algorithm\": " << json_escape(kAlgos[a])
      << ", \"kernel_lanes\": " << info->lanes << ", \"engine_task_lanes\": "
      << (lane && spec.lane_blocks ? info->lanes / spec.lane_blocks : info->lanes)
      << ", \"partition\": \"" << (lane ? "lane_slice" : "counter") << "\"}";
  }
  o << "]";
  return o.str();
}

// Serve_small is valid only while its sender kept to the schedule.
bool sender_kept_up(const Config& cfg, const RunResult& r) {
  return cfg.workload != "serve_small" || r.late_us.empty() ||
         tail_percentile(r.late_us).value <= kMaxSenderLateUs;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  std::string trace_arg = "0";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto val = [&]() -> std::string { return i + 1 < argc ? argv[++i] : ""; };
    if (a == "--workload") cfg.workload = val();
    else if (a == "--seed") cfg.seed = std::strtoull(val().c_str(), nullptr, 10);
    else if (a == "--seconds") cfg.seconds = std::atof(val().c_str());
    else if (a == "--trace") trace_arg = val();
    else if (a == "--bsrngd") cfg.bsrngd = val();
    else if (a == "--out-dir") cfg.out_dir = val();
    else if (a == "--commit") cfg.commit = val();
    else if (a == "--smoke") cfg.smoke = true;
    else return usage();
  }
  if ((cfg.workload != "bulk_fill" && cfg.workload != "serve_stream" &&
       cfg.workload != "serve_small") ||
      cfg.seconds <= 0 || (trace_arg != "0" && trace_arg != "1") ||
      cfg.bsrngd.empty() || cfg.out_dir.empty())
    return usage();
  cfg.trace = trace_arg == "1";
  cfg.nproc = std::max(1u, std::thread::hardware_concurrency());
  std::signal(SIGPIPE, SIG_IGN);
  const Params p = params_for(cfg);
  const std::string stem = cfg.out_dir + "/" + cfg.workload + "-seed" +
                           std::to_string(cfg.seed);

  std::vector<Metric> metrics;
  std::uint64_t attempted = 0, failed = 0;
  std::string samples;
  bool valid = true;
  try {
    if (!cfg.trace) {
      Tracer off(false);
      const RunResult r = run_workload(cfg, p, cfg.seconds, off, false);
      metrics = end_to_end(r);
      attempted = r.attempted;
      failed = r.failed;
      samples = "{\"untraced\": " + samples_json(r) + "}";
      valid = sender_kept_up(cfg, r);
    } else {
      Tracer off(false), tr(true);
      const double pass = cfg.seconds / 4;
      const RunResult plain = run_workload(cfg, p, pass, off, false);
      const RunResult traced = run_workload(cfg, p, pass, tr, true);
      valid = sender_kept_up(cfg, plain);
      RunResult ladder_scrape;
      {
        Daemon d(cfg.bsrngd, cfg.nproc, /*telemetry=*/true);
        metrics = run_ladder(cfg, p, tr, d);
        scrape_into(d, ladder_scrape);
      }
      for (Metric& m : run_probes(cfg, p)) metrics.push_back(std::move(m));
      // bulk_fill never talks to a daemon, so its net.server.* counters come
      // from the ladder's wire layer; serving workloads scrape their own.
      const RunResult& net_src = cfg.workload == "bulk_fill" ? ladder_scrape : traced;
      for (Metric& m : counter_metrics(net_src, traced)) metrics.push_back(std::move(m));
      const auto base = end_to_end(plain), with = end_to_end(traced);
      for (std::size_t i = 0; i < base.size(); ++i) {
        const double b = base[i].value, t = with[i].value;
        const double worse = higher_is_better(base[i].name) ? b - t : t - b;
        metrics.push_back({"telemetry.overhead." + base[i].name,
                           b != 0 ? worse / b : 0.0, "ratio"});
      }
      metrics.push_back({"bench.sender_late_us_p99",
                         plain.late_us.empty() ? 0.0 : tail_percentile(plain.late_us).value,
                         "us"});
      write_spans(stem + "-spans.json", tr.spans());
      attempted = plain.attempted + traced.attempted;
      failed = plain.failed + traced.failed;
      samples = "{\"untraced\": " + samples_json(plain) +
                ", \"traced\": " + samples_json(traced) + "}";
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bsrng_perfbench: %s\n", e.what());
    return 1;
  }

  const bool correct = failed == 0;
  const std::string result = "{\"correct\": " + std::string(correct ? "true" : "false") +
                             ", \"attempted\": " + std::to_string(attempted) +
                             ", \"failed\": " + std::to_string(failed) +
                             ", \"metrics\": " + metrics_json(metrics) + "}";
  {
    std::ofstream rec(stem + "-trace" + (cfg.trace ? "1" : "0") + ".json");
    rec << "{\"workload\": " << json_escape(cfg.workload) << ", \"seed\": " << cfg.seed
        << ", \"seconds\": " << json_number(cfg.seconds)
        << ", \"trace\": " << (cfg.trace ? 1 : 0)
        << ", \"smoke\": " << (cfg.smoke ? "true" : "false")
        << ", \"nproc\": " << cfg.nproc << ", \"connections\": "
        << connections_for(cfg) << ", \"build_type\": " << json_escape(PERFBENCH_BUILD_TYPE)
        << ", \"commit\": " << json_escape(cfg.commit)
        << ", \"offered_rate_per_s\": " << json_number(p.small_rate)
        << ", \"valid\": " << (valid ? "true" : "false")
        << ", \"lane_widths\": " << widths_json() << ", \"samples\": " << samples
        << ", \"result\": " << result << "}\n";
  }
  if (!valid) {
    std::fprintf(stderr,
                 "bsrng_perfbench: invalid run: the open-loop sender fell "
                 "behind its schedule (see %s-trace%d.json)\n",
                 stem.c_str(), cfg.trace ? 1 : 0);
    return 3;
  }
  std::printf("%s\n", result.c_str());
  return correct ? 0 : 1;
}
