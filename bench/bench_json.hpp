// bench_json.hpp — machine-readable results for the bench_* binaries.
//
// Every bench accepts `--json <path>` (or `--json=<path>`) and, when given,
// writes a JSON array of records alongside its human-readable tables:
//
//   [{"algorithm": "mickey-bs512", "backend": "host",
//     "bench": "bench_stream_engine", "bytes": 4194304, "gbps": 12.3,
//     "seconds": 0.0027, "width": 512, "workers": 4}, ...]
//
// The flag is stripped from argc/argv *before* benchmark::Initialize runs
// (Google Benchmark aborts on flags it does not know).  Records come from
// the benches' own table measurements, so `--benchmark_filter=NONE` still
// produces a full file — that is what the CI smoke run does.  The schema is
// validated by tools/bench_json_check.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/json.hpp"

namespace bsrng::bench {

// Scan argv for `--<name> <value>` / `--<name>=<value>`, strip the flag (so
// benchmark::Initialize never sees it — same convention as JsonWriter) and
// return the value, or `def` when the flag is absent.
inline std::string take_flag(int* argc, char** argv, const std::string& name,
                             std::string def = {}) {
  std::string out = std::move(def);
  const std::string bare = "--" + name, prefixed = bare + "=";
  int w = 1;
  for (int r = 1; r < *argc; ++r) {
    const std::string arg = argv[r];
    if (arg == bare && r + 1 < *argc) {
      out = argv[++r];
    } else if (arg.rfind(prefixed, 0) == 0) {
      out = arg.substr(prefixed.size());
    } else {
      argv[w++] = argv[r];
    }
  }
  *argc = w;
  argv[w] = nullptr;
  return out;
}

// "a,b,c" -> {"a", "b", "c"}; empty input -> empty list.
inline std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size() && !s.empty()) {
    const std::size_t comma = s.find(',', start);
    const std::size_t end = comma == std::string::npos ? s.size() : comma;
    if (end > start) out.push_back(s.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

// One measured configuration.  `width` is the lane count of the generator
// (1 for scalar baselines, 0 when lanes are not meaningful for the row).
// `backend` records where the stream was produced: "host" for CPU
// generators/StreamEngine rows, "gpusim" for virtual-GPU kernel rows.
struct JsonRecord {
  std::string algorithm;
  std::size_t width = 0;
  std::size_t workers = 1;
  std::uint64_t bytes = 0;
  double seconds = 0.0;
  double gbps = 0.0;
  std::string backend = "host";

  // Optional coalescing-diff fields (gpusim rows of bench_memory_ablation):
  // the static analyzer's predicted transaction count / transactions-per-
  // warp-access next to the cost model's measured count, so a predicted-vs-
  // measured regression shows up in a --json diff.  Negative means "not
  // applicable" and the key is omitted from the record.
  std::int64_t transactions_predicted = -1;
  std::int64_t transactions_measured = -1;
  double tpa_predicted = -1.0;

  // Optional StreamEngine rows: the lane width each partition task actually
  // ran (ThroughputReport::task_lanes), which can be narrower than `width`
  // when the engine split the kernel's lanes across workers.  0 omits the
  // key.
  std::size_t task_lanes = 0;
};

class JsonWriter {
 public:
  // Scans argv for `--json <path>` / `--json=<path>`, removes the flag, and
  // updates *argc so benchmark::Initialize never sees it.
  JsonWriter(std::string bench, int* argc, char** argv)
      : bench_(std::move(bench)) {
    int w = 1;
    for (int r = 1; r < *argc; ++r) {
      const std::string arg = argv[r];
      if (arg == "--json" && r + 1 < *argc) {
        path_ = argv[++r];
      } else if (arg.rfind("--json=", 0) == 0) {
        path_ = arg.substr(7);
      } else {
        argv[w++] = argv[r];
      }
    }
    *argc = w;
    argv[w] = nullptr;
  }

  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  ~JsonWriter() { write(); }

  bool enabled() const { return !path_.empty(); }

  void add(JsonRecord r) { records_.push_back(std::move(r)); }

  // Serialize and write the file (idempotent; the destructor calls it too).
  void write() {
    if (path_.empty() || written_) return;
    written_ = true;
    telemetry::JsonValue::Array arr;
    arr.reserve(records_.size());
    for (const JsonRecord& r : records_) {
      telemetry::JsonValue::Object o;
      o.emplace("bench", telemetry::JsonValue(bench_));
      o.emplace("algorithm", telemetry::JsonValue(r.algorithm));
      o.emplace("backend", telemetry::JsonValue(r.backend));
      o.emplace("width", telemetry::JsonValue(static_cast<double>(r.width)));
      o.emplace("workers",
                telemetry::JsonValue(static_cast<double>(r.workers)));
      o.emplace("bytes", telemetry::JsonValue(static_cast<double>(r.bytes)));
      o.emplace("seconds", telemetry::JsonValue(r.seconds));
      o.emplace("gbps", telemetry::JsonValue(r.gbps));
      if (r.transactions_predicted >= 0)
        o.emplace("transactions_predicted",
                  telemetry::JsonValue(
                      static_cast<double>(r.transactions_predicted)));
      if (r.transactions_measured >= 0)
        o.emplace("transactions_measured",
                  telemetry::JsonValue(
                      static_cast<double>(r.transactions_measured)));
      if (r.tpa_predicted >= 0.0)
        o.emplace("tpa_predicted", telemetry::JsonValue(r.tpa_predicted));
      if (r.task_lanes > 0)
        o.emplace("task_lanes",
                  telemetry::JsonValue(static_cast<double>(r.task_lanes)));
      arr.emplace_back(std::move(o));
    }
    const std::string text = telemetry::JsonValue(std::move(arr)).dump();
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench_json: cannot open %s for writing\n",
                   path_.c_str());
      return;
    }
    std::fwrite(text.data(), 1, text.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::fprintf(stderr, "bench_json: wrote %zu records to %s\n",
                 records_.size(), path_.c_str());
  }

 private:
  std::string bench_;
  std::string path_;
  std::vector<JsonRecord> records_;
  bool written_ = false;
};

}  // namespace bsrng::bench
