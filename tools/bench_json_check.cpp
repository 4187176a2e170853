// bench_json_check — validates the --json output of the bench_* binaries.
//
//   bench_json_check <file.json> [<file.json> ...]
//
// Each file must be a non-empty JSON array of records carrying exactly the
// schema the benches emit:
//
//   bench      string, non-empty
//   algorithm  string, non-empty
//   backend    string, non-empty ("host" or "gpusim")
//   width      number, non-negative integer
//   workers    number, positive integer
//   bytes      number, non-negative integer
//   seconds    number, >= 0, finite
//   gbps       number, >= 0, finite
//
// plus, optionally (gpusim coalescing-diff rows of bench_memory_ablation):
//
//   transactions_predicted  number, non-negative integer
//   transactions_measured   number, non-negative integer
//   tpa_predicted           number, >= 0, finite
//
// and, optionally (StreamEngine rows: the lane width each task ran):
//
//   task_lanes              number, positive integer
//
// and, optionally (bsrng_loadgen throughput rows, backend "net"):
//
//   connections             number, positive integer
//   requests                number, non-negative integer
//   oracle_mismatches       number, non-negative integer
//   retries                 number, non-negative integer
//   reconnects              number, non-negative integer
//   faults_injected         number, non-negative integer
//   tenant                  number, positive integer (StreamRef spread)
//   stream                  number, positive integer (StreamRef spread)
//   checkpoint_resumes      number, non-negative integer
//
// Any other key fails validation.  Exit 0 when every file validates; 1
// with a per-record diagnostic
// otherwise.  CI runs this against the smoke-run artifacts and the soak
// job's loadgen records so a schema regression fails the build, not the
// downstream dashboard.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "telemetry/json.hpp"

namespace tel = bsrng::telemetry;

namespace {

bool fail(const char* file, std::size_t idx, const std::string& what) {
  std::fprintf(stderr, "%s: record %zu: %s\n", file, idx, what.c_str());
  return false;
}

bool check_string(const tel::JsonValue& rec, const char* file, std::size_t idx,
                  const char* key) {
  const tel::JsonValue* v = rec.find(key);
  if (v == nullptr) return fail(file, idx, std::string("missing key ") + key);
  if (!v->is_string() || v->as_string().empty())
    return fail(file, idx, std::string(key) + " must be a non-empty string");
  return true;
}

bool check_number(const tel::JsonValue& rec, const char* file, std::size_t idx,
                  const char* key, bool integral, double min,
                  bool optional = false) {
  const tel::JsonValue* v = rec.find(key);
  if (v == nullptr)
    return optional ? true
                    : fail(file, idx, std::string("missing key ") + key);
  if (!v->is_number())
    return fail(file, idx, std::string(key) + " must be a number");
  const double d = v->as_number();
  if (!std::isfinite(d) || d < min)
    return fail(file, idx, std::string(key) + " out of range");
  if (integral && d != std::floor(d))
    return fail(file, idx, std::string(key) + " must be an integer");
  return true;
}

bool check_file(const char* path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "%s: cannot open\n", path);
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  const auto doc = tel::json_parse(ss.str());
  if (!doc) {
    std::fprintf(stderr, "%s: not valid JSON\n", path);
    return false;
  }
  if (!doc->is_array()) {
    std::fprintf(stderr, "%s: top-level value must be an array\n", path);
    return false;
  }
  const auto& arr = doc->as_array();
  if (arr.empty()) {
    std::fprintf(stderr, "%s: record array is empty\n", path);
    return false;
  }
  bool ok = true;
  for (std::size_t i = 0; i < arr.size(); ++i) {
    const tel::JsonValue& rec = arr[i];
    if (!rec.is_object()) {
      ok = fail(path, i, "record must be an object");
      continue;
    }
    ok &= check_string(rec, path, i, "bench");
    ok &= check_string(rec, path, i, "algorithm");
    ok &= check_string(rec, path, i, "backend");
    ok &= check_number(rec, path, i, "width", /*integral=*/true, 0.0);
    ok &= check_number(rec, path, i, "workers", /*integral=*/true, 1.0);
    ok &= check_number(rec, path, i, "bytes", /*integral=*/true, 0.0);
    ok &= check_number(rec, path, i, "seconds", /*integral=*/false, 0.0);
    ok &= check_number(rec, path, i, "gbps", /*integral=*/false, 0.0);
    // Optional coalescing-diff keys (see bench_json.hpp): validated when
    // present, and their presence is the only growth the schema allows.
    ok &= check_number(rec, path, i, "transactions_predicted",
                       /*integral=*/true, 0.0, /*optional=*/true);
    ok &= check_number(rec, path, i, "transactions_measured",
                       /*integral=*/true, 0.0, /*optional=*/true);
    ok &= check_number(rec, path, i, "tpa_predicted", /*integral=*/false, 0.0,
                       /*optional=*/true);
    // Optional engine key (StreamEngine rows).
    ok &= check_number(rec, path, i, "task_lanes", /*integral=*/true, 1.0,
                       /*optional=*/true);
    // Optional loadgen keys (bsrng_loadgen --json soak records).
    ok &= check_number(rec, path, i, "connections", /*integral=*/true, 1.0,
                       /*optional=*/true);
    ok &= check_number(rec, path, i, "requests", /*integral=*/true, 0.0,
                       /*optional=*/true);
    ok &= check_number(rec, path, i, "oracle_mismatches", /*integral=*/true,
                       0.0, /*optional=*/true);
    ok &= check_number(rec, path, i, "retries", /*integral=*/true, 0.0,
                       /*optional=*/true);
    ok &= check_number(rec, path, i, "reconnects", /*integral=*/true, 0.0,
                       /*optional=*/true);
    ok &= check_number(rec, path, i, "faults_injected", /*integral=*/true,
                       0.0, /*optional=*/true);
    // Optional substream-fabric keys (v2 StreamRef loadgen runs).
    ok &= check_number(rec, path, i, "tenant", /*integral=*/true, 1.0,
                       /*optional=*/true);
    ok &= check_number(rec, path, i, "stream", /*integral=*/true, 1.0,
                       /*optional=*/true);
    ok &= check_number(rec, path, i, "checkpoint_resumes", /*integral=*/true,
                       0.0, /*optional=*/true);
    std::size_t known = 8;
    for (const char* opt :
         {"transactions_predicted", "transactions_measured", "tpa_predicted",
          "task_lanes", "connections", "requests", "oracle_mismatches", "retries",
          "reconnects", "faults_injected", "tenant", "stream",
          "checkpoint_resumes"})
      if (rec.find(opt) != nullptr) ++known;
    if (rec.as_object().size() != known)
      ok = fail(path, i, "record carries keys outside the schema");
  }
  if (ok)
    std::fprintf(stderr, "%s: %zu records OK\n", path, arr.size());
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: bench_json_check <file.json> [...]\n");
    return 2;
  }
  bool ok = true;
  for (int i = 1; i < argc; ++i) ok &= check_file(argv[i]);
  return ok ? 0 : 1;
}
