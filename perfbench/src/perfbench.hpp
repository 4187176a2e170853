// perfbench.hpp — shared declarations of the repository benchmark.
//
// Three workloads drive the public API from outside (perfbench/README.md
// says why each exists and which layers it uses):
//   bulk_fill     in-process closed loop: one caller, one StreamEngine.
//   serve_stream  closed loop over pipelined connections to bsrngd, 1 MiB
//                 consecutive spans of one substream per connection.
//   serve_small   open loop at a fixed rate: 64 B..4 KiB spans over
//                 hundreds of substreams, with seeks and checkpoint→resume.
// Every op names its own StreamRef substream under a root seed derived
// from --seed, and every returned byte is checked against the canonical
// stream make_generator(algo, derived_seed) seeked to the op's offset.
#pragma once
#include <sys/types.h>

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "stream/stream_ref.hpp"
#include "telemetry/metrics.hpp"
#include "trace.hpp"

namespace perfbench {

// The mix: the six bitsliced ciphers at the paper's W=512.
inline constexpr std::array<const char*, 6> kAlgos = {
    "mickey-bs512", "grain-bs512",   "trivium-bs512",
    "aes-ctr-bs512", "a51-bs512", "chacha20-bs512"};
inline constexpr std::size_t kNumAlgos = kAlgos.size();

// Set-up is timed at least kSetupReps times per run and setup_s is the
// median.  The closed loops time one spare set-up after every round, so
// the samples span the whole run instead of its first second.  Each
// set-up starts after kSetupIdleMs of idleness, so every one starts from
// the same machine state (idle cores asleep), not from the tail of the
// previous teardown.
inline constexpr std::size_t kSetupReps = 51;
inline constexpr int kSetupIdleMs = 5;

// serve_stream: spans per substream segment, requests in flight per
// connection.  The depth is the smallest at which the daemon's throughput
// stops rising (the sweep is in perfbench/README.md).
inline constexpr std::size_t kStreamSpansPerSegment = 4;
inline constexpr std::size_t kStreamDepth = 2;

// serve_small is invalid when its sender's p99 lateness exceeds this.
inline constexpr double kMaxSenderLateUs = 5000;

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;        // tiny spans and rates: all workloads in seconds
  std::string bsrngd;        // path of the daemon binary
  std::string out_dir;       // where records and span dumps go
  std::string commit = "unknown";
  unsigned nproc = 1;
};

// Workload shape, fixed per configuration (normal or smoke).
struct Params {
  std::size_t bulk_span;         // bulk_fill bytes per call
  std::size_t stream_span;       // serve_stream bytes per request
  double small_rate;             // serve_small offered requests per second
  std::size_t small_streams;     // serve_small tenant substreams
  std::size_t ladder_small_ops;  // serve_small ops replayed by the ladder
  std::size_t probe_seek_offset; // core.seek_us far offset
  std::size_t probe_session_span;// net.session.gbps span
};
Params params_for(const Config& cfg);

// Connections a serving workload opens: one per core.
unsigned connections_for(const Config& cfg);

// Root of the tenant tree for a run: a pure function of --seed.
std::uint64_t root_seed(std::uint64_t seed);

// splitmix64 sequence: the benchmark's only source of input randomness.
struct Rng {
  std::uint64_t s;
  std::uint64_t next();
  std::uint64_t below(std::uint64_t n) { return next() % n; }
};

// How a serving op reaches bsrngd.
enum class Frame : std::uint8_t {
  kV1,      // kGenerate on the derived seed (v1 root addressing)
  kV2,      // kGenerate2 on (root seed, StreamRef)
  kResume,  // kCheckpoint at the offset, then kResume with that blob
};

enum class OpKind : std::uint8_t { kContinue, kForwardSeek, kBackwardSeek };

struct Op {
  std::uint64_t id = 0;
  std::size_t algo = 0;          // index into kAlgos
  bsrng::stream::StreamRef ref{};
  std::uint64_t offset = 0;
  std::uint32_t nbytes = 0;
  Frame frame = Frame::kV2;
  OpKind kind = OpKind::kContinue;
  std::uint32_t conn = 0;        // serving connection that carries it
  std::uint32_t stream = 0;      // serving substream index
  double due = 0;                // open loop: seconds after the start
};

// The op sequences.  bulk_fill and serve_stream are unbounded closed-loop
// sequences, addressed by index; serve_small is generated whole because
// its length is rate × seconds.
Op bulk_op(const Config& cfg, const Params& p, std::uint64_t i);
// serve_stream: span `k` of segment `seg` on connection `conn`.
Op stream_op(const Config& cfg, const Params& p, unsigned conns,
             std::uint64_t seg, unsigned conn, std::uint64_t k);
std::vector<Op> small_ops(const Config& cfg, const Params& p, unsigned conns,
                          double seconds);

// 64-bit streaming digest (four-lane multiply-rotate, xxh64-style mixing):
// bulk_fill compares digests so it never holds expected output in memory.
class Digest {
 public:
  Digest();
  void update(std::span<const std::uint8_t> bytes);
  std::uint64_t finish() const;

 private:
  void block(const std::uint8_t* p);
  std::uint64_t v_[4];
  std::uint8_t buf_[32];
  std::size_t nbuf_ = 0;
  std::uint64_t total_ = 0;
};
std::uint64_t digest_of(std::span<const std::uint8_t> bytes);

// The first n canonical bytes of an op's substream, straight from
// make_generator — what every layer must return.
std::vector<std::uint8_t> canonical_bytes(const Config& cfg, std::size_t algo,
                                          const bsrng::stream::StreamRef& ref,
                                          std::size_t n);
std::uint64_t canonical_digest(const Config& cfg, std::size_t algo,
                               const bsrng::stream::StreamRef& ref,
                               std::size_t n);

// Run fn(i) for i in [0, n) on up to `threads` threads and join them all;
// the first exception any fn(i) threw is rethrown after the join.
void parallel_for(std::size_t n, unsigned threads,
                  const std::function<void(std::size_t)>& fn);

// --- process measurements -------------------------------------------------
double process_cpu_seconds();          // this process, all threads
double peak_rss_mib(pid_t pid);        // VmHWM; pid 0 = this process

// Machine-wide CPU time from /proc/stat, to tell how much of a run the
// hypervisor gave to other guests (steal): the main source of run-to-run
// noise on a shared VM.
struct CpuTimes {
  std::uint64_t steal = 0, total = 0;
};
CpuTimes read_cpu_times();
double steal_share(const CpuTimes& before, const CpuTimes& after);

// --- bsrngd ---------------------------------------------------------------
// One daemon child: spawned on an ephemeral loopback port, killed with the
// benchmark (PR_SET_PDEATHSIG) or by the destructor, always reaped.
class Daemon {
 public:
  Daemon(const std::string& path, unsigned workers, bool telemetry);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  std::uint16_t port() const noexcept { return port_; }
  pid_t pid() const noexcept { return pid_; }
  double cpu_seconds() const;   // sum over the daemon's threads
  double peak_rss_mib() const;
  std::string scrape_metrics() const;  // HTTP GET /metrics body
  // SIGINT (or SIGKILL when !graceful) and reap; SIGKILL after a deadline.
  void stop(bool graceful = true);

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::uint16_t port_ = 0;
};

// --- results --------------------------------------------------------------
// A slice of a run's timed window: whole rounds for the closed loops, one
// second of schedule for the open loop.  End-to-end rates and latencies are
// medians over windows.
struct Window {
  double seconds = 0;            // timed seconds
  std::uint64_t ops = 0;         // verified ops
  std::uint64_t bytes = 0;       // verified payload bytes
  double cpu_s = 0;              // program CPU
  std::vector<double> latency_us;
};

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;   // verified
  std::uint64_t failed = 0;      // non-OK, refused, mismatched, incomplete
  double window_s = 0;           // timed seconds over all windows
  double rss_mib = 0;
  double steal_share = 0;        // machine steal time over the run
  std::vector<double> setup_s;
  std::vector<Window> windows;
  // Latency percentiles over all windows' samples pooled, instead of the
  // median of per-window percentiles: for the closed loops, whose windows
  // hold one (bulk_fill) or a few dozen (serve_stream) samples.
  bool pooled_latency = false;
  std::vector<double> late_us;   // open loop: send time minus due time
  std::vector<std::string> errors;  // first few failure descriptions
  // Traced passes: telemetry counters of the program (deltas over the pass
  // for the in-process engine, the daemon's scrape for serving).
  std::map<std::string, double> counters;
  std::vector<double> job_hist_bounds;
  std::vector<std::uint64_t> job_hist_buckets;
  // Note a failed op (kept: the first few descriptions).  The count itself
  // is attempted - completed, so an unanswered op counts too.
  void fail(std::string why);
  void add(Window w);  // append a window; counts its ops and seconds
};

RunResult run_workload(const Config& cfg, const Params& p, double seconds,
                       Tracer& tracer, bool telemetry);

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// The eight end-to-end metrics of one untraced pass.
std::vector<Metric> end_to_end(const RunResult& r);

// Per-layer metrics: the ladder replay (needs a daemon for net.wire) and
// the fixed-size probes.
std::vector<Metric> run_ladder(const Config& cfg, const Params& p,
                               Tracer& tracer, const Daemon& daemon);
std::vector<Metric> run_probes(const Config& cfg, const Params& p);
// Per-layer metrics from the program's telemetry counters: net.server.*
// from a daemon's scrape, core.pool.* from whichever pass ran the engine.
std::vector<Metric> counter_metrics(const RunResult& net_src,
                                    const RunResult& pool_src);
void collect_counters(const bsrng::telemetry::MetricsSnapshot& after,
                      const bsrng::telemetry::MetricsSnapshot* before,
                      RunResult& r);
// Scrape a daemon's GET /metrics into r's counters.
void scrape_into(const Daemon& d, RunResult& r);

// The op prefix the ladder replays over `conns` connections: the first
// round of bulk_fill, the first two spans of serve_stream's segments until
// every cipher has appeared, serve_small's first ladder_small_ops ops.
std::vector<Op> ladder_ops(const Config& cfg, const Params& p, unsigned conns);

// --- output ---------------------------------------------------------------
std::string json_escape(const std::string& s);
std::string json_number(double v);
void write_spans(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench
