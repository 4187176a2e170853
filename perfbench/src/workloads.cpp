// workloads.cpp — op sequences, output checking, and the three workloads.
#include <poll.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <deque>
#include <exception>
#include <mutex>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "bsrng.hpp"
#include "net/client.hpp"
#include "perfbench.hpp"
#include "stats.hpp"

namespace perfbench {

namespace bc = bsrng::core;
namespace bn = bsrng::net;
namespace bs = bsrng::stream;

Params params_for(const Config& cfg) {
  if (cfg.smoke)
    return {/*bulk_span=*/256u << 10, /*stream_span=*/64u << 10,
            /*small_rate=*/300, /*small_streams=*/48, /*ladder_small_ops=*/60,
            /*probe_seek_offset=*/64u << 10, /*probe_session_span=*/64u << 10};
  return {/*bulk_span=*/2u << 20, /*stream_span=*/1u << 20,
          /*small_rate=*/1500, /*small_streams=*/384, /*ladder_small_ops=*/600,
          /*probe_seek_offset=*/1u << 20, /*probe_session_span=*/1u << 20};
}

unsigned connections_for(const Config& cfg) { return std::max(cfg.nproc, 1u); }

std::uint64_t Rng::next() {
  std::uint64_t z = (s += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t root_seed(std::uint64_t seed) {
  return Rng{seed ^ 0x7065726662656E63ull}.next();  // "perfbenc"
}

Op bulk_op(const Config& cfg, const Params& p, std::uint64_t i) {
  Op o;
  o.id = i;
  o.algo = static_cast<std::size_t>((i + cfg.seed) % kNumAlgos);
  o.ref = {1 + i, 1, 0};
  o.offset = 0;
  o.nbytes = static_cast<std::uint32_t>(p.bulk_span);
  return o;
}

Op stream_op(const Config& cfg, const Params& p, unsigned conns,
             std::uint64_t seg, unsigned conn, std::uint64_t k) {
  Op o;
  o.id = (seg * conns + conn) * kStreamSpansPerSegment + k;
  o.algo = static_cast<std::size_t>((conn + seg + cfg.seed) % kNumAlgos);
  o.ref = {1 + conn, 1 + seg, 0};
  o.offset = k * p.stream_span;
  o.nbytes = static_cast<std::uint32_t>(p.stream_span);
  o.conn = conn;
  return o;
}

std::vector<Op> small_ops(const Config& cfg, const Params& p, unsigned conns,
                          double seconds) {
  Rng rng{cfg.seed ^ 0x736D616C6C6F7073ull};
  struct Sub {
    bs::StreamRef ref;
    std::uint64_t cursor = 0;
  };
  std::vector<Sub> subs(p.small_streams);
  for (std::size_t k = 0; k < subs.size(); ++k)
    subs[k].ref = {1 + k, 1 + rng.below(4), rng.below(2)};
  const auto n = static_cast<std::size_t>(p.small_rate * seconds);
  std::vector<Op> ops(n);
  for (std::size_t i = 0; i < n; ++i) {
    Op& o = ops[i];
    const std::size_t k = rng.below(subs.size());
    Sub& s = subs[k];
    o.id = i;
    o.stream = static_cast<std::uint32_t>(k);
    o.algo = k % kNumAlgos;
    o.ref = s.ref;
    o.conn = static_cast<std::uint32_t>(k % conns);
    o.nbytes = 64u << rng.below(7);  // 64 B .. 4 KiB
    o.due = due_time(0, i, p.small_rate);
    o.frame = rng.below(2) == 0 ? Frame::kV1 : Frame::kV2;
    // One op in ten leaves the sequential path: a forward seek, a backward
    // seek, or a checkpoint→resume at the cursor.  Backward seeks land in
    // the first 16 KiB, so a lane-slice rebuild costs a bounded clock-through
    // rather than one that grows with the run.
    const std::uint64_t roll = rng.below(30);
    if (roll == 0) {
      o.kind = OpKind::kForwardSeek;
      o.offset = s.cursor + 1024 * (1 + rng.below(32));
      s.cursor = o.offset + o.nbytes;
    } else if (roll == 1 && s.cursor >= 2 * o.nbytes) {
      o.kind = OpKind::kBackwardSeek;
      o.offset = 64 * rng.below(std::min<std::uint64_t>(s.cursor - o.nbytes, 16384) / 64);
    } else {
      if (roll == 2) o.frame = Frame::kResume;
      o.offset = s.cursor;
      s.cursor += o.nbytes;
    }
  }
  return ops;
}

// --- digest -----------------------------------------------------------------

namespace {
constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ull;
constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4Full;
constexpr std::uint64_t kP3 = 0x165667B19E3779F9ull;
std::uint64_t rotl(std::uint64_t x, int r) { return (x << r) | (x >> (64 - r)); }
std::uint64_t load64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}
}  // namespace

Digest::Digest() : v_{kP1 + kP2, kP2, 0, 0 - kP1} {}

void Digest::block(const std::uint8_t* p) {
  for (int i = 0; i < 4; ++i)
    v_[i] = rotl(v_[i] + load64(p + 8 * i) * kP2, 31) * kP1;
}

void Digest::update(std::span<const std::uint8_t> bytes) {
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  total_ += n;
  if (nbuf_ > 0) {
    const std::size_t take = std::min(n, 32 - nbuf_);
    std::memcpy(buf_ + nbuf_, p, take);
    nbuf_ += take;
    p += take;
    n -= take;
    if (nbuf_ < 32) return;
    block(buf_);
    nbuf_ = 0;
  }
  for (; n >= 32; p += 32, n -= 32) block(p);
  std::memcpy(buf_, p, n);
  nbuf_ = n;
}

std::uint64_t Digest::finish() const {
  std::uint64_t h = rotl(v_[0], 1) + rotl(v_[1], 7) + rotl(v_[2], 12) +
                    rotl(v_[3], 18) + total_;
  for (std::size_t i = 0; i < nbuf_; ++i)
    h = rotl(h ^ (buf_[i] * kP3), 11) * kP1;
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  return h;
}

std::uint64_t digest_of(std::span<const std::uint8_t> bytes) {
  Digest d;
  d.update(bytes);
  return d.finish();
}

// --- canonical output ---------------------------------------------------------

namespace {
std::unique_ptr<bc::Generator> canonical_generator(const Config& cfg,
                                                   std::size_t algo,
                                                   const bs::StreamRef& ref) {
  return bc::make_generator(kAlgos[algo], ref.derive_seed(root_seed(cfg.seed)));
}
}  // namespace

std::vector<std::uint8_t> canonical_bytes(const Config& cfg, std::size_t algo,
                                          const bs::StreamRef& ref, std::size_t n) {
  auto gen = canonical_generator(cfg, algo, ref);
  std::vector<std::uint8_t> out(n);
  gen->fill(out);
  return out;
}

std::uint64_t canonical_digest(const Config& cfg, std::size_t algo,
                               const bs::StreamRef& ref, std::size_t n) {
  auto gen = canonical_generator(cfg, algo, ref);
  std::vector<std::uint8_t> chunk(256u << 10);
  Digest d;
  while (n > 0) {
    const std::size_t take = std::min(n, chunk.size());
    gen->fill(std::span(chunk.data(), take));
    d.update(std::span(chunk.data(), take));
    n -= take;
  }
  return d.finish();
}

void parallel_for(std::size_t n, unsigned threads,
                  const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  std::mutex mu;
  std::exception_ptr error;  // guarded by mu
  std::vector<std::thread> pool;
  const std::size_t t = std::min<std::size_t>(std::max(1u, threads), n);
  for (std::size_t w = 0; w < t; ++w)
    pool.emplace_back([&] {
      try {
        for (std::size_t i; (i = next.fetch_add(1)) < n;) fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(mu);
        if (!error) error = std::current_exception();
      }
    });
  for (auto& th : pool) th.join();
  if (error) std::rethrow_exception(error);
}

void RunResult::fail(std::string why) {
  if (errors.size() < 8) errors.push_back(std::move(why));
}

void RunResult::add(Window w) {
  completed += w.ops;
  window_s += w.seconds;
  windows.push_back(std::move(w));
}

namespace {

std::string describe(const Op& o) {
  return std::string(kAlgos[o.algo]) + " tenant " + std::to_string(o.ref.tenant) +
         " stream " + std::to_string(o.ref.stream) + " offset " +
         std::to_string(o.offset) + " nbytes " + std::to_string(o.nbytes);
}

std::string status_text(const bn::Response& r) {
  return "status " + std::to_string(static_cast<int>(r.status)) + " " +
         std::string(r.payload.begin(), r.payload.end()).substr(0, 80);
}

// Wait until one of `clients` has bytes to read, or `timeout_ms` passes.
// Returns false on timeout.
bool wait_readable(std::vector<bn::Client>& clients, double timeout_ms) {
  std::vector<pollfd> pfds;
  for (auto& c : clients) pfds.push_back({c.fd(), POLLIN, 0});
  timespec ts{};
  const double t = std::max(0.0, timeout_ms);
  ts.tv_sec = static_cast<time_t>(t / 1000);
  ts.tv_nsec = static_cast<long>((t - ts.tv_sec * 1000.0) * 1e6);
  return ::ppoll(pfds.data(), pfds.size(), &ts, nullptr) > 0;
}

// Spawn bsrngd and open `conns` v2 connections, each answering kHello.
// Returns the seconds from a quiet start to the last answer: one set-up
// sample.
double setup_daemon(const Config& cfg, unsigned conns, bool telemetry,
                    std::unique_ptr<Daemon>& d, std::vector<bn::Client>& clients) {
  std::this_thread::sleep_for(std::chrono::milliseconds(kSetupIdleMs));
  const auto t0 = Clock::now();
  d = std::make_unique<Daemon>(cfg.bsrngd, cfg.nproc, telemetry);
  for (unsigned c = 0; c < conns; ++c) {
    clients.emplace_back("127.0.0.1", d->port());
    clients.back().hello();
  }
  return seconds_since(t0, Clock::now());
}

// One more set-up sample, torn down again.
void spare_daemon_setup(const Config& cfg, unsigned conns, bool telemetry,
                        RunResult& r) {
  std::unique_ptr<Daemon> d;
  std::vector<bn::Client> clients;
  r.setup_s.push_back(setup_daemon(cfg, conns, telemetry, d, clients));
  clients.clear();
  d->stop(/*graceful=*/false);
}

// Construct the engine (and its pool) from a quiet start.
double setup_engine(const Config& cfg, std::unique_ptr<bc::StreamEngine>& e) {
  std::this_thread::sleep_for(std::chrono::milliseconds(kSetupIdleMs));
  const auto t0 = Clock::now();
  e = std::make_unique<bc::StreamEngine>(bc::StreamEngineConfig{.workers = cfg.nproc});
  return seconds_since(t0, Clock::now());
}

// --- bulk_fill --------------------------------------------------------------

void run_bulk_fill(const Config& cfg, const Params& p, double seconds,
                   Tracer& tr, bool telemetry, RunResult& r) {
  r.pooled_latency = true;  // one latency sample per round (see README)
  std::unique_ptr<bc::StreamEngine> engine;
  r.setup_s.push_back(setup_engine(cfg, engine));
  auto spare_setup = [&] {
    std::unique_ptr<bc::StreamEngine> spare;
    r.setup_s.push_back(setup_engine(cfg, spare));
  };
  // BSRNG_TELEMETRY in the environment turns the registry on at start-up;
  // only the traced pass may run with it on.
  auto& reg = bsrng::telemetry::metrics();
  reg.set_enabled(telemetry);
  std::optional<bsrng::telemetry::MetricsSnapshot> before;
  if (telemetry) before = reg.snapshot();
  const std::uint64_t root = root_seed(cfg.seed);
  std::vector<std::uint8_t> out(p.bulk_span);
  double timed = 0;
  // Each window is one round of one call per cipher, so every cipher gets
  // equal bytes and every window does the same work.
  for (std::uint64_t next = 0; timed < seconds; next += kNumAlgos) {
    std::array<std::uint64_t, kNumAlgos> want{};
    std::array<Op, kNumAlgos> ops;
    for (std::size_t k = 0; k < kNumAlgos; ++k) ops[k] = bulk_op(cfg, p, next + k);
    parallel_for(kNumAlgos, cfg.nproc, [&](std::size_t k) {
      want[k] = canonical_digest(cfg, ops[k].algo, ops[k].ref, ops[k].nbytes);
    });
    Window w;
    for (const Op& o : ops) {
      const auto op_span = tr.begin("bench.op", o.id);
      const bc::StreamRequest req{kAlgos[o.algo], root, o.ref, o.offset};
      ++r.attempted;
      bool ok = true;
      const double c0 = process_cpu_seconds();
      const auto t0 = Clock::now();
      const auto call = tr.begin("core.engine_wN", o.id, op_span);
      try {
        engine->generate(req, out);
      } catch (const std::exception& e) {
        ok = false;
        r.fail(describe(o) + ": " + e.what());
      }
      tr.end(call);
      w.seconds += seconds_since(t0, Clock::now());
      w.cpu_s += process_cpu_seconds() - c0;
      const auto check = tr.begin("bench.check", o.id, op_span);
      if (ok && digest_of(out) != want[o.id - next]) {
        ok = false;
        r.fail(describe(o) + ": bytes differ from the canonical stream");
      }
      tr.end(check);
      tr.end(op_span);
      if (ok) {
        ++w.ops;
        w.bytes += o.nbytes;
      }
    }
    w.latency_us.push_back(w.seconds * 1e6);
    timed += w.seconds;
    r.add(std::move(w));
    spare_setup();
  }
  while (r.setup_s.size() < kSetupReps) spare_setup();
  r.rss_mib = peak_rss_mib(0);
  if (telemetry) {
    collect_counters(reg.snapshot(), &*before, r);
    reg.set_enabled(false);
  }
}

// --- serve_stream -------------------------------------------------------------

void run_serve_stream(const Config& cfg, const Params& p, double seconds,
                      Tracer& tr, bool telemetry, RunResult& r) {
  r.pooled_latency = true;  // a window holds too few requests for a p99
  const unsigned conns = connections_for(cfg);
  std::unique_ptr<Daemon> daemon;
  std::vector<bn::Client> clients;
  r.setup_s.push_back(setup_daemon(cfg, conns, telemetry, daemon, clients));
  const std::uint64_t root = root_seed(cfg.seed);
  const std::size_t seg_bytes = p.stream_span * kStreamSpansPerSegment;
  // A round gives each connection one segment, and connection c's cipher
  // in round s is (c + s + seed) mod 6.  A window of 6 rounds gives every
  // connection every cipher once, so every window does the same work in
  // the same pairings.
  const std::uint64_t rounds_per_window = kNumAlgos;
  struct Inflight {
    Op op;
    Clock::time_point sent;
    std::int64_t op_span, wire_span;
  };
  std::vector<std::vector<std::uint8_t>> want(conns);
  double timed = 0;
  Window w;
  for (std::uint64_t seg = 0; timed < seconds || seg % rounds_per_window != 0;
       ++seg) {
    // Expected bytes for this round, while the daemon is idle.
    parallel_for(conns, cfg.nproc, [&](std::size_t c) {
      const Op o = stream_op(cfg, p, conns, seg, static_cast<unsigned>(c), 0);
      want[c] = canonical_bytes(cfg, o.algo, o.ref, seg_bytes);
    });
    std::vector<std::deque<Inflight>> inflight(conns);
    std::vector<std::uint64_t> next_k(conns, 0);
    std::size_t open = conns;
    const double cpu0 = daemon->cpu_seconds();
    const auto t0 = Clock::now();
    while (open > 0) {
      for (unsigned c = 0; c < conns; ++c)
        while (inflight[c].size() < kStreamDepth &&
               next_k[c] < kStreamSpansPerSegment) {
          const Op o = stream_op(cfg, p, conns, seg, c, next_k[c]++);
          const auto op_span = tr.begin("bench.op", o.id);
          const auto wire = tr.begin("net.wire", o.id, op_span);
          const auto sent = Clock::now();
          clients[c].send_generate(kAlgos[o.algo], root, o.ref, o.offset,
                                   o.nbytes);
          ++r.attempted;
          inflight[c].push_back({o, sent, op_span, wire});
        }
      if (!wait_readable(clients, 30000)) {
        for (auto& q : inflight)
          for (const auto& f : q) r.fail(describe(f.op) + ": no answer in 30 s");
        break;
      }
      bool closed = false;
      for (unsigned c = 0; c < conns && !closed; ++c) {
        bn::Response resp;
        while (!inflight[c].empty()) {
          const auto got = clients[c].read_response(resp, 0);
          closed = got == bn::Client::ReadResult::kClosed;
          if (got != bn::Client::ReadResult::kFrame) break;
          const Inflight f = inflight[c].front();
          inflight[c].pop_front();
          const auto t1 = Clock::now();
          tr.end(f.wire_span);
          const auto check = tr.begin("bench.check", f.op.id, f.op_span);
          const std::uint8_t* expect = want[c].data() + f.op.offset;
          if (resp.status != bn::Status::kOk) {
            r.fail(describe(f.op) + ": " + status_text(resp));
          } else if (resp.payload.size() != f.op.nbytes ||
                     std::memcmp(resp.payload.data(), expect, f.op.nbytes) != 0) {
            r.fail(describe(f.op) + ": bytes differ from the canonical stream");
          } else {
            ++w.ops;
            w.bytes += f.op.nbytes;
            w.latency_us.push_back(seconds_since(f.sent, t1) * 1e6);
          }
          tr.end(check);
          tr.end(f.op_span);
          if (inflight[c].empty() && next_k[c] == kStreamSpansPerSegment)
            --open;
        }
      }
      if (closed) {
        for (auto& q : inflight)
          for (const auto& f : q) r.fail(describe(f.op) + ": connection closed");
        break;
      }
    }
    const double dt = seconds_since(t0, Clock::now());
    w.seconds += dt;
    timed += dt;
    w.cpu_s += daemon->cpu_seconds() - cpu0;
    if (!r.errors.empty()) break;
    if ((seg + 1) % rounds_per_window == 0) r.add(std::exchange(w, {}));
    spare_daemon_setup(cfg, conns, telemetry, r);
  }
  if (w.seconds > 0) r.add(std::move(w));
  while (r.errors.empty() && r.setup_s.size() < kSetupReps)
    spare_daemon_setup(cfg, conns, telemetry, r);
  // A daemon that closed a connection may be gone: read it only if the
  // run went through, so a failed run still reports what failed.
  if (r.errors.empty()) {
    r.rss_mib = daemon->peak_rss_mib();
    if (telemetry) scrape_into(*daemon, r);
  }
  clients.clear();
  daemon->stop();
}

// --- serve_small ----------------------------------------------------------------

void run_serve_small(const Config& cfg, const Params& p, double seconds,
                     Tracer& tr, bool telemetry, RunResult& r) {
  const unsigned conns = connections_for(cfg);
  const std::uint64_t root = root_seed(cfg.seed);
  const std::vector<Op> ops = small_ops(cfg, p, conns, seconds);
  // Expected bytes: each substream's canonical prefix up to its furthest
  // byte, generated before the timed window.
  std::vector<std::uint64_t> end(p.small_streams, 0);
  std::vector<const Op*> first(p.small_streams, nullptr);
  for (const Op& o : ops) {
    end[o.stream] = std::max(end[o.stream], o.offset + o.nbytes);
    if (first[o.stream] == nullptr) first[o.stream] = &o;
  }
  std::vector<std::vector<std::uint8_t>> want(p.small_streams);
  parallel_for(p.small_streams, cfg.nproc, [&](std::size_t k) {
    if (first[k] != nullptr)
      want[k] = canonical_bytes(cfg, first[k]->algo, first[k]->ref, end[k]);
  });
  // The open loop cannot pause between windows, so all its set-ups come
  // first; the last one is kept.
  while (r.setup_s.size() + 1 < kSetupReps) spare_daemon_setup(cfg, conns, telemetry, r);
  std::unique_ptr<Daemon> daemon;
  std::vector<bn::Client> clients;
  r.setup_s.push_back(setup_daemon(cfg, conns, telemetry, daemon, clients));

  // One window per second of schedule.  An op belongs to the window it was
  // due in; a window lasts from its first due time to its last answer, and
  // the daemon's CPU is sampled as the schedule crosses each boundary.
  const auto nwin = static_cast<std::size_t>(std::ceil(seconds));
  std::vector<Window> win(nwin);
  std::vector<double> last_answer(nwin, 0.0);
  std::vector<double> cpu_at(nwin + 1, 0.0);
  std::size_t cpu_marks = 0;
  auto window_of = [&](const Op& o) {
    return std::min(nwin - 1, static_cast<std::size_t>(o.due));
  };

  struct Inflight {
    const Op* op;
    bool checkpoint;  // the kCheckpoint half of a checkpoint→resume op
    std::vector<std::uint8_t> blob;
    std::int64_t op_span, wire_span;
  };
  std::vector<std::deque<Inflight>> inflight(conns);
  std::vector<bool> op_failed(ops.size(), false);
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  const double start_s = tr.to_epoch(start);
  auto now_s = [&] { return seconds_since(start, Clock::now()); };
  std::size_t next = 0, done = 0;
  const double drain_deadline = seconds + 30;
  while (done < ops.size()) {
    double now = now_s();
    while (cpu_marks < nwin && now >= static_cast<double>(cpu_marks))
      cpu_at[cpu_marks++] = daemon->cpu_seconds();
    for (; next < ops.size() && ops[next].due <= now; ++next) {
      const Op& o = ops[next];
      bn::Client& cl = clients[o.conn];
      r.late_us.push_back(sender_lateness(o.due, now) * 1e6);
      // The op's span starts when it was due; its wire child when sent.
      const auto op_span =
          tr.add("bench.op", o.id, start_s + o.due, start_s + o.due);
      const auto wire = tr.begin("net.wire", o.id, op_span);
      ++r.attempted;
      const std::string algo = kAlgos[o.algo];
      if (o.frame == Frame::kV1) {
        cl.send_generate(algo, o.ref.derive_seed(root), o.offset, o.nbytes);
      } else if (o.frame == Frame::kV2) {
        cl.send_generate(algo, root, o.ref, o.offset, o.nbytes);
      } else {
        std::vector<std::uint8_t> blob =
            bs::serialize_checkpoint({algo, root, o.ref, o.offset});
        cl.send_checkpoint(algo, root, o.ref, o.offset);
        cl.send_resume(blob, o.nbytes);
        inflight[o.conn].push_back({&o, true, std::move(blob), op_span, wire});
      }
      inflight[o.conn].push_back({&o, false, {}, op_span, wire});
      now = now_s();
    }
    const double wait_ms =
        next < ops.size() ? (ops[next].due - now) * 1e3 : 50.0;
    if (!wait_readable(clients, wait_ms) && next == ops.size() &&
        now > drain_deadline)
      break;
    bool closed = false;
    for (unsigned c = 0; c < conns && !closed; ++c) {
      bn::Response resp;
      while (!inflight[c].empty()) {
        const auto got = clients[c].read_response(resp, 0);
        closed = got == bn::Client::ReadResult::kClosed;
        if (got != bn::Client::ReadResult::kFrame) break;
        Inflight f = std::move(inflight[c].front());
        inflight[c].pop_front();
        const Op& o = *f.op;
        if (f.checkpoint) {
          if (resp.status != bn::Status::kOk || resp.payload != f.blob) {
            op_failed[o.id] = true;
            r.fail(describe(o) + ": server checkpoint differs from the local one");
          }
          continue;
        }
        const double t = now_s();
        tr.end(f.wire_span);
        const auto check = tr.begin("bench.check", o.id, f.op_span);
        ++done;
        if (resp.status != bn::Status::kOk) {
          r.fail(describe(o) + ": " + status_text(resp));
        } else if (resp.payload.size() != o.nbytes ||
                   std::memcmp(resp.payload.data(),
                               want[o.stream].data() + o.offset, o.nbytes) != 0) {
          r.fail(describe(o) + ": bytes differ from the canonical stream");
        } else if (!op_failed[o.id]) {
          const std::size_t k = window_of(o);
          Window& w = win[k];
          last_answer[k] = std::max(last_answer[k], t);
          ++w.ops;
          w.bytes += o.nbytes;
          w.latency_us.push_back(latency_from_due(o.due, t) * 1e6);
        }
        tr.end(check);
        tr.end(f.op_span);
      }
    }
    if (closed) {
      r.fail("the daemon closed a connection");
      break;
    }
  }
  for (std::size_t i = done; i < ops.size(); ++i)
    r.fail("op " + std::to_string(i) + " never answered");
  while (cpu_marks <= nwin) cpu_at[cpu_marks++] = daemon->cpu_seconds();
  for (std::size_t k = 0; k < nwin; ++k) {
    win[k].cpu_s = cpu_at[k + 1] - cpu_at[k];
    win[k].seconds = std::max(0.0, last_answer[k] - static_cast<double>(k));
    r.add(std::move(win[k]));
  }
  // A daemon that closed a connection may be gone: read it only if the
  // run went through, so a failed run still reports what failed.
  if (r.errors.empty()) {
    r.rss_mib = daemon->peak_rss_mib();
    if (telemetry) scrape_into(*daemon, r);
  }
  clients.clear();
  daemon->stop();
}

}  // namespace

RunResult run_workload(const Config& cfg, const Params& p, double seconds,
                       Tracer& tracer, bool telemetry) {
  const auto run = cfg.workload == "bulk_fill"      ? run_bulk_fill
                  : cfg.workload == "serve_stream" ? run_serve_stream
                  : cfg.workload == "serve_small"  ? run_serve_small
                                                   : nullptr;
  if (run == nullptr) throw std::invalid_argument("unknown workload " + cfg.workload);
  const CpuTimes before = read_cpu_times();
  RunResult r;
  try {
    run(cfg, p, seconds, tracer, telemetry, r);
  } catch (const std::exception& e) {
    // A lost connection ends the run: the ops it left unanswered count as
    // failed, and the record still says what happened.
    r.fail(std::string("run stopped: ") + e.what());
  }
  r.failed = r.attempted - r.completed;
  r.steal_share = steal_share(before, read_cpu_times());
  return r;
}

std::vector<Metric> end_to_end(const RunResult& r) {
  // Rates and latencies are medians over the run's windows, so a burst of
  // interference from outside moves one window, not the result.
  std::vector<double> gbps, rps, p50, tail, cpu, all;
  for (const Window& w : r.windows) {
    if (w.ops == 0 || w.seconds <= 0) continue;
    const double ops = static_cast<double>(w.ops);
    gbps.push_back(static_cast<double>(w.bytes) * 8.0 / w.seconds / 1e9);
    rps.push_back(ops / w.seconds);
    cpu.push_back(w.cpu_s * 1e6 / ops);
    all.insert(all.end(), w.latency_us.begin(), w.latency_us.end());
    if (!r.pooled_latency) {
      p50.push_back(median(w.latency_us));
      tail.push_back(tail_percentile(w.latency_us).value);
    }
  }
  if (r.pooled_latency && !all.empty()) {
    p50 = {median(all)};
    tail = {tail_percentile(all).value};
  }
  auto med = [](const std::vector<double>& v) { return v.empty() ? 0.0 : median(v); };
  return {
      {"setup_s", median(r.setup_s), "s"},
      {"throughput_gbps", med(gbps), "Gbit/s"},
      {"requests_per_s", med(rps), "1/s"},
      {"latency_p50_us", med(p50), "us"},
      {"latency_p99_us", med(tail), "us"},
      {"ok_ratio",
       static_cast<double>(r.completed) /
           static_cast<double>(std::max<std::uint64_t>(1, r.attempted)),
       "ratio"},
      {"cpu_us_per_op", med(cpu), "us"},
      {"peak_rss_mib", r.rss_mib, "MiB"},
  };
}

}  // namespace perfbench
