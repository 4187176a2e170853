#include "net/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "core/registry.hpp"
#include "core/stream_engine.hpp"
#include "fault/fault.hpp"
#include "net/protocol.hpp"
#include "net/session.hpp"
#include "stream/checkpoint.hpp"
#include "telemetry/metrics.hpp"

namespace bsrng::net {

namespace {

// Largest merged span one batch may hand the engine: two full kGenerate
// answers' worth, so merging never builds an unbounded contiguous buffer.
constexpr std::size_t kMaxBatchBytes = 2 * kMaxGenerateBytes;
// Per-poll-round read budget per connection, for cross-connection fairness.
constexpr std::size_t kReadBudget = 256u << 10;
// An HTTP metrics probe must fit its header block in this much buffer.
constexpr std::size_t kMaxHttpHeader = 8u << 10;

struct NetMetrics {
  telemetry::Counter& accepted;
  telemetry::Counter& requests;
  telemetry::Counter& bytes_served;
  telemetry::Counter& bad_frames;
  telemetry::Counter& backpressure_stalls;
  telemetry::Counter& batched_spans;
  telemetry::Counter& sheds;
  telemetry::Counter& idle_closed;
  telemetry::Counter& drains;
  telemetry::Gauge& connections;
  telemetry::Gauge& sessions;
  telemetry::Gauge& started_unix;

  static NetMetrics& get() {
    static NetMetrics m{
        telemetry::metrics().counter("net.accepted"),
        telemetry::metrics().counter("net.requests"),
        telemetry::metrics().counter("net.bytes_served"),
        telemetry::metrics().counter("net.bad_frames"),
        telemetry::metrics().counter("net.backpressure_stalls"),
        telemetry::metrics().counter("net.batched_spans"),
        telemetry::metrics().counter("net.sheds"),
        telemetry::metrics().counter("net.idle_closed"),
        telemetry::metrics().counter("net.drains"),
        telemetry::metrics().gauge("net.connections"),
        telemetry::metrics().gauge("net.sessions"),
        telemetry::metrics().gauge("net.started_unix_seconds"),
    };
    return m;
  }
};

// Server-side syscall injection points: the seeded chaos schedule models
// short reads/writes, peer resets, and transient accept failures at the
// exact layer the real kernel would produce them.  Disarmed cost per
// syscall is a relaxed load + branch.
struct ServerFaults {
  fault::FaultPoint& accept_fail;
  fault::FaultPoint& read_short;
  fault::FaultPoint& read_reset;
  fault::FaultPoint& write_short;
  fault::FaultPoint& write_reset;

  static ServerFaults& get() {
    static ServerFaults f{
        fault::faults().point("net.server.accept_fail"),
        fault::faults().point("net.server.read_short"),
        fault::faults().point("net.server.read_reset"),
        fault::faults().point("net.server.write_short"),
        fault::faults().point("net.server.write_reset"),
    };
    return f;
  }
};

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

std::vector<std::uint8_t> ascii_payload(std::string_view text) {
  return {text.begin(), text.end()};
}

}  // namespace

struct Server::Impl {
  ServerConfig config;
  core::StreamEngine engine;

  int listen_fd = -1;
  int wake_rd = -1;
  int wake_wr = -1;
  std::thread loop_thread;
  std::atomic<bool> stop_flag{false};
  std::atomic<bool> drain_flag{false};
  // Set by the loop once it has seen drain_flag and accepted every
  // connection the kernel completed before it (or once the loop has ended).
  std::atomic<bool> drain_acked{false};
  std::uint16_t bound_port = 0;

  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> bytes_served{0};
  std::atomic<std::uint64_t> bad_frames{0};
  std::atomic<std::uint64_t> stalls{0};
  std::atomic<std::uint64_t> batched{0};
  std::atomic<std::uint64_t> sheds{0};
  std::atomic<std::uint64_t> idle_closed{0};
  std::atomic<std::uint64_t> drains{0};
  std::atomic<std::size_t> connections{0};
  std::atomic<std::size_t> sessions{0};

  using Clock = std::chrono::steady_clock;

  // A decoded request waiting for its in-order answer.  `shed` is decided
  // at admission (per-tenant in-flight overflow) but answered here, in
  // response order — rejecting out of order would desync the pipeline.
  struct PendingReq {
    Request req;
    bool shed = false;
  };

  struct Conn {
    int fd = -1;
    std::vector<std::uint8_t> rbuf;
    std::vector<std::uint8_t> wbuf;
    std::size_t wpos = 0;
    bool http = false;        // first bytes were "GET " — metrics probe
    bool saw_binary = false;  // at least one frame extracted
    bool poisoned = false;    // malformed frame: answer pending, then close
    bool eof = false;         // peer half-closed: serve the backlog, close
    bool closing = false;     // flush wbuf, then close
    bool throttled = false;   // over the write high watermark: not reading
    bool dead = false;        // socket error: close immediately
    Clock::time_point last_activity;   // last byte read or written
    Clock::time_point partial_since;   // oldest incomplete-frame byte
    bool has_partial = false;
    std::deque<PendingReq> pending;
    std::map<std::pair<std::string, std::uint64_t>, Session> sess;

    std::size_t pending_write() const { return wbuf.size() - wpos; }
  };
  std::map<int, Conn> conns;
  // Bytes queued for write across all connections (the shed signal),
  // maintained incrementally: respond/process_http add, flush/close
  // subtract.  Loop-thread only.
  std::size_t queued_total = 0;

  // Per-tenant quota state; tenant identity is (algorithm, seed) across
  // connections.  Loop-thread only.
  struct Tenant {
    std::size_t pending = 0;   // decoded, unanswered kGenerate requests
    double tokens = 0.0;       // bytes/sec bucket
    bool bucket_init = false;
    Clock::time_point last_refill;
  };
  std::map<std::pair<std::string, std::uint64_t>, Tenant> tenants;

  bool tenant_tracking() const {
    return config.tenant_max_pending > 0 || config.tenant_bytes_per_sec > 0;
  }

  Tenant& tenant(const GenerateRequest& g) {
    return tenants[std::make_pair(g.algorithm, g.seed)];
  }

  void tenant_release(const GenerateRequest& g) {
    const auto it = tenants.find(std::make_pair(g.algorithm, g.seed));
    if (it == tenants.end()) return;
    if (it->second.pending > 0) --it->second.pending;
    // Bucket state matters only while a bytes/sec quota is on; otherwise
    // idle tenants are dropped so the map tracks live load, not history.
    if (it->second.pending == 0 && config.tenant_bytes_per_sec == 0)
      tenants.erase(it);
  }

  // Refill-then-read the tenant's byte bucket (burst = one second's rate).
  double tenant_bucket(Tenant& t, Clock::time_point now) const {
    const double rate = static_cast<double>(config.tenant_bytes_per_sec);
    if (!t.bucket_init) {
      t.bucket_init = true;
      t.tokens = rate;
      t.last_refill = now;
      return t.tokens;
    }
    const double elapsed =
        std::chrono::duration<double>(now - t.last_refill).count();
    t.tokens = std::min(rate, t.tokens + elapsed * rate);
    t.last_refill = now;
    return t.tokens;
  }

  explicit Impl(ServerConfig cfg)
      : config(std::move(cfg)),
        engine(core::StreamEngineConfig{
            .workers = config.workers,
            .chunk_bytes = config.engine_chunk_bytes,
            .parallel = true,
            .numa_nodes = config.numa_nodes}) {}

  // --- lifecycle ---------------------------------------------------------

  void start() {
    if (loop_thread.joinable())
      throw std::logic_error("Server: already started");
    listen_fd =
        ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (listen_fd < 0) throw_errno("socket");
    int one = 1;
    ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(config.port);
    if (::inet_pton(AF_INET, config.bind_address.c_str(), &addr.sin_addr) !=
        1) {
      ::close(listen_fd);
      listen_fd = -1;
      throw std::invalid_argument("Server: bad bind address " +
                                  config.bind_address);
    }
    if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
            0 ||
        ::listen(listen_fd, 1024) < 0) {
      const int err = errno;
      ::close(listen_fd);
      listen_fd = -1;
      throw std::system_error(err, std::generic_category(), "bind/listen");
    }
    sockaddr_in bound{};
    socklen_t blen = sizeof bound;
    ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&bound), &blen);
    bound_port = ntohs(bound.sin_port);
    int pipefd[2];
    if (::pipe2(pipefd, O_NONBLOCK | O_CLOEXEC) < 0) {
      ::close(listen_fd);
      listen_fd = -1;
      throw_errno("pipe2");
    }
    wake_rd = pipefd[0];
    wake_wr = pipefd[1];
    // Scrape dashboards want process start time; this is the one deliberate
    // wall-clock read in src/net (see tests/net/net_lint_test.cpp).
    NetMetrics::get().started_unix.set(static_cast<double>(std::chrono::duration_cast<std::chrono::seconds>(std::chrono::system_clock::now().time_since_epoch()).count()));  // bsrng-lint: allow(wall-clock)
    stop_flag.store(false, std::memory_order_release);
    loop_thread = std::thread([this] { loop(); });
  }

  void stop() {
    if (!loop_thread.joinable()) return;
    stop_flag.store(true, std::memory_order_release);
    const std::uint8_t b = 1;
    [[maybe_unused]] const ssize_t w = ::write(wake_wr, &b, 1);
    loop_thread.join();
    ::close(listen_fd);
    ::close(wake_rd);
    ::close(wake_wr);
    listen_fd = wake_rd = wake_wr = -1;
  }

  // Graceful drain: flag the loop (accept what the kernel has already
  // queued, then stop accepting; sweep walks quiet connections to closing),
  // wait for the loop to acknowledge, then wait for the population to hit
  // zero or the deadline — whichever first — and stop().  Without the
  // acknowledgement a client whose connect() completed just before the
  // drain was never accepted, and its buffered requests were lost.
  void drain(int deadline_ms) {
    if (!loop_thread.joinable()) return;
    if (!drain_flag.exchange(true, std::memory_order_acq_rel)) {
      drains.fetch_add(1, std::memory_order_relaxed);
      NetMetrics::get().drains.add();
    }
    const std::uint8_t b = 1;
    [[maybe_unused]] const ssize_t w = ::write(wake_wr, &b, 1);
    const auto deadline =
        Clock::now() + std::chrono::milliseconds(std::max(0, deadline_ms));
    while ((!drain_acked.load(std::memory_order_acquire) ||
            connections.load(std::memory_order_relaxed) > 0) &&
           Clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    stop();
  }

  ~Impl() { stop(); }

  // --- event loop --------------------------------------------------------

  void loop() {
    std::vector<pollfd> pfds;
    while (!stop_flag.load(std::memory_order_acquire)) {
      if (drain_flag.load(std::memory_order_acquire) &&
          !drain_acked.load(std::memory_order_relaxed)) {
        accept_new();
        drain_acked.store(true, std::memory_order_release);
      }
      pfds.clear();
      pfds.push_back({wake_rd, POLLIN, 0});
      // A full house stops accepting (negative fd = ignored by poll); the
      // kernel backlog queues the overflow.  A draining server stops
      // accepting for good.
      const bool accepting = conns.size() < config.max_connections &&
                             !drain_flag.load(std::memory_order_relaxed);
      pfds.push_back({accepting ? listen_fd : -1, POLLIN, 0});
      for (auto& [fd, c] : conns) {
        short ev = 0;
        if (!c.closing && !c.throttled && !c.poisoned && !c.eof)
          ev |= POLLIN;
        if (c.pending_write() > 0) ev |= POLLOUT;
        pfds.push_back({fd, ev, 0});
      }
      const int n = ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()),
                           config.poll_timeout_ms);
      if (n < 0) {
        if (errno == EINTR) continue;
        break;
      }
      if ((pfds[0].revents & POLLIN) != 0) {
        std::uint8_t drain[64];
        while (::read(wake_rd, drain, sizeof drain) > 0) {
        }
      }
      if ((pfds[1].revents & POLLIN) != 0) accept_new();
      for (std::size_t i = 2; i < pfds.size(); ++i) {
        const auto it = conns.find(pfds[i].fd);
        if (it == conns.end()) continue;
        Conn& c = it->second;
        const short re = pfds[i].revents;
        if ((re & (POLLERR | POLLNVAL)) != 0) {
          close_conn(it);
          continue;
        }
        if ((re & POLLOUT) != 0) flush_writes(c);
        if (!c.dead && !c.eof && (re & (POLLIN | POLLHUP)) != 0 &&
            !c.closing) {
          switch (read_input(c)) {
            case ReadResult::kError:
              c.dead = true;
              break;
            case ReadResult::kEof:
              // Half-close: frames pipelined before the EOF are still in
              // rbuf/pending and get real answers below.
              c.eof = true;
              break;
            case ReadResult::kOk:
              break;
          }
        }
        if (!c.dead) {
          maybe_unthrottle(c);
          process(c);
          if (c.eof && !c.closing && !c.poisoned) {
            if (c.http)
              c.dead = true;  // the header block can never complete now
            else if (c.pending.empty())
              c.closing = true;  // backlog served: drain wbuf, then close
          }
          flush_writes(c);
        }
        if (c.dead || (c.closing && c.pending_write() == 0)) close_conn(it);
      }
      sweep_timeouts();
    }
    for (auto& [fd, c] : conns) {
      sessions.fetch_sub(c.sess.size(), std::memory_order_relaxed);
      ::close(c.fd);
    }
    conns.clear();
    connections.store(0, std::memory_order_relaxed);
    drain_acked.store(true, std::memory_order_release);
    NetMetrics::get().connections.set(0);
    NetMetrics::get().sessions.set(
        static_cast<double>(sessions.load(std::memory_order_relaxed)));
  }

  // Once per poll round: close connections past the idle or slow-loris
  // bound, and walk draining connections to closing once they go quiet.
  void sweep_timeouts() {
    const bool draining = drain_flag.load(std::memory_order_relaxed);
    if (config.idle_timeout_ms <= 0 && config.partial_frame_timeout_ms <= 0 &&
        !draining)
      return;
    const Clock::time_point now = Clock::now();
    for (auto it = conns.begin(); it != conns.end();) {
      Conn& c = it->second;
      const auto age = [&](Clock::time_point since) {
        return std::chrono::duration_cast<std::chrono::milliseconds>(
                   now - since)
            .count();
      };
      const bool idle = config.idle_timeout_ms > 0 &&
                        age(c.last_activity) > config.idle_timeout_ms;
      const bool loris = config.partial_frame_timeout_ms > 0 &&
                         c.has_partial &&
                         age(c.partial_since) > config.partial_frame_timeout_ms;
      if (!c.dead && (idle || loris)) {
        idle_closed.fetch_add(1, std::memory_order_relaxed);
        NetMetrics::get().idle_closed.add();
        c.dead = true;
      }
      // Quiet under drain: flush wbuf, then close.  The one-poll-interval
      // grace keeps a request that is already in the socket buffer (sent,
      // not yet read) from being orphaned by a drain that lands between
      // rounds.
      if (draining && !c.dead && !c.closing && !c.poisoned && !c.http &&
          c.pending.empty() &&
          age(c.last_activity) >= std::max(1, config.poll_timeout_ms))
        c.closing = true;
      if (c.dead || (c.closing && c.pending_write() == 0)) {
        it = close_conn(it);
        continue;
      }
      ++it;
    }
  }

  void accept_new() {
    while (conns.size() < config.max_connections) {
      const int fd =
          ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EINTR) continue;
        break;  // EAGAIN or transient error: next poll round retries
      }
      // Injected transient accept failure: the connection is dropped after
      // the kernel handshake, exactly what a listener hitting EMFILE does.
      // The peer sees a reset and its resilient layer reconnects.
      if (ServerFaults::get().accept_fail.fire()) {
        ::close(fd);
        continue;
      }
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      Conn c;
      c.fd = fd;
      c.last_activity = Clock::now();
      conns.emplace(fd, std::move(c));
      accepted.fetch_add(1, std::memory_order_relaxed);
      connections.store(conns.size(), std::memory_order_relaxed);
      NetMetrics::get().accepted.add();
      NetMetrics::get().connections.set(static_cast<double>(conns.size()));
    }
  }

  std::map<int, Conn>::iterator close_conn(std::map<int, Conn>::iterator it) {
    Conn& c = it->second;
    sessions.fetch_sub(c.sess.size(), std::memory_order_relaxed);
    queued_total -= c.pending_write();
    if (tenant_tracking())
      for (const PendingReq& p : c.pending)
        if (is_stream_request(p.req) && !p.shed)
          tenant_release(p.req.generate);
    ::close(c.fd);
    const auto next = conns.erase(it);
    connections.store(conns.size(), std::memory_order_relaxed);
    NetMetrics::get().connections.set(static_cast<double>(conns.size()));
    NetMetrics::get().sessions.set(
        static_cast<double>(sessions.load(std::memory_order_relaxed)));
    return next;
  }

  enum class ReadResult { kOk, kEof, kError };

  // kEof is a *half*-close: bytes read before it stay in rbuf and any
  // complete frames among them must still be answered (the peer's read side
  // may well be open, waiting for exactly those responses).
  ReadResult read_input(Conn& c) {
    std::uint8_t buf[16384];
    std::size_t got = 0;
    while (got < kReadBudget) {
      ServerFaults& sf = ServerFaults::get();
      // Injected peer reset: the recv "fails" with ECONNRESET.  Short read:
      // the kernel "returns" a single byte — legal, and exactly what the
      // incremental frame extractor must absorb.
      if (sf.read_reset.fire()) {
        errno = ECONNRESET;
        return ReadResult::kError;
      }
      std::size_t len = sizeof buf;
      if (sf.read_short.fire()) len = 1;
      const ssize_t r = ::recv(c.fd, buf, len, 0);
      if (r > 0) {
        c.rbuf.insert(c.rbuf.end(), buf, buf + r);
        got += static_cast<std::size_t>(r);
        c.last_activity = Clock::now();
        continue;
      }
      if (r == 0) return ReadResult::kEof;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      return ReadResult::kError;
    }
    return ReadResult::kOk;
  }

  void flush_writes(Conn& c) {
    while (c.pending_write() > 0) {
      ServerFaults& sf = ServerFaults::get();
      if (sf.write_reset.fire()) {
        errno = EPIPE;
        c.dead = true;
        break;
      }
      std::size_t len = c.pending_write();
      if (sf.write_short.fire() && len > 1) len = 1;
      const ssize_t w = ::send(c.fd, c.wbuf.data() + c.wpos, len,
                               MSG_NOSIGNAL);
      if (w > 0) {
        c.wpos += static_cast<std::size_t>(w);
        queued_total -= static_cast<std::size_t>(w);
        c.last_activity = Clock::now();
        continue;
      }
      if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (w < 0 && errno == EINTR) continue;
      c.dead = true;  // EPIPE / ECONNRESET: the disconnect path cleans up
      break;
    }
    if (c.wpos == c.wbuf.size()) {
      c.wbuf.clear();
      c.wpos = 0;
    } else if (c.wpos > (1u << 20)) {
      c.wbuf.erase(c.wbuf.begin(), c.wbuf.begin() +
                                       static_cast<std::ptrdiff_t>(c.wpos));
      c.wpos = 0;
    }
  }

  void respond(Conn& c, Status status, std::span<const std::uint8_t> payload) {
    const std::vector<std::uint8_t> frame = encode_response(status, payload);
    c.wbuf.insert(c.wbuf.end(), frame.begin(), frame.end());
    queued_total += frame.size();
  }

  // Answer the front request kRetryLater (shed) and drop it.
  void respond_retry_later(Conn& c, std::uint32_t hint_ms) {
    bump_requests(1);
    respond(c, Status::kRetryLater, encode_retry_after(hint_ms));
    sheds.fetch_add(1, std::memory_order_relaxed);
    NetMetrics::get().sheds.add();
    pop_front_request(c);
  }

  void respond_retry_later(Conn& c) {
    respond_retry_later(c, config.retry_after_ms);
  }

  // Drop the front request, returning its tenant in-flight slot.
  void pop_front_request(Conn& c) {
    const PendingReq& p = c.pending.front();
    if (tenant_tracking() && is_stream_request(p.req) && !p.shed)
      tenant_release(p.req.generate);
    c.pending.pop_front();
  }

  void throttle(Conn& c) {
    if (c.throttled) return;
    c.throttled = true;
    stalls.fetch_add(1, std::memory_order_relaxed);
    NetMetrics::get().backpressure_stalls.add();
  }

  void maybe_unthrottle(Conn& c) {
    if (c.throttled && c.pending_write() <= config.resume_write_queue)
      c.throttled = false;
  }

  void mark_poisoned(Conn& c) {
    if (c.poisoned) return;
    c.poisoned = true;
    bad_frames.fetch_add(1, std::memory_order_relaxed);
    NetMetrics::get().bad_frames.add();
  }

  void process(Conn& c) {
    if (!c.http && !c.saw_binary && c.rbuf.size() >= 4 &&
        std::memcmp(c.rbuf.data(), "GET ", 4) == 0)
      c.http = true;
    if (c.http) {
      process_http(c);
      return;
    }
    if (!c.poisoned && !c.closing) {
      try {
        std::vector<std::uint8_t> body;
        while (extract_frame(c.rbuf, body, kMaxRequestBody)) {
          c.saw_binary = true;
          auto req = decode_request(body);
          if (!req) {
            mark_poisoned(c);
            break;
          }
          // Fold the substream ref into the derived seed at admission:
          // from here on sessions, quotas, and batching key on the actual
          // stream identity, and a v2 request is indistinguishable from
          // the equivalent v1 one.  kCheckpoint is deliberately NOT
          // folded — a minted checkpoint echoes the client's own
          // addressing (root seed + ref), not the folded identity.
          if (is_stream_request(*req)) {
            req->generate.seed = req->generate.effective_seed();
            req->generate.ref = {};
          }
          PendingReq p{std::move(*req), false};
          // Per-tenant in-flight admission: the overflow slot is marked for
          // an in-order kRetryLater instead of occupying quota.
          if (config.tenant_max_pending > 0 && is_stream_request(p.req)) {
            Tenant& t = tenant(p.req.generate);
            if (t.pending >= config.tenant_max_pending)
              p.shed = true;
            else
              ++t.pending;
          }
          c.pending.push_back(std::move(p));
        }
      } catch (const std::runtime_error&) {
        mark_poisoned(c);  // oversized length prefix: stream unrecoverable
      }
    }
    // Slow-loris bookkeeping: a non-empty rbuf after extraction is an
    // incomplete frame (or HTTP header-in-progress); remember when it
    // started so the sweep can bound it.
    if (c.rbuf.empty()) {
      c.has_partial = false;
    } else if (!c.has_partial) {
      c.has_partial = true;
      c.partial_since = Clock::now();
    }
    drain_pending(c);
    if (c.pending.empty() && c.poisoned && !c.closing) {
      respond(c, Status::kBadFrame, ascii_payload("malformed frame"));
      c.closing = true;
    }
  }

  void process_http(Conn& c) {
    static constexpr char kHeaderEnd[] = "\r\n\r\n";
    const auto it = std::search(c.rbuf.begin(), c.rbuf.end(), kHeaderEnd,
                                kHeaderEnd + 4);
    if (it == c.rbuf.end()) {
      if (c.rbuf.size() > kMaxHttpHeader) c.dead = true;
      // An unfinished header is a partial frame for the slow-loris sweep.
      if (!c.has_partial) {
        c.has_partial = true;
        c.partial_since = Clock::now();
      }
      return;
    }
    c.has_partial = false;
    requests.fetch_add(1, std::memory_order_relaxed);
    NetMetrics::get().requests.add();
    const std::string json = telemetry::metrics().to_json();
    std::string head = "HTTP/1.0 200 OK\r\nContent-Type: application/json\r\n"
                       "Content-Length: " +
                       std::to_string(json.size()) +
                       "\r\nConnection: close\r\n\r\n";
    c.wbuf.insert(c.wbuf.end(), head.begin(), head.end());
    c.wbuf.insert(c.wbuf.end(), json.begin(), json.end());
    queued_total += head.size() + json.size();
    c.closing = true;
  }

  void drain_pending(Conn& c) {
    while (!c.pending.empty()) {
      // Backpressure: over the high watermark this connection's requests
      // wait (its socket is no longer polled for reads either).  A poisoned
      // connection finishes its backlog regardless — it is about to close.
      if (!c.poisoned && c.pending_write() >= config.max_write_queue) {
        throttle(c);
        break;
      }
      const PendingReq& front = c.pending.front();
      if (front.req.type == kPing) {
        bump_requests(1);
        respond(c, Status::kOk, {});
        c.pending.pop_front();
        continue;
      }
      if (front.req.type == kMetrics) {
        bump_requests(1);
        const std::string json = telemetry::metrics().to_json();
        respond(c, Status::kOk,
                std::span(reinterpret_cast<const std::uint8_t*>(json.data()),
                          json.size()));
        c.pending.pop_front();
        continue;
      }
      if (front.req.type == kHello) {
        // Advisory handshake: the payload is the server's version either
        // way, so a too-new client learns what to downshift to.
        bump_requests(1);
        std::vector<std::uint8_t> ver;
        append_u32le(ver, kProtocolVersion);
        const bool supported =
            front.req.hello_version >= kProtocolVersionMin &&
            front.req.hello_version <= kProtocolVersion;
        respond(c, supported ? Status::kOk : Status::kBadVersion, ver);
        c.pending.pop_front();
        continue;
      }
      if (front.req.type == kResume && !front.req.checkpoint_ok) {
        // The frame was sound but the checkpoint blob failed the strict
        // parse (magic/version/structure/schedule digest) — the connection
        // stays usable.
        bump_requests(1);
        respond(c, Status::kBadCheckpoint,
                ascii_payload("checkpoint rejected"));
        c.pending.pop_front();
        continue;
      }
      const GenerateRequest& g = front.req.generate;
      if (g.nbytes > kMaxGenerateBytes) {
        bump_requests(1);
        respond(c, Status::kTooLarge, ascii_payload("nbytes beyond limit"));
        pop_front_request(c);
        continue;
      }
      if (g.offset >
          std::numeric_limits<std::uint64_t>::max() - g.nbytes) {
        // The span would run past the end of the 2^64-byte stream address
        // space; downstream arithmetic must never see a wrapping end.
        bump_requests(1);
        respond(c, Status::kTooLarge,
                ascii_payload("offset + nbytes overflows"));
        pop_front_request(c);
        continue;
      }
      if (!core::algorithm_exists(g.algorithm)) {
        bump_requests(1);
        respond(c, Status::kUnknownAlgorithm, ascii_payload(g.algorithm));
        pop_front_request(c);
        continue;
      }
      if (front.req.type == kCheckpoint) {
        // Mint an O(1) resumable position.  The ref was not folded at
        // admission, so the blob records the client's own (root seed, ref)
        // addressing; kResume folds it when the blob comes back.
        bump_requests(1);
        const std::vector<std::uint8_t> blob = stream::serialize_checkpoint(
            {g.algorithm, g.seed, g.ref, g.offset});
        respond(c, Status::kOk, blob);
        pop_front_request(c);
        continue;
      }
      // Shedding, answered in response order: per-tenant in-flight
      // overflow (decided at admission) and global write-backlog overload.
      if (front.shed) {
        respond_retry_later(c);
        continue;
      }
      if (config.shed_queue_bytes > 0 &&
          queued_total > config.shed_queue_bytes) {
        respond_retry_later(c);
        continue;
      }
      serve_run(c);
    }
  }

  void bump_requests(std::uint64_t n) {
    requests.fetch_add(n, std::memory_order_relaxed);
    NetMetrics::get().requests.add(n);
  }

  // The batching step: merge the longest prefix of pending kGenerate
  // requests that continues one tenant stream contiguously into a single
  // engine span, then slice it back into per-request responses in order.
  void reject_seek(Conn& c) {
    bump_requests(1);
    respond(c, Status::kSeekTooFar,
            ascii_payload("forward seek beyond server bound"));
    pop_front_request(c);
  }

  void serve_run(Conn& c) {
    const GenerateRequest first = c.pending.front().req.generate;
    // Per-tenant bytes/sec quota: refill the bucket, and shed the request
    // when even the first span cannot be afforded — with a retry-after hint
    // sized to the deficit, so a compliant client sleeps exactly long
    // enough for the bucket to cover it.
    Tenant* bucket = nullptr;
    double tokens = 0.0;
    if (config.tenant_bytes_per_sec > 0) {
      bucket = &tenant(first);
      tokens = tenant_bucket(*bucket, Clock::now());
      if (tokens < static_cast<double>(first.nbytes)) {
        const double deficit = static_cast<double>(first.nbytes) - tokens;
        const double rate = static_cast<double>(config.tenant_bytes_per_sec);
        const auto wait_ms =
            static_cast<std::uint32_t>(deficit * 1000.0 / rate) + 1;
        respond_retry_later(c, std::max(config.retry_after_ms, wait_ms));
        return;
      }
    }
    // Bound the seek before touching any generator: lane-slice/sequential
    // sessions reach an offset by clocking through the gap *inline on the
    // loop thread*, so one hostile offset near 2^63 would otherwise starve
    // every connection and wedge stop() joining the loop.  A rejected first
    // request never creates a session.
    auto key = std::make_pair(first.algorithm, first.seed);
    auto sit = c.sess.find(key);
    if (sit == c.sess.end()) {
      Session fresh(first.algorithm, first.seed);
      if (fresh.seek_cost(first.offset) > config.max_seek_bytes) {
        reject_seek(c);
        return;
      }
      sit = c.sess.emplace(std::move(key), std::move(fresh)).first;
      sessions.fetch_add(1, std::memory_order_relaxed);
      NetMetrics::get().sessions.set(
          static_cast<double>(sessions.load(std::memory_order_relaxed)));
    } else if (sit->second.seek_cost(first.offset) > config.max_seek_bytes) {
      reject_seek(c);
      return;
    }
    // A merged span may not outgrow the write queue either — otherwise one
    // buffered burst would defeat max_write_queue entirely.  The first
    // request is always served whole so progress never stalls.
    const std::size_t cap = std::min(kMaxBatchBytes, config.max_write_queue);
    std::size_t count = 0;
    std::size_t total = 0;
    std::uint64_t next_off = first.offset;
    for (const PendingReq& p : c.pending) {
      if (!is_stream_request(p.req) || p.shed) break;
      const GenerateRequest& g = p.req.generate;
      if (g.algorithm != first.algorithm || g.seed != first.seed ||
          g.offset != next_off || g.nbytes > kMaxGenerateBytes)
        break;
      if (count > 0 && total + g.nbytes > cap) break;
      // Merging may not outspend the tenant's bucket either; the first
      // request always fits (checked above) so progress never stalls.
      if (bucket && count > 0 &&
          static_cast<double>(total + g.nbytes) > tokens)
        break;
      ++count;
      total += g.nbytes;
      next_off += g.nbytes;
    }
    std::vector<std::uint8_t> payload(total);
    bool ok = true;
    try {
      sit->second.serve(engine, first.offset, payload);
    } catch (const std::exception&) {
      ok = false;
    }
    if (ok && bucket) bucket->tokens -= static_cast<double>(total);
    std::size_t off = 0;
    for (std::size_t i = 0; i < count; ++i) {
      const GenerateRequest& g = c.pending.front().req.generate;
      if (ok) {
        respond(c, Status::kOk, std::span(payload.data() + off, g.nbytes));
        bytes_served.fetch_add(g.nbytes, std::memory_order_relaxed);
        NetMetrics::get().bytes_served.add(g.nbytes);
      } else {
        respond(c, Status::kServerError, ascii_payload("generation failed"));
      }
      off += g.nbytes;
      pop_front_request(c);
    }
    bump_requests(count);
    if (count > 1) {
      batched.fetch_add(1, std::memory_order_relaxed);
      NetMetrics::get().batched_spans.add();
    }
  }
};

Server::Server(ServerConfig config)
    : impl_(std::make_unique<Impl>(std::move(config))) {}

Server::~Server() { stop(); }

void Server::start() { impl_->start(); }

void Server::stop() { impl_->stop(); }

void Server::drain(int deadline_ms) { impl_->drain(deadline_ms); }

bool Server::running() const noexcept { return impl_->loop_thread.joinable(); }

std::uint16_t Server::port() const noexcept { return impl_->bound_port; }

ServerStats Server::stats() const {
  ServerStats s;
  s.accepted = impl_->accepted.load(std::memory_order_relaxed);
  s.requests = impl_->requests.load(std::memory_order_relaxed);
  s.bytes_served = impl_->bytes_served.load(std::memory_order_relaxed);
  s.bad_frames = impl_->bad_frames.load(std::memory_order_relaxed);
  s.backpressure_stalls = impl_->stalls.load(std::memory_order_relaxed);
  s.batched_spans = impl_->batched.load(std::memory_order_relaxed);
  s.sheds = impl_->sheds.load(std::memory_order_relaxed);
  s.idle_closed = impl_->idle_closed.load(std::memory_order_relaxed);
  s.drains = impl_->drains.load(std::memory_order_relaxed);
  s.connections = impl_->connections.load(std::memory_order_relaxed);
  s.sessions = impl_->sessions.load(std::memory_order_relaxed);
  return s;
}

}  // namespace bsrng::net
