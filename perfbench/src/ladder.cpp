// ladder.cpp — the traced layer ladder.
//
// Replays a prefix of the workload's own op sequence, one op at a time, at
// every layer in turn:
//   ciphers          Generator::fill (one thread, positioned untimed)
//   core.engine_w1   StreamEngine::generate with one worker
//   core.engine_wN   StreamEngine::generate with nproc workers
//   net.session      net::Session::serve over the nproc engine
//   net.wire         net::Client against bsrngd on loopback, depth 1
// and asserts all five return the same bytes.  Each call is a span under
// the op's "ladder.op" span; the per-layer metrics are computed from the
// spans afterwards.
#include <algorithm>
#include <cstring>
#include <map>
#include <stdexcept>

#include "bsrng.hpp"
#include "net/client.hpp"
#include "net/session.hpp"
#include "perfbench.hpp"
#include "stats.hpp"

namespace perfbench {

namespace bc = bsrng::core;
namespace bn = bsrng::net;

std::vector<Op> ladder_ops(const Config& cfg, const Params& p, unsigned conns) {
  std::vector<Op> ops;
  if (cfg.workload == "bulk_fill") {
    for (std::uint64_t i = 0; i < kNumAlgos; ++i) ops.push_back(bulk_op(cfg, p, i));
  } else if (cfg.workload == "serve_stream") {
    // Connection c's cipher in segment s is (c + s + seed) mod 6, so the
    // first s segments cover conns + s - 1 ciphers: replay enough of them
    // to cover all six, two spans each (a fresh substream, then a
    // sequential continuation).
    const std::uint64_t segs =
        conns >= kNumAlgos ? 1 : kNumAlgos + 1 - conns;
    for (std::uint64_t seg = 0; seg < segs; ++seg)
      for (unsigned c = 0; c < conns; ++c)
        for (std::uint64_t k = 0; k < 2; ++k)
          ops.push_back(stream_op(cfg, p, conns, seg, c, k));
  } else {
    ops = small_ops(cfg, p, conns,
                    static_cast<double>(p.ladder_small_ops) / p.small_rate);
    ops.resize(std::min(ops.size(), p.ladder_small_ops));
  }
  return ops;
}

namespace {

constexpr std::array<const char*, 5> kLayers = {
    "ciphers", "core.engine_w1", "core.engine_wN", "net.session", "net.wire"};

// Wire metrics split by partition kind.  (find_algorithm rebuilds the
// registry listing, gate counts included, so it is called once per run.)
std::array<const char*, kNumAlgos> partition_kinds() {
  std::array<const char*, kNumAlgos> kinds{};
  for (std::size_t a = 0; a < kNumAlgos; ++a)
    kinds[a] = bc::find_algorithm(kAlgos[a])->partition == bc::PartitionKind::kCounter
                   ? "counter"
                   : "lane_slice";
  return kinds;
}

// One wire request (or checkpoint + resume pair) at depth 1.
std::vector<std::uint8_t> wire_request(bn::Client& cl, const Op& o,
                                       std::uint64_t root) {
  const std::string algo = kAlgos[o.algo];
  if (o.frame == Frame::kV1)
    return cl.generate(algo, o.ref.derive_seed(root), o.offset, o.nbytes);
  if (o.frame == Frame::kV2)
    return cl.generate(algo, root, o.ref, o.offset, o.nbytes);
  const auto blob = cl.checkpoint(algo, root, o.ref, o.offset);
  return cl.resume(blob, o.nbytes);
}

double span_seconds(const Span& s) { return s.end - s.start; }

}  // namespace

std::vector<Metric> run_ladder(const Config& cfg, const Params& p,
                               Tracer& tr, const Daemon& daemon) {
  const std::uint64_t root = root_seed(cfg.seed);
  const std::vector<Op> ops = ladder_ops(cfg, p, connections_for(cfg));
  const auto kind_of = partition_kinds();
  bc::StreamEngine e1(bc::StreamEngineConfig{.workers = 1});
  bc::StreamEngine en(bc::StreamEngineConfig{.workers = cfg.nproc});
  bn::Client client("127.0.0.1", daemon.port());
  client.hello();

  struct Live {
    std::unique_ptr<bc::Generator> gen;
    std::uint64_t pos = 0;
  };
  using Key = std::pair<std::size_t, std::uint64_t>;  // (algo, derived seed)
  std::map<Key, Live> gens;
  std::map<Key, bn::Session> sessions;

  // Per-algorithm totals; layer seconds come from the spans.
  std::array<double, kNumAlgos> bytes{}, busy{}, capacity{};
  std::array<std::array<std::vector<std::int64_t>, kNumAlgos>, kLayers.size()> spans;
  std::map<std::string, std::vector<double>> wire_us, overhead_us;
  const std::size_t first_span = tr.spans().size();

  std::size_t max_n = 0;
  for (const Op& o : ops) max_n = std::max<std::size_t>(max_n, o.nbytes);
  std::array<std::vector<std::uint8_t>, kLayers.size()> buf;
  for (auto& b : buf) b.resize(max_n);

  for (const Op& o : ops) {
    const std::uint64_t derived = o.ref.derive_seed(root);
    const Key key{o.algo, derived};
    const bc::StreamRequest req{kAlgos[o.algo], root, o.ref, o.offset};
    std::array<std::span<std::uint8_t>, kLayers.size()> out;
    for (std::size_t l = 0; l < kLayers.size(); ++l)
      out[l] = std::span(buf[l].data(), o.nbytes);
    const auto op_span = tr.begin("ladder.op", o.id);
    std::array<std::int64_t, kLayers.size()> s{};

    Live& live = gens[key];
    if (!live.gen || o.offset < live.pos) {
      live.gen = bc::make_generator(kAlgos[o.algo], derived);
      live.pos = 0;
    }
    bc::discard_bytes(*live.gen, o.offset - live.pos);
    s[0] = tr.begin(kLayers[0], o.id, op_span);
    live.gen->fill(out[0]);
    tr.end(s[0]);
    live.pos = o.offset + o.nbytes;

    s[1] = tr.begin(kLayers[1], o.id, op_span);
    e1.generate(req, out[1]);
    tr.end(s[1]);

    s[2] = tr.begin(kLayers[2], o.id, op_span);
    const bc::ThroughputReport rep = en.generate(req, out[2]);
    tr.end(s[2]);
    busy[o.algo] += rep.sum_worker_seconds;
    capacity[o.algo] += static_cast<double>(rep.workers) * rep.wall_seconds;

    auto sit = sessions.try_emplace(key, kAlgos[o.algo], derived).first;
    s[3] = tr.begin(kLayers[3], o.id, op_span);
    sit->second.serve(en, o.offset, out[3]);
    tr.end(s[3]);

    s[4] = tr.begin(kLayers[4], o.id, op_span);
    const std::vector<std::uint8_t> got = wire_request(client, o, root);
    tr.end(s[4]);

    const auto check = tr.begin("bench.check", o.id, op_span);
    if (got.size() != o.nbytes)
      throw std::runtime_error("ladder: short wire answer for op " +
                               std::to_string(o.id));
    std::memcpy(out[4].data(), got.data(), o.nbytes);
    for (std::size_t l = 1; l < kLayers.size(); ++l)
      if (std::memcmp(out[l].data(), out[0].data(), o.nbytes) != 0)
        throw std::runtime_error(std::string("ladder: ") + kLayers[l] +
                                 " bytes differ from ciphers for op " +
                                 std::to_string(o.id) + " (" + kAlgos[o.algo] +
                                 ")");
    tr.end(check);
    tr.end(op_span);

    bytes[o.algo] += o.nbytes;
    for (std::size_t l = 0; l < kLayers.size(); ++l) spans[l][o.algo].push_back(s[l]);
    const auto& all = tr.spans();
    const double wire = span_seconds(all[static_cast<std::size_t>(s[4])]);
    const double sess = span_seconds(all[static_cast<std::size_t>(s[3])]);
    wire_us[kind_of[o.algo]].push_back(wire * 1e6);
    overhead_us[kind_of[o.algo]].push_back((wire - sess) * 1e6);
  }

  std::vector<Metric> m;
  const auto& all = tr.spans();
  auto gbps = [&](std::size_t layer, std::size_t a) {
    double secs = 0;
    for (const auto i : spans[layer][a]) secs += span_seconds(all[static_cast<std::size_t>(i)]);
    return secs > 0 ? bytes[a] * 8.0 / secs / 1e9 : 0.0;
  };
  for (std::size_t a = 0; a < kNumAlgos; ++a) {
    if (bytes[a] == 0) continue;
    const std::string name = kAlgos[a];
    const double kernel = gbps(0, a), w1 = gbps(1, a);
    m.push_back({"ciphers.gbps." + name, kernel, "Gbit/s"});
    m.push_back({"core.engine_w1.gbps." + name, w1, "Gbit/s"});
    m.push_back({"core.engine_wN.gbps." + name, gbps(2, a), "Gbit/s"});
    m.push_back({"core.engine_w1_vs_kernel." + name, kernel > 0 ? w1 / kernel : 0.0,
                 "ratio"});
    m.push_back({"core.busy_share." + name,
                 capacity[a] > 0 ? busy[a] / capacity[a] : 0.0, "ratio"});
  }
  for (const char* kind : {"counter", "lane_slice"}) {
    const auto it = wire_us.find(kind);
    if (it == wire_us.end()) continue;
    m.push_back({std::string("net.wire.request_us_p50.") + kind,
                 median(it->second), "us"});
    m.push_back({std::string("net.wire.request_us_p99.") + kind,
                 tail_percentile(it->second).value, "us"});
    m.push_back({std::string("net.wire.overhead_us.") + kind,
                 median(overhead_us[kind]), "us"});
  }

  // Self-time shares of the ladder's spans, as a share of all ladder.op time.
  std::vector<Span> rebased(all.begin() + static_cast<std::ptrdiff_t>(first_span),
                            all.end());
  for (auto& sp : rebased)
    if (sp.parent >= 0) sp.parent -= static_cast<std::int64_t>(first_span);
  double op_total = 0;
  for (const auto& sp : rebased)
    if (sp.name == "ladder.op") op_total += span_seconds(sp);
  for (const auto& [name, self] : self_time_by_name(rebased))
    m.push_back({"trace.self_share." + name, op_total > 0 ? self / op_total : 0.0,
                 "ratio"});
  return m;
}

}  // namespace perfbench
