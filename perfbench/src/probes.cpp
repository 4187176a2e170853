// probes.cpp — fixed-size per-layer probes, the same in every workload.
//
// Each probe times one public call in isolation and reports the median of
// several repetitions; every repetition addresses a fresh substream, so no
// probe is served from state an earlier one left behind.
#include <chrono>
#include <stdexcept>

#include "bsrng.hpp"
#include "net/protocol.hpp"
#include "net/session.hpp"
#include "perfbench.hpp"
#include "stats.hpp"

namespace perfbench {

namespace bc = bsrng::core;
namespace bn = bsrng::net;
namespace bs = bsrng::stream;

namespace {

template <class F>
double time_us(F&& f) {
  const auto t0 = Clock::now();
  f();
  return seconds_since(t0, Clock::now()) * 1e6;
}

// Median nanoseconds per call over `batches` batches of `n` calls.
template <class F>
double ns_per_call(std::size_t batches, std::size_t n, F&& f) {
  std::vector<double> v;
  for (std::size_t b = 0; b < batches; ++b)
    v.push_back(time_us([&] {
                  for (std::size_t i = 0; i < n; ++i) f(i);
                }) *
                1e3 / static_cast<double>(n));
  return median(v);
}

volatile std::uint64_t g_sink;

}  // namespace

std::vector<Metric> run_probes(const Config& cfg, const Params& p) {
  const std::uint64_t root = root_seed(cfg.seed);
  bc::StreamEngine en(bc::StreamEngineConfig{.workers = cfg.nproc});
  std::vector<Metric> m;
  std::uint64_t tenant = 1u << 20;  // probe substreams: disjoint from workloads
  std::vector<std::uint8_t> small(64), page(4096), big(p.probe_session_span);

  for (std::size_t a = 0; a < kNumAlgos; ++a) {
    const std::string algo = kAlgos[a];
    const auto info = bc::find_algorithm(algo);
    if (!info) throw std::runtime_error("unknown algorithm " + algo);
    m.push_back({"ciphers.gate_ops_per_bit." + algo, info->gate_ops_per_bit,
                 "gates/bit"});

    // core.small_span_us: a 64 B generate at a nonzero offset.
    std::vector<double> v;
    for (int rep = 0; rep < 9; ++rep) {
      const bc::StreamRequest req{algo, root, {++tenant, 1, 0}, 4096};
      v.push_back(time_us([&] { en.generate(req, small); }));
    }
    m.push_back({"core.small_span_us." + algo, median(v), "us"});

    // core.seek_us: far-offset minus offset-0, both 64 B.
    std::vector<double> near, far;
    for (int rep = 0; rep < 5; ++rep) {
      const bs::StreamRef ref{++tenant, 1, 0};
      near.push_back(time_us([&] { en.generate({algo, root, ref, 0}, small); }));
      far.push_back(time_us(
          [&] { en.generate({algo, root, ref, p.probe_seek_offset}, small); }));
    }
    m.push_back({"core.seek_us." + algo, median(far) - median(near), "us"});

    // net.session.small_us: warm sequential 4 KiB serves.
    {
      bn::Session s(algo, bs::StreamRef{++tenant, 1, 0}.derive_seed(root));
      s.serve(en, 0, page);
      v.clear();
      for (std::uint64_t k = 1; k <= 15; ++k)
        v.push_back(time_us([&] { s.serve(en, k * page.size(), page); }));
      m.push_back({"net.session.small_us." + algo, median(v), "us"});
    }

    // net.session.rebuild_us: a backward jump (rebuild + clock from zero).
    v.clear();
    for (int rep = 0; rep < 5; ++rep) {
      bn::Session s(algo, bs::StreamRef{++tenant, 1, 0}.derive_seed(root));
      for (std::uint64_t k = 0; k < 16; ++k) s.serve(en, k * page.size(), page);
      v.push_back(time_us([&] { s.serve(en, 8 * page.size(), page); }));
    }
    m.push_back({"net.session.rebuild_us." + algo, median(v), "us"});

    // net.session.gbps: sequential spans of probe_session_span bytes.
    {
      bn::Session s(algo, bs::StreamRef{++tenant, 1, 0}.derive_seed(root));
      s.serve(en, 0, big);
      double secs = 0;
      for (std::uint64_t k = 1; k <= 3; ++k)
        secs += time_us([&] { s.serve(en, k * big.size(), big); }) * 1e-6;
      m.push_back({"net.session.gbps." + algo,
                   3.0 * static_cast<double>(big.size()) * 8.0 / secs / 1e9,
                   "Gbit/s"});
    }
  }

  // stream: substream seed derivation and checkpoint serialize + parse.
  m.push_back({"stream.derive_seed_ns", ns_per_call(5, 200000, [&](std::size_t i) {
                 g_sink = bs::StreamRef{i, i >> 3, i & 1}.derive_seed(root);
               }),
               "ns"});
  m.push_back({"stream.checkpoint_roundtrip_ns",
               ns_per_call(5, 20000, [&](std::size_t i) {
                 const auto blob =
                     bs::serialize_checkpoint({kAlgos[i % kNumAlgos], root,
                                               {i, 1, 0}, i * 64});
                 g_sink = bs::parse_checkpoint(blob)->offset;
               }),
               "ns"});

  // net.codec: one kGenerate2 body decoded, one 1 KiB response encoded.
  bn::GenerateRequest g{kAlgos[0], root, 4096, 1024, {7, 1, 0}};
  const std::vector<std::uint8_t> frame = bn::encode_generate2(g);
  const std::span<const std::uint8_t> body(frame.data() + 4, frame.size() - 4);
  m.push_back({"net.codec.decode_ns", ns_per_call(5, 200000, [&](std::size_t) {
                 g_sink = bn::decode_request(body)->generate.offset;
               }),
               "ns"});
  const std::vector<std::uint8_t> payload(1024, 0xA5);
  m.push_back({"net.codec.encode_response_ns",
               ns_per_call(5, 100000, [&](std::size_t) {
                 g_sink = bn::encode_response(bn::Status::kOk, payload).size();
               }),
               "ns"});
  return m;
}

}  // namespace perfbench
