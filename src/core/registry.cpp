#include "core/registry.hpp"

#include <functional>
#include <map>
#include <stdexcept>
#include <utility>
#include <vector>

#include "baselines/middle_square.hpp"
#include "baselines/modern.hpp"
#include "baselines/minstd.hpp"
#include "baselines/mt19937.hpp"
#include "baselines/philox.hpp"
#include "baselines/xorshift.hpp"
#include "bitslice/gatecount.hpp"
#include "ciphers/a51_ref.hpp"
#include "ciphers/aes_ref.hpp"
#include "ciphers/chacha_ref.hpp"
#include "ciphers/grain_ref.hpp"
#include "ciphers/mickey_ref.hpp"
#include "ciphers/trivium_ref.hpp"
#include "core/adapters.hpp"
#include "core/descriptor.hpp"
#include "core/keyschedule.hpp"
#include "lfsr/bitsliced_lfsr.hpp"

namespace bsrng::core {

namespace {

namespace ks = bsrng::core::keyschedule;
using ks::derive_bytes;

constexpr std::size_t kWidths[] = {32, 64, 128, 256, 512};

// Generic stream-continuous adapter: `Src` is any callable returning a
// (value, nbytes) chunk per draw; partial consumption is buffered so
// fill(a); fill(b) equals fill(a+b).
template <typename Src>
class ChunkStreamGen final : public Generator {
 public:
  ChunkStreamGen(std::string name, Src src)
      : name_(std::move(name)), src_(std::move(src)) {}

  void fill(std::span<std::uint8_t> out) override {
    std::size_t i = 0;
    while (pos_ < len_ && i < out.size()) out[i++] = buf_[pos_++];
    while (i < out.size()) {
      const auto [v, n] = src_();
      for (std::size_t k = 0; k < n; ++k)
        buf_[k] = static_cast<std::uint8_t>(v >> (8 * k));
      len_ = n;
      pos_ = 0;
      while (pos_ < len_ && i < out.size()) out[i++] = buf_[pos_++];
    }
  }
  std::string_view name() const noexcept override { return name_; }

 private:
  std::string name_;
  Src src_;
  std::array<std::uint8_t, 8> buf_{};
  std::size_t len_ = 0, pos_ = 0;
};

struct Chunk {
  std::uint64_t v;
  std::size_t n;
};

template <typename Src>
std::unique_ptr<Generator> make_chunk_gen(std::string name, Src src) {
  return std::make_unique<ChunkStreamGen<Src>>(std::move(name), std::move(src));
}

// Adapter for scalar reference ciphers exposing step32().
template <typename Ref>
std::unique_ptr<Generator> make_scalar_cipher_gen(std::string name, Ref ref) {
  return make_chunk_gen(std::move(name),
                        [r = std::move(ref)]() mutable -> Chunk {
                          return {r.step32(), 4};
                        });
}

// Scalar AES-128-CTR oracle wrapped as a Generator; first_block offsets the
// CTR stream (0 for the factory, a shard offset for PartitionSpec).
class AesRefGen final : public Generator {
 public:
  AesRefGen(std::string name, std::uint64_t seed, std::uint64_t first_block = 0)
      : name_(std::move(name)), cipher_(make_key(seed)),
        offset_(first_block * 16) {
    // Historical schedule: the nonce comes from a seed+1 expansion, NOT the
    // continuation of the key stream (unlike the bitsliced aes-ctr family).
    std::uint64_t x = seed + 1;
    nonce_ = derive_bytes<12>(x);
  }
  void fill(std::span<std::uint8_t> out) override {
    // Continue the CTR stream across calls via a byte offset.
    std::vector<std::uint8_t> tmp(offset_ % 16 + out.size());
    ciphers::aes_ctr_fill(cipher_, nonce_,
                          static_cast<std::uint32_t>(offset_ / 16), tmp);
    std::copy(tmp.begin() + static_cast<std::ptrdiff_t>(offset_ % 16),
              tmp.end(), out.begin());
    offset_ += out.size();
  }
  std::string_view name() const noexcept override { return name_; }

 private:
  static std::array<std::uint8_t, 16> make_key(std::uint64_t seed) {
    std::uint64_t x = seed;
    return derive_bytes<16>(x);
  }
  std::string name_;
  ciphers::Aes128 cipher_;
  std::array<std::uint8_t, 12> nonce_{};
  std::size_t offset_ = 0;
};

// Scalar ChaCha20 oracle wrapped as a Generator.
class ChaChaRefGen final : public Generator {
 public:
  ChaChaRefGen(std::string name, std::uint64_t seed,
               std::uint32_t counter0 = 0)
      : name_(std::move(name)), g_(make(seed, counter0)) {}
  void fill(std::span<std::uint8_t> out) override { g_.fill(out); }
  std::string_view name() const noexcept override { return name_; }

 private:
  static ciphers::ChaCha20Ref make(std::uint64_t seed,
                                   std::uint32_t counter0) {
    std::uint64_t x = seed;
    const auto key = derive_bytes<32>(x);
    const auto nonce = derive_bytes<12>(x);
    return ciphers::ChaCha20Ref(key, nonce, counter0);
  }
  std::string name_;
  ciphers::ChaCha20Ref g_;
};

using Factory =
    std::function<std::unique_ptr<Generator>(std::string, std::uint64_t)>;

const std::map<std::string, Factory>& factories() {
  static const std::map<std::string, Factory> f = [] {
    std::map<std::string, Factory> m;
    // Bitsliced cipher families: one entry per descriptor x width, all
    // built by the descriptor's own factory.
    for (const AlgorithmDescriptor& d : algorithm_descriptors())
      for (const std::size_t w : kWidths)
        m[d.base + "-bs" + std::to_string(w)] =
            [&d, w](std::string n, std::uint64_t s) {
              return d.make_stream(std::move(n), w, s);
            };
    m["mickey-ref"] = [](std::string n, std::uint64_t s) {
      std::uint64_t x = s;
      const auto key = derive_bytes<10>(x);
      const auto iv = derive_bytes<10>(x);
      return make_scalar_cipher_gen(std::move(n), ciphers::MickeyRef(key, iv));
    };
    m["grain-ref"] = [](std::string n, std::uint64_t s) {
      std::uint64_t x = s;
      const auto key = derive_bytes<10>(x);
      const auto iv = derive_bytes<8>(x);
      return make_scalar_cipher_gen(std::move(n), ciphers::GrainRef(key, iv));
    };
    m["trivium-ref"] = [](std::string n, std::uint64_t s) {
      std::uint64_t x = s;
      const auto key = derive_bytes<10>(x);
      const auto iv = derive_bytes<10>(x);
      return make_scalar_cipher_gen(std::move(n), ciphers::TriviumRef(key, iv));
    };
    m["aes-ctr-ref"] = [](std::string n, std::uint64_t s) {
      return std::make_unique<AesRefGen>(std::move(n), s);
    };
    m["a51-ref"] = [](std::string n, std::uint64_t s) {
      std::uint64_t x = s;
      const auto key = derive_bytes<8>(x);
      const std::uint32_t frame =
          static_cast<std::uint32_t>(lfsr::splitmix64(x)) & 0x3FFFFFu;
      return make_scalar_cipher_gen(std::move(n), ciphers::A51Ref(key, frame));
    };
    m["chacha20-ref"] = [](std::string n, std::uint64_t s) {
      return std::make_unique<ChaChaRefGen>(std::move(n), s);
    };
    m["rc4"] = [](std::string n, std::uint64_t s) {
      std::uint64_t x = s;
      const auto key = derive_bytes<16>(x);
      return make_chunk_gen(std::move(n), [g = baselines::Rc4(key)]() mutable -> Chunk {
        return {g.next_byte(), 1};
      });
    };
    m["pcg32"] = [](std::string n, std::uint64_t s) {
      return make_chunk_gen(std::move(n), [g = baselines::Pcg32(s)]() mutable -> Chunk {
        return {g.next(), 4};
      });
    };
    m["xoshiro256pp"] = [](std::string n, std::uint64_t s) {
      return make_chunk_gen(
          std::move(n), [g = baselines::Xoshiro256pp(s)]() mutable -> Chunk {
            return {g.next(), 8};
          });
    };
    m["mt19937"] = [](std::string n, std::uint64_t s) {
      return make_chunk_gen(
          std::move(n), [g = baselines::Mt19937(static_cast<std::uint32_t>(s))]() mutable
                 -> Chunk { return {g.next(), 4}; });
    };
    m["xorwow"] = [](std::string n, std::uint64_t s) {
      return make_chunk_gen(
          std::move(n), [g = baselines::Xorwow(static_cast<std::uint32_t>(s))]() mutable
                 -> Chunk { return {g.next(), 4}; });
    };
    m["philox"] = [](std::string n, std::uint64_t s) {
      return make_chunk_gen(
          std::move(n), [g = baselines::Philox4x32({static_cast<std::uint32_t>(s),
                                         static_cast<std::uint32_t>(s >> 32)})]() mutable
                 -> Chunk { return {g.next(), 4}; });
    };
    m["minstd"] = [](std::string n, std::uint64_t s) {
      return make_chunk_gen(
          std::move(n), [g = baselines::Minstd(static_cast<std::uint32_t>(s | 1))]() mutable
                 -> Chunk { return {g.next(), 3}; });
    };
    m["xorshift128"] = [](std::string n, std::uint64_t s) {
      std::uint64_t x = s;
      const std::uint64_t a = lfsr::splitmix64(x), b = lfsr::splitmix64(x);
      baselines::Xorshift128 g(static_cast<std::uint32_t>(a) | 1u,
                               static_cast<std::uint32_t>(a >> 32),
                               static_cast<std::uint32_t>(b),
                               static_cast<std::uint32_t>(b >> 32));
      return make_chunk_gen(std::move(n), [g]() mutable -> Chunk { return {g.next(), 4}; });
    };
    m["middle-square"] = [](std::string n, std::uint64_t s) {
      return make_chunk_gen(
          std::move(n),
          [g = baselines::MiddleSquare(
               static_cast<std::uint32_t>(s % 99999989))]() mutable -> Chunk {
            return {g.next(), 3};  // 8 decimal digits ~ 26.5 bits: emit 3 bytes
          });
    };
    return m;
  }();
  return f;
}

}  // namespace

std::unique_ptr<Generator> try_make_generator(std::string_view name,
                                              std::uint64_t seed) {
  const auto& f = factories();
  const auto it = f.find(std::string(name));
  if (it == f.end()) return nullptr;
  return it->second(it->first, seed);
}

std::unique_ptr<Generator> make_generator(std::string_view name,
                                          std::uint64_t seed) {
  auto gen = try_make_generator(name, seed);
  if (!gen)
    throw std::invalid_argument("unknown generator: " + std::string(name));
  return gen;
}

bool algorithm_exists(std::string_view name) noexcept {
  return factories().count(std::string(name)) != 0;
}

PartitionSpec AlgorithmInfo::partition_spec(std::uint64_t seed) const {
  return core::partition_spec(name, seed);
}

std::optional<AlgorithmInfo> find_algorithm(std::string_view name) {
  for (auto& a : list_algorithms())
    if (a.name == name) return std::move(a);
  return std::nullopt;
}

PartitionSpec partition_spec(std::string_view name, std::uint64_t seed) {
  if (factories().find(std::string(name)) == factories().end())
    throw std::invalid_argument("unknown generator: " + std::string(name));
  PartitionSpec spec;
  const std::string n(name);
  spec.make = [n, seed] { return make_generator(n, seed); };

  // --- bitsliced cipher families: the descriptor IS the sharding law ------
  if (const auto [d, w] = find_bitsliced(n); d != nullptr) {
    if (d->partition == PartitionKind::kCounter) {
      spec.kind = PartitionKind::kCounter;
      spec.block_bytes = d->counter_block_bytes;
      spec.make_at_block = [d, n, w, seed](std::uint64_t first_block) {
        return d->make_at_block(n, w, seed, first_block);
      };
      return spec;
    }
    // A W-lane serialized stream is rows of W/8 bytes; a w-lane sub-engine
    // over lanes [f, f+w) — built from the same per-lane derivation as the
    // full engine — reproduces byte columns [f/8, (f+w)/8) of every row.
    spec.kind = PartitionKind::kLaneSlice;
    spec.lane_blocks = w / kLaneBlockLanes;
    spec.make_lanes = [d, n, seed](std::size_t first_lane, std::size_t width) {
      return d->make_lanes(n, seed, first_lane, width);
    };
    return spec;
  }

  // --- counter-partitioned scalar references & baselines ------------------
  if (n == "aes-ctr-ref") {
    spec.kind = PartitionKind::kCounter;
    spec.block_bytes = 16;
    spec.make_at_block = [n, seed](std::uint64_t first_block) {
      return std::make_unique<AesRefGen>(n, seed, first_block);
    };
    return spec;
  }
  if (n == "chacha20-ref") {
    spec.kind = PartitionKind::kCounter;
    spec.block_bytes = 64;
    spec.make_at_block = [n, seed](std::uint64_t first_block) {
      return std::make_unique<ChaChaRefGen>(
          n, seed, static_cast<std::uint32_t>(first_block));
    };
    return spec;
  }
  if (n == "philox") {
    // Counter-based by construction (Salmon et al.): one 128-bit counter
    // per 16-byte block, incremented little-endian from word 0.
    spec.kind = PartitionKind::kCounter;
    spec.block_bytes = 16;
    spec.make_at_block = [n, seed](std::uint64_t first_block) {
      baselines::Philox4x32 g({static_cast<std::uint32_t>(seed),
                               static_cast<std::uint32_t>(seed >> 32)});
      g.set_counter({static_cast<std::uint32_t>(first_block),
                     static_cast<std::uint32_t>(first_block >> 32), 0, 0});
      return make_chunk_gen(n, [g]() mutable -> Chunk {
        return {g.next(), 4};
      });
    };
    return spec;
  }

  // Scalar references and classical baselines: no safe decomposition.
  return spec;
}

double gate_ops_per_step(std::string_view cipher) {
  if (const AlgorithmDescriptor* d = find_descriptor(cipher))
    return d->measure_gate_ops();
  if (cipher.starts_with("lfsr")) {
    using C = bitslice::CountingSlice;
    constexpr int kSteps = 256;
    const unsigned degree =
        static_cast<unsigned>(std::stoul(std::string(cipher.substr(4))));
    lfsr::BitslicedLfsr<C> e(lfsr::primitive_polynomial(degree), 7u);
    C::reset();
    for (int i = 0; i < kSteps; ++i) (void)e.step();
    return static_cast<double>(C::ops) / kSteps;
  }
  throw std::invalid_argument("gate_ops_per_step: unknown cipher " +
                              std::string(cipher));
}

std::vector<AlgorithmInfo> list_algorithms() {
  std::vector<AlgorithmInfo> out;
  const auto& descs = algorithm_descriptors();
  std::vector<double> gates;
  gates.reserve(descs.size());
  for (const AlgorithmDescriptor& d : descs)
    gates.push_back(d.measure_gate_ops());
  constexpr auto kCtr = PartitionKind::kCounter;
  constexpr auto kSeq = PartitionKind::kSequential;
  for (const std::size_t w : kWidths) {
    const double dw = static_cast<double>(w);
    for (std::size_t i = 0; i < descs.size(); ++i)
      out.push_back({descs[i].base + "-bs" + std::to_string(w), "bitsliced",
                     w, descs[i].cryptographic,
                     gates[i] / (descs[i].bits_per_step * dw),
                     descs[i].partition});
  }
  for (const char* n : {"mickey-ref", "grain-ref", "trivium-ref",
                        "aes-ctr-ref", "a51-ref", "chacha20-ref"})
    out.push_back({n, "reference", 1, true, 0.0,
                   std::string_view(n).starts_with("aes-ctr") ||
                           std::string_view(n).starts_with("chacha20")
                       ? kCtr
                       : kSeq});
  for (const char* n : {"mt19937", "xorwow", "philox", "minstd", "xorshift128",
                        "middle-square", "rc4", "pcg32", "xoshiro256pp"})
    out.push_back({n, "baseline", 1, false, 0.0,
                   std::string_view(n) == "philox" ? kCtr : kSeq});
  return out;
}

}  // namespace bsrng::core
