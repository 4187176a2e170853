// descriptors.cpp — the AlgorithmDescriptor table: six cipher families, two
// generic builders.
//
// Every lane-sliced cipher (mickey/grain/trivium/a51) is lane_descriptor<T>
// over a small traits struct (engine template + lane-range builder);
// every counter-mode cipher (aes-ctr/chacha20) is counter_descriptor<T>
// (engine template + keyschedule CtrParams).  The builders wire the shared
// adapters (core/adapters.hpp) and the generic kernel
// (core/gpu_kernel_impl.hpp), so registering a new cipher is one traits
// struct and one push_back.

#include "core/descriptor.hpp"

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bitslice/gatecount.hpp"
#include "bitslice/slice.hpp"
#include "ciphers/a51_bs.hpp"
#include "ciphers/aes_bs.hpp"
#include "ciphers/chacha_bs.hpp"
#include "ciphers/grain_bs.hpp"
#include "ciphers/mickey_bs.hpp"
#include "ciphers/trivium_bs.hpp"
#include "core/adapters.hpp"
#include "core/gpu_kernel_impl.hpp"
#include "core/keyschedule.hpp"

namespace bsrng::core {

namespace {

namespace bs = bsrng::bitslice;
namespace ks = bsrng::core::keyschedule;
using U32 = bs::SliceU32;

constexpr int kGateSteps = 256;

// --- per-thread kernel adapters (satisfy detail::KernelEngine) -------------

// A 32-lane stream-cipher engine: each step() slice is the thread's next
// output word ("each thread at each clock cycle generates 32 random bits").
template <typename E>
struct LaneKernelEngine {
  E engine;
  std::uint32_t next_word() {
    return static_cast<std::uint32_t>(engine.step());
  }
};

// A counter-mode bulk engine seeked to the thread's first block: the
// serialized stream is consumed 4 little-endian bytes per output word.
template <typename E>
struct CounterKernelEngine {
  E engine;
  std::uint32_t next_word() {
    std::array<std::uint8_t, 4> b{};
    engine.fill(b);
    return static_cast<std::uint32_t>(b[0]) |
           (static_cast<std::uint32_t>(b[1]) << 8) |
           (static_cast<std::uint32_t>(b[2]) << 16) |
           (static_cast<std::uint32_t>(b[3]) << 24);
  }
};

// --- lane-sliced families ---------------------------------------------------
// Traits contract: Engine<W> (master-seed constructible for any slice width)
// and make_lanes<W>(seed, first_lane) building the W-lane engine over lanes
// [first_lane, first_lane + W) of the master derivation.  The gpusim kernels
// use it at W = 32 (one engine per GPU thread); StreamEngine tasks use any
// ladder width.

struct MickeyTraits {
  template <typename W>
  using Engine = ciphers::MickeyBs<W>;
  template <typename W>
  static Engine<W> make_lanes(std::uint64_t seed, std::size_t first_lane) {
    std::vector<typename Engine<W>::KeyBytes> keys(bs::lane_count<W>);
    std::vector<typename Engine<W>::IvBytes> ivs(bs::lane_count<W>);
    ciphers::derive_mickey_lane_params(seed, keys, ivs, first_lane);
    return Engine<W>(keys, ivs, ciphers::mickey::kMaxIvBits);
  }
};

struct GrainTraits {
  template <typename W>
  using Engine = ciphers::GrainBs<W>;
  template <typename W>
  static Engine<W> make_lanes(std::uint64_t seed, std::size_t first_lane) {
    std::vector<typename Engine<W>::KeyBytes> keys(bs::lane_count<W>);
    std::vector<typename Engine<W>::IvBytes> ivs(bs::lane_count<W>);
    ciphers::derive_grain_lane_params(seed, keys, ivs, first_lane);
    return Engine<W>(keys, ivs);
  }
};

struct TriviumTraits {
  template <typename W>
  using Engine = ciphers::TriviumBs<W>;
  template <typename W>
  static Engine<W> make_lanes(std::uint64_t seed, std::size_t first_lane) {
    std::vector<typename Engine<W>::KeyBytes> keys(bs::lane_count<W>);
    std::vector<typename Engine<W>::IvBytes> ivs(bs::lane_count<W>);
    ciphers::derive_trivium_lane_params(seed, keys, ivs, first_lane);
    return Engine<W>(keys, ivs);
  }
};

struct A51Traits {
  template <typename W>
  using Engine = ciphers::A51Bs<W>;
  template <typename W>
  static Engine<W> make_lanes(std::uint64_t seed, std::size_t first_lane) {
    std::vector<typename Engine<W>::KeyBytes> keys(bs::lane_count<W>);
    std::vector<std::uint32_t> frames(bs::lane_count<W>);
    ciphers::derive_a51_lane_params(seed, keys, frames, first_lane);
    return Engine<W>(keys, frames);
  }
};

template <typename Traits>
AlgorithmDescriptor lane_descriptor(const char* base, bool cryptographic) {
  AlgorithmDescriptor d;
  d.base = base;
  d.cryptographic = cryptographic;
  d.partition = PartitionKind::kLaneSlice;
  d.bits_per_step = 1.0;
  d.measure_gate_ops = [] {
    using C = bs::CountingSlice;
    typename Traits::template Engine<C> e(1);
    C::reset();
    for (int i = 0; i < kGateSteps; ++i) (void)e.step();
    return static_cast<double>(C::ops) / kGateSteps;
  };
  d.make_stream = [](std::string name, std::size_t width, std::uint64_t seed) {
    std::unique_ptr<Generator> g;
    adapters::with_slice_width(width, [&]<typename W>() {
      using E = typename Traits::template Engine<W>;
      g = std::make_unique<adapters::SlicedStreamGen<W, E>>(std::move(name),
                                                            E(seed));
    });
    return g;
  };
  d.make_lanes = [](std::string name, std::uint64_t seed,
                    std::size_t first_lane, std::size_t width) {
    std::unique_ptr<Generator> g;
    adapters::with_slice_width(width, [&]<typename W>() {
      using E = typename Traits::template Engine<W>;
      g = std::make_unique<adapters::SlicedStreamGen<W, E>>(
          std::move(name), Traits::template make_lanes<W>(seed, first_lane));
    });
    return g;
  };
  d.run_kernel = [name = std::string(base) + "_gpu_kernel"](
                     gpusim::Device& dev, const GpuKernelConfig& cfg) {
    return detail::run_kernel_generic(dev, cfg, name, [&cfg](std::size_t t) {
      using E = typename Traits::template Engine<U32>;
      return LaneKernelEngine<E>{
          Traits::template make_lanes<U32>(cfg.seed, t * kLaneBlockLanes)};
    });
  };
  d.kernel_word = [](const GpuKernelConfig& cfg, std::size_t thread,
                     std::size_t w) {
    auto e =
        Traits::template make_lanes<U32>(cfg.seed, thread * kLaneBlockLanes);
    std::uint32_t out = 0;
    for (std::size_t i = 0; i <= w; ++i)
      out = static_cast<std::uint32_t>(e.step());
    return out;
  };
  return d;
}

// --- counter-mode families --------------------------------------------------
// Traits contract: kKeyLen/kBlockBytes, Engine<W>, make<W>(seed, counter0)
// building the engine from the shared keyschedule CtrParams, and measure()
// (the CountingSlice gate audit differs per cipher).

struct AesCtrTraits {
  static constexpr std::size_t kKeyLen = 16, kBlockBytes = 16;
  template <typename W>
  using Engine = ciphers::AesCtrBs<W>;
  template <typename W>
  static ciphers::AesCtrBs<W> make(std::uint64_t seed, std::uint32_t counter0) {
    const auto p = ks::derive_ctr_params<kKeyLen>(seed);
    return ciphers::AesCtrBs<W>(p.key, p.nonce, counter0);
  }
  static double measure() {
    using C = bs::CountingSlice;
    std::array<std::uint8_t, 16> key{};
    ciphers::AesBs<C> e(key);
    typename ciphers::AesBs<C>::State st{};
    C::reset();
    for (int i = 0; i < kGateSteps; ++i) e.encrypt_slices(st);
    return static_cast<double>(C::ops) / kGateSteps;
  }
};

struct ChaChaTraits {
  static constexpr std::size_t kKeyLen = 32, kBlockBytes = 64;
  template <typename W>
  using Engine = ciphers::ChaCha20Bs<W>;
  template <typename W>
  static ciphers::ChaCha20Bs<W> make(std::uint64_t seed,
                                     std::uint32_t counter0) {
    const auto p = ks::derive_ctr_params<kKeyLen>(seed);
    return ciphers::ChaCha20Bs<W>(p.key, p.nonce, counter0);
  }
  static double measure() {
    using C = bs::CountingSlice;
    std::array<std::uint8_t, 32> key{};
    std::array<std::uint8_t, 12> nonce{};
    ciphers::ChaCha20Bs<C> e(key, nonce);
    std::vector<std::uint8_t> out(64 * kGateSteps);  // kGateSteps @ 1 lane
    C::reset();
    e.fill(out);
    return static_cast<double>(C::ops) / kGateSteps;
  }
};

// Counter threads own contiguous block-aligned stream ranges, so each
// thread's engine is just the canonical engine seeked to its first block.
template <typename Traits>
std::uint32_t counter_thread_counter0(const GpuKernelConfig& cfg,
                                      std::size_t thread) {
  return static_cast<std::uint32_t>(thread * cfg.words_per_thread * 4 /
                                    Traits::kBlockBytes);
}

template <typename Traits>
AlgorithmDescriptor counter_descriptor(const char* base,
                                       double bits_per_step) {
  AlgorithmDescriptor d;
  d.base = base;
  d.cryptographic = true;
  d.partition = PartitionKind::kCounter;
  d.counter_block_bytes = Traits::kBlockBytes;
  d.bits_per_step = bits_per_step;
  d.measure_gate_ops = [] { return Traits::measure(); };
  d.make_stream = [](std::string name, std::size_t width, std::uint64_t seed) {
    std::unique_ptr<Generator> g;
    adapters::with_slice_width(width, [&]<typename W>() {
      using E = typename Traits::template Engine<W>;
      g = std::make_unique<adapters::CounterModeGen<W, E>>(
          std::move(name), Traits::template make<W>(seed, 0));
    });
    return g;
  };
  d.make_at_block = [](std::string name, std::size_t width,
                       std::uint64_t seed, std::uint64_t first_block) {
    std::unique_ptr<Generator> g;
    adapters::with_slice_width(width, [&]<typename W>() {
      using E = typename Traits::template Engine<W>;
      g = std::make_unique<adapters::CounterModeGen<W, E>>(
          std::move(name),
          Traits::template make<W>(seed,
                                   static_cast<std::uint32_t>(first_block)));
    });
    return g;
  };
  d.run_kernel = [name = std::string(base) + "_gpu_kernel"](
                     gpusim::Device& dev, const GpuKernelConfig& cfg) {
    if (cfg.words_per_thread * 4 % Traits::kBlockBytes != 0)
      throw std::invalid_argument(
          "run_gpu_kernel: counter-mode ciphers need words_per_thread * 4 "
          "divisible by the cipher block size so per-thread ranges are "
          "block-aligned");
    return detail::run_kernel_generic(dev, cfg, name, [&cfg](std::size_t t) {
      using E = typename Traits::template Engine<U32>;
      return CounterKernelEngine<E>{Traits::template make<U32>(
          cfg.seed, counter_thread_counter0<Traits>(cfg, t))};
    });
  };
  d.kernel_word = [](const GpuKernelConfig& cfg, std::size_t thread,
                     std::size_t w) {
    using E = typename Traits::template Engine<U32>;
    CounterKernelEngine<E> e{Traits::template make<U32>(
        cfg.seed, counter_thread_counter0<Traits>(cfg, thread))};
    std::uint32_t out = 0;
    for (std::size_t i = 0; i <= w; ++i) out = e.next_word();
    return out;
  };
  return d;
}

}  // namespace

const std::vector<AlgorithmDescriptor>& algorithm_descriptors() {
  static const std::vector<AlgorithmDescriptor> table = [] {
    std::vector<AlgorithmDescriptor> d;
    d.push_back(lane_descriptor<MickeyTraits>("mickey", true));
    d.push_back(lane_descriptor<GrainTraits>("grain", true));
    d.push_back(lane_descriptor<TriviumTraits>("trivium", true));
    d.push_back(counter_descriptor<AesCtrTraits>("aes-ctr", 128.0));
    d.push_back(lane_descriptor<A51Traits>("a51", false));
    d.push_back(counter_descriptor<ChaChaTraits>("chacha20", 512.0));
    return d;
  }();
  return table;
}

const AlgorithmDescriptor* find_descriptor(std::string_view base) {
  for (const auto& d : algorithm_descriptors())
    if (d.base == base) return &d;
  return nullptr;
}

std::pair<const AlgorithmDescriptor*, std::size_t> find_bitsliced(
    std::string_view name) {
  for (const auto& d : algorithm_descriptors())
    if (const std::size_t w = adapters::bs_width(name, d.base + "-bs"))
      return {&d, w};
  return {nullptr, 0};
}

}  // namespace bsrng::core
