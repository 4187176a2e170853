// registry.hpp — algorithm registry and factory: every PRNG this library
// implements, constructible by name with a 64-bit seed.
//
// Naming scheme:
//   Bitsliced CSPRNGs (the paper's contribution): "<cipher>-bs<width>",
//     cipher in {mickey, grain, trivium, aes-ctr}, width in {32, 64, 128,
//     256, 512} (32 = the paper's per-GPU-thread configuration, 512 = the
//     host's full AVX-512 datapath).
//   Scalar cipher references: "mickey-ref", "grain-ref", "trivium-ref",
//     "aes-ctr-ref".
//   Conventional baselines: "mt19937" (cuRAND's default algorithm),
//     "xorwow", "philox", "minstd", "xorshift128", "middle-square".
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/generator.hpp"

namespace bsrng::core {

// How a generator family shards its stream across workers/devices (§5.4).
//   kCounter    — counter-mode: block b of the stream is a pure function of
//                 (params, b); any contiguous block range can be generated
//                 independently (aes-ctr-*, chacha20-*, philox).
//   kLaneSlice  — bitsliced W-lane engines: lanes are independent instances,
//                 so a w-lane sub-engine over lanes [f, f+w) reproduces byte
//                 columns [f/8, (f+w)/8) of every serialized slice row
//                 (mickey/grain/trivium/a51 bitsliced — the paper's per-GPU
//                 device slices at w = 32, any ladder width on the host).
//   kSequential — no safe decomposition is known; the stream is produced by
//                 one worker (scalar references and classical baselines).
enum class PartitionKind { kCounter, kLaneSlice, kSequential };

// Recipe the StreamEngine uses to rebuild any byte range of an algorithm's
// canonical single-generator stream.  Factories close over the exact same
// seed derivation as make_generator, so shard output is bit-identical to
// Generator::fill — a property enforced by tests/core/stream_engine_test.
struct PartitionSpec {
  PartitionKind kind = PartitionKind::kSequential;

  // kCounter: stream bytes [b*block_bytes, ...) for any block index b.
  std::size_t block_bytes = 0;
  std::function<std::unique_ptr<Generator>(std::uint64_t first_block)>
      make_at_block;

  // kLaneSlice: the serialized stream is rows of lane_blocks * 32 lanes
  // (lane_blocks * 4 bytes).  make_lanes(first_lane, width) yields the
  // column sub-stream over lanes [first_lane, first_lane + width) for any
  // width in {32, ..., 512} that divides the row's lane count and any
  // width-aligned first_lane — bytes [first_lane/8, (first_lane+width)/8)
  // of every row.  StreamEngine groups the lanes into the widest columns
  // its worker count allows; a kLaneSlice spec without make_lanes is
  // malformed.
  std::size_t lane_blocks = 0;
  std::function<std::unique_ptr<Generator>(std::size_t first_lane,
                                           std::size_t width)>
      make_lanes;

  // Always set: the whole-stream generator (the kSequential path, and the
  // reference every other path must reproduce).
  std::function<std::unique_ptr<Generator>()> make;
};

// Sharding recipe for a registered algorithm; throws std::invalid_argument
// for unknown names (same name space as make_generator).
PartitionSpec partition_spec(std::string_view name, std::uint64_t seed);

struct AlgorithmInfo {
  std::string name;
  std::string family;      // "bitsliced", "reference", "baseline"
  std::size_t lanes;       // parallel instances per generator
  bool cryptographic;      // CSPRNG vs statistical PRNG
  double gate_ops_per_bit; // exact gate count per output bit (0 if n/a)
  PartitionKind partition; // how StreamEngine shards this family

  // The sharding recipe for this algorithm — `partition` tells callers
  // whether it decomposes, this constructs the shards.  One lookup covers
  // discovery and construction, so the two can never use different names.
  PartitionSpec partition_spec(std::uint64_t seed) const;
};

// All registered algorithms with their measured gate costs.
std::vector<AlgorithmInfo> list_algorithms();

// Metadata for one algorithm; nullopt for unknown names.  The returned
// info's partition_spec(seed) is the same-name StreamEngine sharding law.
std::optional<AlgorithmInfo> find_algorithm(std::string_view name);

// True iff `name` is a registered algorithm (the non-throwing existence
// probe paired with try_make_generator).
bool algorithm_exists(std::string_view name) noexcept;

// Construct by name; returns nullptr for unknown names (never throws for
// name errors — use algorithm_exists to distinguish a bad name up front).
std::unique_ptr<Generator> try_make_generator(std::string_view name,
                                              std::uint64_t seed);

// Throwing wrapper over try_make_generator: std::invalid_argument for
// unknown names.
std::unique_ptr<Generator> make_generator(std::string_view name,
                                          std::uint64_t seed);

// Exact boolean-gate cost of one bitsliced clock of `cipher` (one of
// "mickey", "grain", "trivium", "aes-ctr", "lfsr<n>"), measured by running
// the engine over the CountingSlice; per *slice*, i.e. divide by the lane
// count for per-bit cost.
double gate_ops_per_step(std::string_view cipher);

}  // namespace bsrng::core
