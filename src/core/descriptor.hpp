// descriptor.hpp — AlgorithmDescriptor: the single source of truth for each
// bitsliced cipher family.
//
// One descriptor per cipher base name (mickey, grain, trivium, aes-ctr, a51,
// chacha20) carries everything the three consuming layers need:
//   * registry   — make_stream builds the "<base>-bs<width>" Generator;
//                  make_at_block / make_lanes build the PartitionSpec
//                  shards; partition / cryptographic / bits_per_step /
//                  measure_gate_ops feed list_algorithms metadata.
//   * gpusim     — run_kernel launches the cipher on the virtual GPU
//                  (core/gpu_kernel.hpp run_gpu_kernel dispatches here) and
//                  kernel_word is its host-side oracle.
//   * StreamEngine & multi_device — consume the registry PartitionSpec, so
//                  they inherit the same derivations transitively.
// Before this header, the registry kept a hand-rolled factory lambda table
// plus per-cipher *Gen wrappers, and the GPU kernel was a mickey-only
// special case; adding a cipher meant editing every layer by hand.  Now each
// layer iterates algorithm_descriptors(), so a cipher registered here is
// automatically constructible, partitionable, and kernel-launchable — and
// all of them derive their parameters from the one core/keyschedule.hpp
// schedule, which is what keeps host and virtual-GPU streams byte-identical.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "core/gpu_kernel.hpp"
#include "core/registry.hpp"

namespace bsrng::core {

struct AlgorithmDescriptor {
  std::string base;           // registry prefix: names are "<base>-bs<width>"
  bool cryptographic = true;  // CSPRNG vs statistical PRNG (a51 is broken)
  PartitionKind partition = PartitionKind::kLaneSlice;

  // kCounter only: the cipher's seekable block granularity in bytes.
  std::size_t counter_block_bytes = 0;

  // Output bits per engine step per lane (1 for bit-serial stream ciphers,
  // the block size in bits for counter-mode ciphers); normalizes
  // measure_gate_ops() to the per-bit costs list_algorithms reports.
  double bits_per_step = 1.0;

  // Exact boolean-gate cost of one bitsliced step, measured over the
  // CountingSlice (gate_ops_per_step delegates here).
  std::function<double()> measure_gate_ops;

  // The canonical "<base>-bs<width>" Generator (whole stream, lane 0 first).
  std::function<std::unique_ptr<Generator>(
      std::string name, std::size_t width, std::uint64_t seed)>
      make_stream;

  // kCounter: the stream seeked to counter block `first_block` (the
  // PartitionSpec::make_at_block shard).  Null for kLaneSlice ciphers.
  std::function<std::unique_ptr<Generator>(
      std::string name, std::size_t width, std::uint64_t seed,
      std::uint64_t first_block)>
      make_at_block;

  // kLaneSlice: the `width`-lane sub-stream (width in {32, ..., 512}) over
  // lanes [first_lane, first_lane + width) of the master derivation (the
  // PartitionSpec::make_lanes shard).  Lane parameters depend only on the
  // lane index, so this is byte columns [first_lane / 8, (first_lane +
  // width) / 8) of every row of any wider stream of the same seed.  Null for
  // kCounter ciphers.
  std::function<std::unique_ptr<Generator>(
      std::string name, std::uint64_t seed, std::size_t first_lane,
      std::size_t width)>
      make_lanes;

  // Launch this cipher's kernel on the virtual GPU (gpu_kernel.hpp
  // documents the geometry → stream mapping) and its host-side oracle for
  // word w of global thread t.
  std::function<GpuKernelResult(gpusim::Device&, const GpuKernelConfig&)>
      run_kernel;
  std::function<std::uint32_t(const GpuKernelConfig&, std::size_t thread,
                              std::size_t w)>
      kernel_word;
};

// The six bitsliced cipher families, in registry listing order.
const std::vector<AlgorithmDescriptor>& algorithm_descriptors();

// Descriptor for a cipher base name ("mickey"), nullptr if unknown.
const AlgorithmDescriptor* find_descriptor(std::string_view base);

// Resolve a registered bitsliced name ("mickey-bs512") to its descriptor
// and lane width; {nullptr, 0} if `name` is not "<base>-bs<width>" for a
// registered base and width.
std::pair<const AlgorithmDescriptor*, std::size_t> find_bitsliced(
    std::string_view name);

}  // namespace bsrng::core
