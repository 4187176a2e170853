// multi_device.hpp — §5.4 multi-GPU generation, as StreamEngine wrappers.
//
// The paper partitions the input parameters (seed/nonce/counter) across D
// devices, generates in parallel, and reconstructs the sequence — with the
// property that "the same output sequence of random bits could be generated
// identically in a single GPU sequentially".  Both entry points below are
// now thin wrappers over core::StreamEngine (one worker per device,
// contiguous per-device chunks):
//
//   * multi_device_aes_ctr — a kCounter PartitionSpec: device d owns the
//     contiguous counter range of its chunk; reconstruction is
//     concatenation.
//   * multi_device_mickey — a kLaneSlice PartitionSpec: device d runs its
//     own 32-lane engine (seed = d-th splitmix64 substream of the master
//     seed); reconstruction re-interleaves the 4-byte device columns.
//
// "Devices" are pool workers here (the paper itself drives its GPUs from
// one OpenMP thread each, §5.4).
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

#include "core/throughput.hpp"

namespace bsrng::core {

// The per-device accounting is the engine's per-worker report; `workers`
// counts devices and modeled_speedup() is the D-device-over-one-device
// work-balance model (sum / max of per-device busy time).
using MultiDeviceReport = ThroughputReport;

// Fill `out` with the AES-128-CTR keystream for (key, nonce), counter
// starting at 0, split across `devices` contiguous chunks.  Bit-identical to
// the single-device stream for every D.
MultiDeviceReport multi_device_aes_ctr(std::span<const std::uint8_t> key16,
                                       std::span<const std::uint8_t> nonce12,
                                       std::size_t devices,
                                       std::span<std::uint8_t> out,
                                       bool parallel = true);

// Fill `out` with the serialized MICKEY 2.0 bitsliced stream of a logical
// (devices x 32)-lane generator seeded from `master_seed`, each device
// running its own 32-lane engine.  Reconstruction interleaves device slices;
// equality is against the lane-partitioned reference, validated in tests.
MultiDeviceReport multi_device_mickey(std::uint64_t master_seed,
                                      std::size_t devices,
                                      std::span<std::uint8_t> out,
                                      bool parallel = true);

// Fill `out` with the canonical stream of ANY registered algorithm, split
// across `devices` per the algorithm's own PartitionSpec (contiguous counter
// ranges for kCounter, interleaved lane columns for kLaneSlice — the
// widest that give every device one — and one device for kSequential).  Byte-identical to make_generator(algorithm,
// seed)->fill(out) for every device count — the §5.4 reconstruction
// property, generalized from the two bespoke wrappers above via the
// algorithm descriptor table.  Throws std::invalid_argument for unknown
// algorithms or devices == 0.
MultiDeviceReport multi_device_generate(std::string_view algorithm,
                                        std::uint64_t seed,
                                        std::size_t devices,
                                        std::span<std::uint8_t> out,
                                        bool parallel = true);

struct MultiDeviceOptions {
  bool parallel = true;
  // Stage each device's chunk through a gpusim::Device: one launch per
  // device whose threads generate the chunk positionally (generate_at) and
  // store it word-by-word through the device's global memory, so the
  // traffic is cost-modeled and the launch can fault.  A DeviceFault from
  // any launch walks the degradation ladder: the whole span is regenerated
  // on the host StreamEngine path (byte-identical — generate_at is
  // idempotent), multi_device.device_fallbacks is counted, and the report
  // is annotated (device_fallbacks / degraded_to_host).
  bool use_gpusim = false;
  std::size_t gpusim_threads = 4;  // threads per device launch
};

// Options overload of multi_device_generate; the bool-parallel overload
// above is equivalent to {.parallel = parallel}.
MultiDeviceReport multi_device_generate(std::string_view algorithm,
                                        std::uint64_t seed,
                                        std::size_t devices,
                                        std::span<std::uint8_t> out,
                                        const MultiDeviceOptions& options);

}  // namespace bsrng::core
