// multi_device.hpp — §5.4 multi-GPU generation over StreamEngine.
//
// The paper partitions the input parameters (seed/nonce/counter) across D
// devices, generates in parallel, and reconstructs the sequence — with the
// property that "the same output sequence of random bits could be generated
// identically in a single GPU sequentially".  multi_device_generate is that
// property for every registered algorithm: each device is one StreamEngine
// worker, and the algorithm's own PartitionSpec decides what it owns —
// a contiguous counter range (kCounter, reconstruction is concatenation),
// an interleaved lane column (kLaneSlice, reconstruction re-interleaves the
// columns), or the whole stream (kSequential).
//
// "Devices" are pool workers here (the paper itself drives its GPUs from
// one OpenMP thread each, §5.4), or gpusim::Device launches with
// MultiDeviceOptions::use_gpusim.
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

// Fill `out` with the canonical stream of ANY registered algorithm, split
// across `devices` per the algorithm's own PartitionSpec (contiguous counter
// ranges for kCounter, interleaved lane columns for kLaneSlice — the widest
// that give every device one — and one device for kSequential).
// Byte-identical to make_generator(algorithm, seed)->fill(out) for every
// device count — the §5.4 reconstruction property, read from the algorithm
// descriptor table.  Throws std::invalid_argument for unknown algorithms or
// devices == 0.
MultiDeviceReport multi_device_generate(std::string_view algorithm,
                                        std::uint64_t seed,
                                        std::size_t devices,
                                        std::span<std::uint8_t> out,
                                        const MultiDeviceOptions& options = {});

}  // namespace bsrng::core
