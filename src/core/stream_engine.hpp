// stream_engine.hpp — deterministic thread-pool sharded generation (§5.4,
// generalized), addressed through the substream tree.
//
// The paper partitions seed/nonce/counter space across D devices and
// reconstructs a bit-identical single-device sequence.  StreamEngine lifts
// that per-algorithm trick into one engine: it fills an arbitrary output
// span for ANY registered generator by partitioning work across T pool
// workers according to the algorithm's PartitionSpec, and the result is
// byte-identical to a direct single-generator Generator::fill for every T
// (enforced by tests/core/stream_engine_test.cpp).
//
//   kCounter    — the span is cut into block-aligned chunks; each worker
//                 claims chunks dynamically and generates them with a shard
//                 generator seeked to the chunk's first block.
//   kLaneSlice  — the row's lanes are grouped into column tasks of the
//                 widest ladder width w (32..512 lanes) that still gives every
//                 worker a task; each worker runs a w-lane engine over its
//                 lanes and scatters the bytes into the interleaved row
//                 layout, double-buffered per worker so generation and
//                 scatter alternate on warm buffers (the buffers live in the
//                 pool, node-local).  With one worker the task is the whole
//                 row: the full-width kernel fills the output directly.
//   kSequential — one worker produces the whole stream in chunks (no safe
//                 decomposition; determinism is trivial).
//
// The canonical entry point is StreamRef-addressed: a StreamRequest names
// (algorithm, root seed, tenant→stream→shard path, byte offset) and
// generate(req, out) fills bytes [offset, offset + out.size()) of that
// substream — the same bytes for every worker count, NUMA node count,
// backend, and protocol version (the fabric's byte-exactness law).
//
// checkpoint()/resume() turn any position into a serializable
// stream::StreamCheckpoint and back — O(1) both ways for counter specs.
//
// The engine owns a persistent ThreadPool; construct once, generate many.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "core/registry.hpp"
#include "core/thread_pool.hpp"
#include "core/throughput.hpp"
#include "stream/checkpoint.hpp"
#include "stream/stream_ref.hpp"

namespace bsrng::core {

struct StreamEngineConfig {
  // Pool width; 0 = hardware concurrency.
  std::size_t workers = 0;
  // Scheduling granularity for kCounter/kSequential chunking and the
  // kLaneSlice scatter buffers.  0 = one contiguous chunk per worker (the
  // §5.4 multi-device layout, used by multi_device_generate).
  std::size_t chunk_bytes = 1u << 18;
  // When false, tasks run inline on the calling thread in task order
  // (attributed round-robin to "workers" for the report) — the
  // sequential baseline of MultiDeviceOptions::parallel = false.
  bool parallel = true;
  // NUMA placement: 0 = detect (BSRNG_NUMA_NODES override, then sysfs,
  // then single node); N > 0 = force N emulated nodes.  Placement never
  // changes output bytes — it only moves workers and their scratch pages.
  std::size_t numa_nodes = 0;
};

// The canonical addressing unit: which substream, and where in it.
struct StreamRequest {
  std::string algorithm;
  std::uint64_t seed = 0;     // root seed of the tenant tree
  stream::StreamRef ref{};    // tenant → stream → shard path ({0,0,0} = root)
  std::uint64_t offset = 0;   // first byte of the span to fill

  // The seed the substream actually runs on (O(1), pinned schedule).
  std::uint64_t derived_seed() const noexcept {
    return ref.derive_seed(seed);
  }
};

class StreamEngine {
 public:
  explicit StreamEngine(StreamEngineConfig config = {});
  ~StreamEngine();

  StreamEngine(const StreamEngine&) = delete;
  StreamEngine& operator=(const StreamEngine&) = delete;

  std::size_t workers() const noexcept { return config_.workers; }

  // Fill `out` with bytes [req.offset, req.offset + out.size()) of the
  // substream named by `req` — byte-identical to
  // make_generator(req.algorithm, req.derived_seed())->fill over the same
  // range, for every worker count.  Seek cost depends on the partition
  // kind: kCounter seeks in O(1) via make_at_block (offsets past 2^40 are
  // fine), kLaneSlice fast-forwards each column task's sub-stream
  // independently (one full-width generator when there is one worker), and
  // kSequential clocks one generator past the offset.
  ThroughputReport generate(const StreamRequest& req,
                            std::span<std::uint8_t> out);

  // Low-level positional form over a PartitionSpec (multi_device_generate
  // and the gpusim device shards call it with registry specs);
  // generate(req, out) is this applied to the registry spec of the derived
  // seed.  Throws std::invalid_argument for a malformed spec (a kLaneSlice
  // spec without make_lanes, a kCounter spec without make_at_block).  The
  // tail-equivalence law: generate(spec, offset, n) equals the last n bytes
  // of generate(spec, 0, offset + n), for every worker count
  // (tests/core/stream_engine_test.cpp pins it).
  ThroughputReport generate(const PartitionSpec& spec, std::uint64_t offset,
                            std::span<std::uint8_t> out);

  // Freeze `req` into a serializable checkpoint (stream::serialize_checkpoint
  // turns it into the versioned wire blob).  Throws std::invalid_argument
  // for unknown algorithms — a checkpoint that could not resume must not
  // be mintable.
  stream::StreamCheckpoint checkpoint(const StreamRequest& req) const;

  // Resume a parsed checkpoint: fill `out` with the next out.size() bytes
  // of its substream, starting at ck.offset.  Byte-exact across process
  // restarts — ck is a pure address, the engine holds no hidden state.
  ThroughputReport resume(const stream::StreamCheckpoint& ck,
                          std::span<std::uint8_t> out);

 private:
  ThroughputReport run_counter(const PartitionSpec& spec,
                               std::uint64_t offset,
                               std::span<std::uint8_t> out);
  ThroughputReport run_lane_slice(const PartitionSpec& spec,
                                  std::uint64_t offset,
                                  std::span<std::uint8_t> out);
  ThroughputReport run_sequential(const PartitionSpec& spec,
                                  std::uint64_t offset,
                                  std::span<std::uint8_t> out);

  // Run task(worker, t) for t in [0, ntasks) honoring config_.parallel;
  // each task returns the bytes it produced.  Times every task and
  // attributes busy time/bytes to the executing worker; returns the
  // finalized report.
  ThroughputReport dispatch(
      std::size_t ntasks,
      const std::function<std::uint64_t(std::size_t worker,
                                        std::size_t task)>& task);

  StreamEngineConfig config_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace bsrng::core
