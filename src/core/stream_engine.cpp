#include "core/stream_engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <limits>
#include <new>
#include <stdexcept>
#include <vector>

#include "fault/fault.hpp"
#include "telemetry/metrics.hpp"

namespace bsrng::core {

using Clock = std::chrono::steady_clock;

namespace {

struct EngineFaults {
  fault::FaultPoint& alloc_fail;

  static EngineFaults& get() {
    static EngineFaults f{fault::faults().point("engine.alloc_fail")};
    return f;
  }
};

// Resolved once; per-job/per-task updates are relaxed atomics behind the
// registry's enabled flag (one predictable branch when telemetry is off).
struct EngineMetrics {
  telemetry::Counter& jobs;
  telemetry::Counter& bytes;
  telemetry::Counter& tasks;
  telemetry::Counter& checkpoints;
  telemetry::Counter& resumes;
  telemetry::Histogram& task_seconds;
  telemetry::Histogram& job_seconds;
  telemetry::Gauge& last_gbps;

  static EngineMetrics& get() {
    static EngineMetrics m{
        telemetry::metrics().counter("stream_engine.jobs"),
        telemetry::metrics().counter("stream_engine.bytes"),
        telemetry::metrics().counter("stream_engine.tasks"),
        telemetry::metrics().counter("stream_engine.checkpoints"),
        telemetry::metrics().counter("stream_engine.resumes"),
        telemetry::metrics().histogram("stream_engine.task_seconds"),
        telemetry::metrics().histogram("stream_engine.job_seconds"),
        telemetry::metrics().gauge("stream_engine.last_gbps"),
    };
    return m;
  }
};

}  // namespace

StreamEngine::StreamEngine(StreamEngineConfig config) : config_(config) {
  if (config_.workers == 0) config_.workers = ThreadPool::default_workers();
  if (config_.parallel)
    pool_ = std::make_unique<ThreadPool>(
        config_.workers, config_.numa_nodes > 0
                             ? NumaTopology::emulated(config_.numa_nodes)
                             : NumaTopology::detect());
}

StreamEngine::~StreamEngine() = default;

ThroughputReport StreamEngine::generate(const StreamRequest& req,
                                        std::span<std::uint8_t> out) {
  return generate(partition_spec(req.algorithm, req.derived_seed()),
                  req.offset, out);
}

stream::StreamCheckpoint StreamEngine::checkpoint(
    const StreamRequest& req) const {
  if (!algorithm_exists(req.algorithm))
    throw std::invalid_argument("StreamEngine: cannot checkpoint unknown "
                                "algorithm '" +
                                req.algorithm + "'");
  EngineMetrics::get().checkpoints.add();
  return stream::StreamCheckpoint{req.algorithm, req.seed, req.ref,
                                  req.offset};
}

ThroughputReport StreamEngine::resume(const stream::StreamCheckpoint& ck,
                                      std::span<std::uint8_t> out) {
  EngineMetrics::get().resumes.add();
  return generate(StreamRequest{ck.algorithm, ck.seed, ck.ref, ck.offset},
                  out);
}

ThroughputReport StreamEngine::generate(const PartitionSpec& spec,
                                        std::uint64_t offset,
                                        std::span<std::uint8_t> out) {
  // The span must fit the 2^64-byte stream address space: a wrapping end
  // offset would corrupt the seek arithmetic of every partition kind.
  if (out.size() > std::numeric_limits<std::uint64_t>::max() - offset)
    throw std::invalid_argument(
        "StreamEngine: offset + span length overflows the stream address");
  switch (spec.kind) {
    case PartitionKind::kCounter:
      return run_counter(spec, offset, out);
    case PartitionKind::kLaneSlice:
      return run_lane_slice(spec, offset, out);
    case PartitionKind::kSequential:
      return run_sequential(spec, offset, out);
  }
  throw std::logic_error("StreamEngine: unhandled partition kind");
}

ThroughputReport StreamEngine::dispatch(
    std::size_t ntasks,
    const std::function<std::uint64_t(std::size_t, std::size_t)>& task) {
  // Every generation job funnels through here, so one injection point
  // models "the allocation/setup for this job failed".  It fires before any
  // output byte is written: a caller that catches and re-issues the span
  // gets byte-identical results (positional generate is idempotent).
  if (EngineFaults::get().alloc_fail.fire()) throw std::bad_alloc();
  ThroughputReport rep;
  rep.per_worker.resize(config_.workers);
  EngineMetrics& em = EngineMetrics::get();
  const auto timed = [&](std::size_t worker, std::size_t t) {
    const auto t0 = Clock::now();
    const std::uint64_t bytes = task(worker, t);
    const double secs =
        std::chrono::duration<double>(Clock::now() - t0).count();
    WorkerStat& s = rep.per_worker[worker];
    s.seconds += secs;
    s.bytes += bytes;
    ++s.tasks;
    em.tasks.add();
    em.task_seconds.observe(secs);
  };
  const auto w0 = Clock::now();
  if (config_.parallel) {
    pool_->run_indexed(ntasks, timed);
  } else {
    for (std::size_t t = 0; t < ntasks; ++t) timed(t % config_.workers, t);
  }
  rep.wall_seconds = std::chrono::duration<double>(Clock::now() - w0).count();
  finalize_report(rep);
  em.jobs.add();
  em.bytes.add(rep.bytes);
  em.job_seconds.observe(rep.wall_seconds);
  em.last_gbps.set(rep.gbps());
  return rep;
}

ThroughputReport StreamEngine::run_counter(const PartitionSpec& spec,
                                           std::uint64_t offset,
                                           std::span<std::uint8_t> out) {
  if (spec.block_bytes == 0 || !spec.make_at_block)
    throw std::invalid_argument("StreamEngine: malformed kCounter spec");
  const std::size_t bb = spec.block_bytes;
  const std::size_t lead = static_cast<std::size_t>(offset % bb);
  std::atomic<std::size_t> task_lanes{0};
  // Unaligned head: one block generated into scratch, tail copied out.
  std::size_t head = 0;
  if (lead != 0 && !out.empty()) {
    head = std::min<std::size_t>(bb - lead, out.size());
    std::vector<std::uint8_t> scratch(lead + head);
    auto gen = spec.make_at_block(offset / bb);
    gen->fill(scratch);
    std::copy(scratch.begin() + static_cast<std::ptrdiff_t>(lead),
              scratch.end(), out.begin());
    task_lanes.store(gen->lanes(), std::memory_order_relaxed);
  }
  // The rest is block-aligned from block `base` — an O(1) seek, the §5.4
  // counter partition.
  const std::uint64_t base = offset / bb + (lead != 0 ? 1 : 0);
  const std::span<std::uint8_t> body = out.subspan(head);
  const std::size_t blocks_total = (body.size() + bb - 1) / bb;
  // Chunks are block-aligned so every shard's counter range is
  // self-contained (the paper's "different counter values ... passed to
  // GPUs", §5.4).  chunk_bytes == 0: one contiguous chunk per worker.
  std::size_t blocks_per_chunk;
  if (config_.chunk_bytes == 0) {
    blocks_per_chunk =
        std::max<std::size_t>(1, (blocks_total + config_.workers - 1) /
                                     config_.workers);
  } else {
    blocks_per_chunk = std::max<std::size_t>(1, config_.chunk_bytes / bb);
  }
  const std::size_t nchunks =
      blocks_total == 0 ? 0
                        : (blocks_total + blocks_per_chunk - 1) /
                              blocks_per_chunk;
  ThroughputReport rep =
      dispatch(nchunks, [&](std::size_t, std::size_t c) -> std::uint64_t {
        const std::size_t first_block = c * blocks_per_chunk;
        const std::size_t first_byte = first_block * bb;
        const std::size_t last_byte =
            std::min(body.size(), (first_block + blocks_per_chunk) * bb);
        auto gen = spec.make_at_block(base + first_block);
        gen->fill(body.subspan(first_byte, last_byte - first_byte));
        task_lanes.store(gen->lanes(), std::memory_order_relaxed);
        return last_byte - first_byte;
      });
  rep.bytes = out.size();
  rep.task_lanes = task_lanes.load(std::memory_order_relaxed);
  return rep;
}

ThroughputReport StreamEngine::run_lane_slice(const PartitionSpec& spec,
                                              std::uint64_t offset,
                                              std::span<std::uint8_t> out) {
  if (spec.lane_blocks == 0 || !spec.make_lanes)
    throw std::invalid_argument("StreamEngine: malformed kLaneSlice spec");
  const std::size_t row = spec.lane_blocks * 4;  // 32 lanes per lane block
  // Task width: the widest ladder width (512 down to 32 lanes) that divides
  // the row and still leaves at least one column task per worker; 32 lanes
  // when none does.  A narrow step costs nearly what a wide one does, so the
  // fewest, widest tasks that keep every worker busy are the fastest.
  std::size_t cb = 512 / 8;  // bytes per row per column task
  while (cb > 32 / 8 && (row % cb != 0 || row / cb < config_.workers)) cb /= 2;
  const std::size_t ncols = row / cb;
  // The span starts `within` bytes into row r0 and covers `rows` rows.
  const std::uint64_t r0 = offset / row;
  const std::size_t within = static_cast<std::size_t>(offset % row);
  const std::size_t rows =
      out.empty() ? 0 : (within + out.size() - 1) / row + 1;
  ThroughputReport rep;
  if (ncols == 1) {
    // One column spans the whole row: it is the stream itself, so it seeks
    // past `offset` and fills `out` directly, with no scratch or scatter.
    rep = dispatch(rows == 0 ? 0 : 1,
                   [&](std::size_t, std::size_t) -> std::uint64_t {
      auto gen = spec.make_lanes(0, cb * 8);
      discard_bytes(*gen, offset);
      gen->fill(out);
      return out.size();
    });
    rep.task_lanes = cb * 8;
    return rep;
  }
  // One task per column; the worker fast-forwards its column generator past
  // the first r0 rows (so the seek parallelizes exactly like generation),
  // streams it into alternating scratch buffers (double-buffered: the
  // scatter of buffer A runs while buffer B is still warm from the previous
  // round) and scatters rows into the interleaved output.  With a pool the
  // buffers are the worker's persistent node-local pair (first-touched on
  // that worker's thread, reused across batches); the inline path keeps
  // task-local ones.
  const std::size_t rows_per_chunk = std::max<std::size_t>(
      1, (config_.chunk_bytes == 0 ? (1u << 18) : config_.chunk_bytes) / cb);
  const bool pooled = config_.parallel && pool_ != nullptr;
  rep = dispatch(rows == 0 ? 0 : ncols,
                 [&](std::size_t worker, std::size_t c) -> std::uint64_t {
    auto gen = spec.make_lanes(c * cb * 8, cb * 8);
    discard_bytes(*gen, r0 * cb);
    std::vector<std::uint8_t> local[2];
    const auto buf = [&](std::size_t which) -> std::vector<std::uint8_t>& {
      return pooled ? pool_->scratch(worker, which) : local[which];
    };
    if (buf(0).size() < rows_per_chunk * cb) buf(0).resize(rows_per_chunk * cb);
    if (buf(1).size() < rows_per_chunk * cb) buf(1).resize(rows_per_chunk * cb);
    std::uint64_t produced = 0;
    std::size_t which = 0;
    for (std::size_t r = 0; r < rows; r += rows_per_chunk, which ^= 1) {
      const std::size_t r1 = std::min(rows, r + rows_per_chunk);
      std::vector<std::uint8_t>& col = buf(which);
      gen->fill(std::span(col.data(), (r1 - r) * cb));
      // Row k's column bytes sit at [lo, lo + cb) of the row-aligned window
      // that starts `within` bytes before out[0]; copy their overlap.
      for (std::size_t k = r; k < r1; ++k) {
        const std::size_t lo = k * row + c * cb;
        const std::size_t a = std::max(lo, within);
        const std::size_t e = std::min(lo + cb, within + out.size());
        if (a >= e) continue;
        std::memcpy(out.data() + (a - within),
                    col.data() + (k - r) * cb + (a - lo), e - a);
        produced += e - a;
      }
    }
    return produced;
  });
  rep.task_lanes = cb * 8;
  return rep;
}

ThroughputReport StreamEngine::run_sequential(const PartitionSpec& spec,
                                              std::uint64_t offset,
                                              std::span<std::uint8_t> out) {
  if (!spec.make)
    throw std::invalid_argument("StreamEngine: malformed kSequential spec");
  // No safe decomposition: one task clocks one generator past `offset` and
  // produces the whole span, chunked so the report still reflects
  // steady-state generation.
  std::size_t task_lanes = 0;
  ThroughputReport rep = dispatch(
      out.empty() ? 0 : 1, [&](std::size_t, std::size_t) -> std::uint64_t {
        auto gen = spec.make();
        task_lanes = gen->lanes();
        discard_bytes(*gen, offset);
        const std::size_t chunk =
            config_.chunk_bytes == 0 ? out.size() : config_.chunk_bytes;
        for (std::size_t i = 0; i < out.size(); i += chunk)
          gen->fill(out.subspan(i, std::min(chunk, out.size() - i)));
        return out.size();
      });
  rep.task_lanes = task_lanes;
  return rep;
}

}  // namespace bsrng::core
