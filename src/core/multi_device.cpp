#include "core/multi_device.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/registry.hpp"
#include "core/stream_engine.hpp"
#include "gpusim/device.hpp"
#include "telemetry/metrics.hpp"

namespace bsrng::core {

namespace {

// Per-device throughput accounting for §5.4 runs; the engine's own
// metrics (stream_engine.*) cover bytes/latency, these add the device view.
struct MultiDeviceMetrics {
  telemetry::Counter& runs;
  telemetry::Counter& device_tasks;
  telemetry::Histogram& device_seconds;
  telemetry::Gauge& last_gbps;
  telemetry::Gauge& last_modeled_speedup;
  telemetry::Counter& device_fallbacks;

  static MultiDeviceMetrics& get() {
    static MultiDeviceMetrics m{
        telemetry::metrics().counter("multi_device.runs"),
        telemetry::metrics().counter("multi_device.device_tasks"),
        telemetry::metrics().histogram("multi_device.device_seconds"),
        telemetry::metrics().gauge("multi_device.last_gbps"),
        telemetry::metrics().gauge("multi_device.last_modeled_speedup"),
        telemetry::metrics().counter("multi_device.device_fallbacks"),
    };
    return m;
  }
};

MultiDeviceReport record_run(MultiDeviceReport rep) {
  MultiDeviceMetrics& mm = MultiDeviceMetrics::get();
  mm.runs.add();
  for (const WorkerStat& w : rep.per_worker) {
    mm.device_tasks.add(w.tasks);
    mm.device_seconds.observe(w.seconds);
  }
  mm.last_gbps.set(rep.gbps());
  mm.last_modeled_speedup.set(rep.modeled_speedup());
  return rep;
}

// The host path: one StreamEngine worker per device, one contiguous chunk
// each (the §5.4 layout).
MultiDeviceReport host_generate(const PartitionSpec& spec, std::size_t devices,
                                std::span<std::uint8_t> out, bool parallel) {
  StreamEngineConfig cfg;
  cfg.workers = devices;
  cfg.chunk_bytes = 0;
  cfg.parallel = parallel;
  return record_run(StreamEngine(cfg).generate(spec, 0, out));
}

// Generate [lo, hi) of the canonical stream for `spec` through one
// gpusim::Device: every kernel thread owns a word-aligned slice of the
// chunk, produces it positionally with a non-parallel StreamEngine (so the
// bytes are the engine-law bytes at that offset, independent of the device
// topology) and stores it through device global memory; the host then reads
// the words back out.  Throws gpusim::DeviceFault when the launch faults.
void gpusim_device_chunk(const PartitionSpec& spec, std::uint64_t lo,
                         std::span<std::uint8_t> chunk,
                         std::size_t threads) {
  if (chunk.empty()) return;
  const std::size_t words = (chunk.size() + 3) / 4;
  threads = std::max<std::size_t>(1, std::min(threads, words));
  gpusim::Device dev(words);
  gpusim::LaunchConfig cfg;
  cfg.blocks = 1;
  cfg.threads_per_block = threads;
  cfg.kernel_name = "multi_device_shard";
  const std::size_t words_per_thread = (words + threads - 1) / threads;
  dev.launch(cfg, [&](gpusim::ThreadCtx& ctx) {
    const std::size_t w0 = ctx.thread_idx() * words_per_thread;
    const std::size_t w1 = std::min(words, w0 + words_per_thread);
    if (w0 >= w1) return;
    const std::size_t b0 = w0 * 4;
    const std::size_t b1 = std::min(chunk.size(), w1 * 4);
    std::vector<std::uint8_t> buf((w1 - w0) * 4, 0);
    StreamEngineConfig ecfg;
    ecfg.workers = 1;
    ecfg.parallel = false;
    StreamEngine(ecfg).generate(spec, lo + b0,
                                std::span(buf.data(), b1 - b0));
    for (std::size_t w = w0; w < w1; ++w) {
      const std::size_t k = (w - w0) * 4;
      const std::uint32_t v =
          static_cast<std::uint32_t>(buf[k]) |
          (static_cast<std::uint32_t>(buf[k + 1]) << 8) |
          (static_cast<std::uint32_t>(buf[k + 2]) << 16) |
          (static_cast<std::uint32_t>(buf[k + 3]) << 24);
      ctx.global_store(w, v);
    }
  });
  const std::span<const std::uint32_t> mem = dev.global_memory();
  for (std::size_t w = 0; w < words; ++w) {
    const std::uint32_t v = mem[w];
    for (std::size_t k = 0; k < 4 && w * 4 + k < chunk.size(); ++k)
      chunk[w * 4 + k] = static_cast<std::uint8_t>(v >> (8 * k));
  }
}

}  // namespace

MultiDeviceReport multi_device_generate(std::string_view algorithm,
                                        std::uint64_t seed,
                                        std::size_t devices,
                                        std::span<std::uint8_t> out,
                                        const MultiDeviceOptions& options) {
  if (devices == 0) throw std::invalid_argument("need at least one device");
  const PartitionSpec spec = partition_spec(algorithm, seed);
  if (!options.use_gpusim)
    return host_generate(spec, devices, out, options.parallel);
  using Clock = std::chrono::steady_clock;

  MultiDeviceReport rep;
  rep.per_worker.resize(devices);
  std::vector<std::exception_ptr> errors(devices);
  const std::size_t per_device = (out.size() + devices - 1) / devices;
  const auto run_device = [&](std::size_t d) {
    const std::size_t lo = std::min(out.size(), d * per_device);
    const std::size_t hi = std::min(out.size(), lo + per_device);
    const auto t0 = Clock::now();
    try {
      gpusim_device_chunk(spec, lo, out.subspan(lo, hi - lo),
                          options.gpusim_threads);
    } catch (...) {
      errors[d] = std::current_exception();
    }
    WorkerStat& w = rep.per_worker[d];
    w.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
    w.bytes = hi - lo;
    w.tasks = 1;
  };

  const auto w0 = Clock::now();
  if (options.parallel && devices > 1) {
    std::vector<std::thread> threads;
    threads.reserve(devices);
    for (std::size_t d = 0; d < devices; ++d)
      threads.emplace_back(run_device, d);
    for (auto& t : threads) t.join();
  } else {
    for (std::size_t d = 0; d < devices; ++d) run_device(d);
  }
  rep.wall_seconds = std::chrono::duration<double>(Clock::now() - w0).count();

  // Walk the degradation ladder: device faults are recoverable (regenerate
  // the whole span on the host path — byte-identical, positional generate
  // is idempotent), anything else is a real bug and propagates.
  std::uint64_t faulted = 0;
  std::exception_ptr other;
  for (const std::exception_ptr& e : errors) {
    if (!e) continue;
    try {
      std::rethrow_exception(e);
    } catch (const gpusim::DeviceFault&) {
      ++faulted;
    } catch (...) {
      if (!other) other = e;
    }
  }
  if (other) std::rethrow_exception(other);
  if (faulted > 0) {
    MultiDeviceMetrics::get().device_fallbacks.add(faulted);
    MultiDeviceReport host = host_generate(spec, devices, out,
                                           options.parallel);
    host.device_fallbacks = faulted;
    host.degraded_to_host = true;
    return host;
  }
  finalize_report(rep);
  return record_run(rep);
}

}  // namespace bsrng::core
