// throughput.hpp — measurement utilities for the evaluation harness.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/generator.hpp"

namespace bsrng::core {

struct ThroughputResult {
  std::uint64_t bytes = 0;
  double seconds = 0.0;
  double gbps() const {  // gigabits per second
    return seconds > 0 ? static_cast<double>(bytes) * 8.0 / seconds / 1e9
                       : 0.0;
  }
};

// Generate `total_bytes` in `chunk_bytes` chunks and time it.
ThroughputResult measure_throughput(Generator& gen, std::uint64_t total_bytes,
                                    std::size_t chunk_bytes = 1 << 16);

// ---------------------------------------------------------------------------
// Multi-worker accounting, shared by StreamEngine and §5.4
// multi_device_generate.  "Worker" is one pool thread (or one simulated
// device); busy time is the span each worker spent generating, excluding
// pool idle waits.
// ---------------------------------------------------------------------------

struct WorkerStat {
  std::uint64_t bytes = 0;   // output bytes this worker produced
  double seconds = 0.0;      // busy time across all its tasks
  std::size_t tasks = 0;     // partition tasks it claimed
};

struct ThroughputReport {
  std::size_t workers = 0;
  std::uint64_t bytes = 0;
  double wall_seconds = 0.0;        // end-to-end
  double max_worker_seconds = 0.0;  // slowest worker (parallel wall bound)
  double sum_worker_seconds = 0.0;  // total work (1-worker-equivalent time)
  std::vector<WorkerStat> per_worker;

  // Lane width of the generator each partition task ran (kLaneSlice: the
  // column width the engine picked for its worker count; kCounter and
  // kSequential: the shard generator's lanes()).  0 when no task ran.
  std::size_t task_lanes = 0;

  // Degradation-ladder annotations (multi_device gpusim backend): how many
  // simulated device launches faulted, and whether the span was regenerated
  // through the host StreamEngine path as a result.  Output bytes are
  // identical either way; these record that the ladder was walked.
  std::uint64_t device_fallbacks = 0;
  bool degraded_to_host = false;

  // Modeled speedup of the T-worker run over one worker doing all the work,
  // assuming workers run concurrently: sum / max.  This is the §5.4 scaling
  // model; on a host with fewer cores than workers, wall time cannot show it
  // but the busy-time ratio still can.
  double modeled_speedup() const {
    return max_worker_seconds > 0 ? sum_worker_seconds / max_worker_seconds
                                  : 0.0;
  }
  double gbps() const {  // gigabits per second of end-to-end wall time
    return wall_seconds > 0
               ? static_cast<double>(bytes) * 8.0 / wall_seconds / 1e9
               : 0.0;
  }
};

// Recompute the aggregate max/sum fields from `per_worker` (the engine calls
// this after workers publish their stats).
void finalize_report(ThroughputReport& rep);

}  // namespace bsrng::core
