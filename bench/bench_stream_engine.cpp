// E5b — StreamEngine: pooled sharded generation for every registered
// algorithm.  Wall-clock speedup needs more than one host core (see
// EXPERIMENTS.md E5); the work-balance model (sum/max of per-worker busy
// time) carries the §5.4 scaling claim, and the partition column shows which
// sharding law each family uses (counter seek, lane slices, or the
// sequential fallback).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "core/registry.hpp"
#include "core/stream_engine.hpp"

namespace co = bsrng::core;

namespace {

constexpr std::size_t kBytes = 1u << 22;

const char* partition_name(co::PartitionKind k) {
  switch (k) {
    case co::PartitionKind::kCounter:
      return "counter";
    case co::PartitionKind::kLaneSlice:
      return "lane-slice";
    case co::PartitionKind::kSequential:
      return "sequential";
  }
  return "?";
}

void print_engine_table(bsrng::bench::JsonWriter& json) {
  std::printf("\n=== StreamEngine sharded generation (%zu MiB/algo) ===\n",
              kBytes >> 20);
  std::printf("%-16s %-11s %10s %10s %16s %10s\n", "algorithm", "partition",
              "1w GB/s", "4w GB/s", "4w modeled spdup", "identical");

  // One engine per worker count, shared across every algorithm — the pool is
  // constructed once and reused (the engine's whole point).
  co::StreamEngine one({.workers = 1});
  co::StreamEngine four({.workers = 4});

  std::vector<std::uint8_t> reference(kBytes), out(kBytes);
  for (const auto& a : co::list_algorithms()) {
    // Keep the printout honest but bounded: scalar bit-at-a-time references
    // take minutes at 4 MiB; they are covered by the test suite instead.
    if (a.family == "reference" && a.name != "chacha20-ref") continue;
    co::make_generator(a.name, 42)->fill(reference);
    const auto r1 = one.generate(co::StreamRequest{a.name, 42}, out);
    const bool ok1 = out == reference;
    const auto r4 = four.generate(co::StreamRequest{a.name, 42}, out);
    const bool ok4 = out == reference;
    std::printf("%-16s %-11s %10.3f %10.3f %16.2f %10s\n", a.name.c_str(),
                partition_name(a.partition), r1.gbps(), r4.gbps(),
                r4.modeled_speedup(), ok1 && ok4 ? "yes" : "NO");
    json.add({.algorithm = a.name, .width = a.lanes, .workers = 1,
              .bytes = r1.bytes, .seconds = r1.wall_seconds,
              .gbps = r1.gbps(), .task_lanes = r1.task_lanes});
    json.add({.algorithm = a.name, .width = a.lanes, .workers = 4,
              .bytes = r4.bytes, .seconds = r4.wall_seconds,
              .gbps = r4.gbps(), .task_lanes = r4.task_lanes});
  }
  std::printf(
      "\nmodeled speedup is the work-balance bound (sum/max of per-worker\n"
      "busy seconds); sequential-partition algorithms stay at 1.0 by\n"
      "construction.  Identity against the direct single-generator stream\n"
      "is asserted for every row.\n");
}

void BM_EngineGenerate(benchmark::State& state, const std::string& algo) {
  co::StreamEngine engine(
      {.workers = static_cast<std::size_t>(state.range(0))});
  std::vector<std::uint8_t> out(1u << 20);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.generate(co::StreamRequest{algo, 7}, out));
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(out.size()));
}

}  // namespace

BENCHMARK_CAPTURE(BM_EngineGenerate, aes_ctr_bs512, "aes-ctr-bs512")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4);
BENCHMARK_CAPTURE(BM_EngineGenerate, chacha20_bs512, "chacha20-bs512")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4);
BENCHMARK_CAPTURE(BM_EngineGenerate, mickey_bs512, "mickey-bs512")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4);
BENCHMARK_CAPTURE(BM_EngineGenerate, trivium_bs512, "trivium-bs512")
    ->Arg(1)
    ->Arg(4);
BENCHMARK_CAPTURE(BM_EngineGenerate, philox, "philox")->Arg(1)->Arg(4);

int main(int argc, char** argv) {
  bsrng::bench::JsonWriter json("bench_stream_engine", &argc, argv);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_engine_table(json);
  return 0;
}
