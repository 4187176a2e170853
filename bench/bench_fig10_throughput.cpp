// E1 — Fig. 10: throughput of the bitsliced CSPRNGs vs the cuRAND-class
// baseline on the paper's six GPUs (Table 2 catalog), regenerated from
// (a) measured CPU throughput of the same kernels and (b) the gate-count
// projection model (DESIGN.md §2).  Also prints Table 2 itself (E3).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "core/descriptor.hpp"
#include "core/registry.hpp"
#include "core/stream_engine.hpp"
#include "core/throughput.hpp"
#include "gpusim/catalog.hpp"

namespace co = bsrng::core;
namespace gs = bsrng::gpusim;

namespace {

void BM_Fill(benchmark::State& state, const std::string& algo) {
  auto gen = co::make_generator(algo, 1);
  std::vector<std::uint8_t> buf(1 << 16);
  for (auto _ : state) {
    gen->fill(buf);
    benchmark::DoNotOptimize(buf.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(buf.size()));
}

// All CPU measurements below run through one shared StreamEngine (single
// worker: the column is per-device throughput) instead of each row spinning
// up its own measurement loop.
double measured_gbps(co::StreamEngine& engine, const std::string& algo,
                     std::span<std::uint8_t> buf,
                     bsrng::bench::JsonWriter& json) {
  engine.generate(co::StreamRequest{algo, 1}, buf);  // warm-up
  const auto rep = engine.generate(co::StreamRequest{algo, 1}, buf);
  json.add({.algorithm = algo, .width = co::find_algorithm(algo)->lanes,
            .workers = 1, .bytes = rep.bytes, .seconds = rep.wall_seconds,
            .gbps = rep.gbps(), .task_lanes = rep.task_lanes});
  return rep.gbps();
}

void print_figure10(bsrng::bench::JsonWriter& json,
                    const std::vector<std::string>& only) {
  co::StreamEngine engine({.workers = 1});
  std::vector<std::uint8_t> buf(8u << 20);
  // Per-bit gate cost at the paper's W = 32 (one GPU thread = 32 lanes).
  // Rows come straight from the descriptor table; `--algos mickey,grain`
  // restricts the sweep to the named cipher bases.
  struct Algo {
    std::string label;
    std::string counter;    // gate_ops_per_step key (the descriptor base)
    double bits_per_step;   // slice bits produced per counted step
    std::string cpu_name;   // measured CPU kernel (widest lanes)
  };
  std::vector<Algo> algos;
  for (const auto& d : co::algorithm_descriptors()) {
    if (!only.empty() &&
        std::find(only.begin(), only.end(), d.base) == only.end())
      continue;
    algos.push_back({d.base + " (bitsliced)", d.base, d.bits_per_step,
                     d.base + "-bs512"});
  }

  std::printf("\n=== Table 2: GPU platforms (paper, verbatim) ===\n");
  std::printf("%-14s %10s %10s %10s\n", "GPU", "SP GFLOPS", "DP GFLOPS",
              "BW GB/s");
  for (const auto& g : gs::device_catalog())
    std::printf("%-14s %10.0f %10.0f %10.0f\n", g.name.c_str(), g.sp_gflops,
                g.dp_gflops, g.mem_bw_gbs);

  std::printf("\n=== Fig. 10: projected throughput (Gbit/s) per device ===\n");
  std::printf("model: util * min(SP_peak/2 / gate_ops_per_bit, BW/bytes_per_bit)\n");
  std::printf("%-22s", "algorithm (ops/bit)");
  for (const auto& g : gs::device_catalog())
    std::printf(" %12s", g.name.c_str());
  std::printf(" %12s\n", "CPU measured");

  for (const auto& a : algos) {
    const double ops_bit =
        co::gate_ops_per_step(a.counter) / (32.0 * a.bits_per_step);
    std::printf("%-15s (%5.1f)", a.label.c_str(), ops_bit);
    for (const auto& g : gs::device_catalog()) {
      const double gbps = gs::project_throughput_gbps(
          g, gs::ProjectionParams{.gate_ops_per_bit = ops_bit});
      std::printf(" %12.1f", gbps);
    }
    std::printf(" %12.2f\n", measured_gbps(engine, a.cpu_name, buf, json));
  }

  // cuRAND-class baseline: empirically memory-utilization-bound; the paper's
  // own numbers imply ~40% of peak write bandwidth (2080 Ti: ~1.94 Tb/s).
  std::printf("%-22s", "cuRAND-class (mem-bound)");
  for (const auto& g : gs::device_catalog())
    std::printf(" %12.1f", 0.40 * g.mem_bw_gbs * 8.0);
  std::printf(" %12.2f\n", measured_gbps(engine, "mt19937", buf, json));

  std::printf(
      "\npaper anchors: MICKEY 2.72 Tb/s on GTX 2080 Ti, 2.90 Tb/s on V100;\n"
      "40%% over cuRAND.  See EXPERIMENTS.md E1 for the shape comparison and\n"
      "the spec-faithful-MICKEY gate-cost discrepancy discussion.\n");
}

}  // namespace

BENCHMARK_CAPTURE(BM_Fill, mickey_bs512, "mickey-bs512");
BENCHMARK_CAPTURE(BM_Fill, grain_bs512, "grain-bs512");
BENCHMARK_CAPTURE(BM_Fill, trivium_bs512, "trivium-bs512");
BENCHMARK_CAPTURE(BM_Fill, aes_ctr_bs512, "aes-ctr-bs512");
BENCHMARK_CAPTURE(BM_Fill, mt19937, "mt19937");
BENCHMARK_CAPTURE(BM_Fill, xorwow, "xorwow");
BENCHMARK_CAPTURE(BM_Fill, philox, "philox");

int main(int argc, char** argv) {
  bsrng::bench::JsonWriter json("bench_fig10_throughput", &argc, argv);
  const std::vector<std::string> only =
      bsrng::bench::split_csv(bsrng::bench::take_flag(&argc, argv, "algos"));
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_figure10(json, only);
  return 0;
}
