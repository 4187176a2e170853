// bsrng.hpp — the single-header public facade of the BSRNG library.
//
// Downstream users include this one header (cf. cuRAND's single host-API
// header, the baseline the paper benchmarks against) and get the whole
// public surface under the top-level `bsrng` namespace:
//
//   generation   Generator, make_generator / try_make_generator,
//                algorithm_exists, list_algorithms / find_algorithm,
//                AlgorithmInfo (with .partition_spec(seed))
//   addressing   StreamRef (tenant → stream → shard substream tree),
//                StreamRequest, StreamCheckpoint + serialize_checkpoint /
//                parse_checkpoint (O(1) resumable positions)
//   sharding     StreamEngine, StreamEngineConfig, PartitionSpec,
//                PartitionKind, multi_device_generate + MultiDeviceOptions
//   measurement  ThroughputReport, WorkerStat, measure_throughput
//   telemetry    telemetry::MetricsRegistry, the process-global
//                telemetry::metrics() registry, MetricsSnapshot JSON export
//   self-test    nist::fips140_2 FIPS 140-2 battery (the fast accept/reject
//                gate for generated streams)
//   serving      net::Server / net::Client / net::Session — the bsrngd
//                RNG-as-a-service layer (length-prefixed TCP protocol,
//                resumable per-tenant sessions, /metrics scraping)
//
// Error convention: make_generator and partition_spec throw
// std::invalid_argument for unknown algorithm names; try_make_generator
// returns nullptr and algorithm_exists/find_algorithm probe without
// throwing.  Nothing else in this surface throws for user input.
//
//   #include "bsrng.hpp"
//
//   auto gen = bsrng::make_generator("mickey-bs512", 42);
//   bsrng::StreamEngine engine({.workers = 4});
//   bsrng::telemetry::metrics().set_enabled(true);
#pragma once

#include "core/descriptor.hpp"
#include "core/generator.hpp"
#include "core/gpu_kernel.hpp"
#include "core/multi_device.hpp"
#include "core/registry.hpp"
#include "core/stream_engine.hpp"
#include "core/throughput.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "net/session.hpp"
#include "nist/fips140.hpp"
#include "stream/checkpoint.hpp"
#include "stream/stream_ref.hpp"
#include "telemetry/metrics.hpp"

namespace bsrng {

// Generation.
using core::Generator;
using core::make_generator;
using core::try_make_generator;
using core::algorithm_exists;
using core::AlgorithmInfo;
using core::list_algorithms;
using core::find_algorithm;
using core::gate_ops_per_step;

// Substream addressing: the canonical way to name a stream position.
// StreamRef{0,0,0} (the default) is the historical root stream, so
// StreamRequest{algo, seed} is a drop-in for the old (algo, seed) calls.
using stream::StreamRef;
using stream::derive_child;
using stream::StreamCheckpoint;
using stream::serialize_checkpoint;
using stream::parse_checkpoint;
using stream::checkpoint_digest;
using core::StreamRequest;

// Sharding.
using core::PartitionKind;
using core::PartitionSpec;
using core::partition_spec;
using core::StreamEngine;
using core::StreamEngineConfig;
using core::multi_device_generate;
using core::MultiDeviceOptions;
using core::MultiDeviceReport;

// Algorithm descriptors (the single source of truth behind the registry,
// StreamEngine sharding, and the gpusim kernels).
using core::AlgorithmDescriptor;
using core::algorithm_descriptors;
using core::find_descriptor;
using core::find_bitsliced;

// Virtual-GPU kernels: every bitsliced cipher on gpusim, byte-identical to
// the host stream (gpusim is a backend, not a demo).
using core::GpuKernelConfig;
using core::GpuKernelResult;
using core::run_gpu_kernel;
using core::kernel_word;
using core::kernel_out_index;
using core::kernel_stream_word;
using core::kernel_equivalent_algorithm;

// Measurement.
using core::ThroughputReport;
using core::ThroughputResult;
using core::WorkerStat;
using core::measure_throughput;

// Telemetry lives in bsrng::telemetry (metrics(), MetricsRegistry,
// MetricsSnapshot, Counter/Gauge/Histogram) — already a sub-namespace of
// bsrng, re-exported here by inclusion.

// Serving lives in bsrng::net (Server/ServerConfig/ServerStats, Client,
// Session, and the wire protocol) — the bsrngd daemon and bsrng_loadgen
// are thin CLIs over these.

}  // namespace bsrng
