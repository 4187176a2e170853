// stream_engine_test.cpp — the tentpole determinism property: for EVERY
// registered algorithm, StreamEngine output is byte-identical to a direct
// single-generator Generator::fill, for every worker count and for odd span
// sizes that straddle block/row boundaries.  This is the paper's §5.4
// reconstruction claim ("the same output sequence ... generated identically
// in a single GPU sequentially") generalized from 2 algorithms to the whole
// registry.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "core/stream_engine.hpp"

namespace co = bsrng::core;

namespace {

constexpr std::uint64_t kSeed = 0xB5126'2024ull;

// The big span deliberately ends 7 bytes short of 1 MiB so it is not a
// multiple of any block (16, 64) or row (W/8) size.  The TSan CI leg
// shrinks it via BSRNG_STREAM_TEST_BIG to keep instrumented runtime sane.
std::size_t big_size() {
  if (const char* env = std::getenv("BSRNG_STREAM_TEST_BIG")) {
    const long v = std::atol(env);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return (1u << 20) - 7;
}

std::vector<std::size_t> span_sizes() { return {1, 31, 4095, big_size()}; }

class StreamEngineDeterminism : public ::testing::TestWithParam<std::string> {
};

std::vector<std::string> all_names() {
  std::vector<std::string> names;
  for (const auto& a : co::list_algorithms()) names.push_back(a.name);
  return names;
}

}  // namespace

TEST_P(StreamEngineDeterminism, MatchesDirectFillForEveryWorkerCount) {
  const std::string name = GetParam();
  const std::size_t big = big_size();

  // One canonical stream per algorithm, generated the trusted way.
  std::vector<std::uint8_t> reference(big);
  co::make_generator(name, kSeed)->fill(reference);

  for (const std::size_t workers : {1u, 2u, 3u, 8u}) {
    co::StreamEngine engine({.workers = workers});
    for (const std::size_t n : span_sizes()) {
      std::vector<std::uint8_t> out(n, 0xAA);
      const auto rep = engine.generate({name, kSeed}, out);
      ASSERT_TRUE(std::equal(out.begin(), out.end(), reference.begin()))
          << name << " diverges from the direct stream with " << workers
          << " workers at span size " << n;
      EXPECT_EQ(rep.workers, workers);
      EXPECT_EQ(rep.bytes, n) << name;
    }
  }
}

TEST_P(StreamEngineDeterminism, InlineModeAndContiguousChunksAgree) {
  // chunk_bytes == 0 (one contiguous chunk per worker, the multi-device
  // layout) and parallel == false (inline execution) must both reproduce
  // the canonical stream too.
  const std::string name = GetParam();
  const std::size_t n = 65536 - 3;
  std::vector<std::uint8_t> reference(n);
  co::make_generator(name, kSeed)->fill(reference);

  co::StreamEngine contiguous({.workers = 3, .chunk_bytes = 0});
  co::StreamEngine inline_eng(
      {.workers = 3, .chunk_bytes = 1u << 12, .parallel = false});
  std::vector<std::uint8_t> a(n), b(n);
  contiguous.generate({name, kSeed}, a);
  inline_eng.generate({name, kSeed}, b);
  EXPECT_EQ(a, reference) << name;
  EXPECT_EQ(b, reference) << name;
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, StreamEngineDeterminism,
                         ::testing::ValuesIn(all_names()),
                         [](const auto& pinfo) {
                           std::string s = pinfo.param;
                           for (char& c : s)
                             if (c == '-') c = '_';
                           return s;
                         });

TEST(StreamEngine, UnknownAlgorithmThrows) {
  co::StreamEngine engine({.workers = 2});
  std::vector<std::uint8_t> out(16);
  EXPECT_THROW(engine.generate({"not-a-generator", 1}, out),
               std::invalid_argument);
  EXPECT_THROW(co::partition_spec("not-a-generator", 1),
               std::invalid_argument);
}

TEST(StreamEngine, EmptySpanIsTrivial) {
  co::StreamEngine engine({.workers = 4});
  const auto rep = engine.generate({"aes-ctr-bs32", 7}, {});
  EXPECT_EQ(rep.bytes, 0u);
  EXPECT_EQ(rep.workers, 4u);
}

TEST(StreamEngine, ReportAccountsAllBytesAndTasks) {
  co::StreamEngine engine({.workers = 2, .chunk_bytes = 1u << 14});
  std::vector<std::uint8_t> out((1u << 18) + 5);
  const auto rep = engine.generate({"chacha20-bs64", 11}, out);
  EXPECT_EQ(rep.bytes, out.size());
  EXPECT_EQ(rep.per_worker.size(), 2u);
  std::uint64_t bytes = 0;
  std::size_t tasks = 0;
  for (const auto& w : rep.per_worker) {
    bytes += w.bytes;
    tasks += w.tasks;
  }
  EXPECT_EQ(bytes, out.size());
  EXPECT_GT(tasks, 0u);
  EXPECT_GE(rep.sum_worker_seconds, rep.max_worker_seconds);
  EXPECT_GE(rep.modeled_speedup(), 1.0 - 1e-9);
}

TEST(StreamEngine, PartitionKindsMatchListing) {
  // The listing's partition column is the spec actually built.
  for (const auto& a : co::list_algorithms()) {
    const auto spec = co::partition_spec(a.name, 1);
    EXPECT_EQ(static_cast<int>(spec.kind), static_cast<int>(a.partition))
        << a.name;
    EXPECT_TRUE(spec.make != nullptr) << a.name;  // fallback always present
  }
}

// ---------------------------------------------------------------------------
// generate_at — the offset-addressable span API bsrngd's session resume is
// built on.  Tail-equivalence law: generate_at(offset, n) must equal the
// last n bytes of a fresh offset+n byte fill, for every partition kind,
// worker count, and unaligned offset.
// ---------------------------------------------------------------------------

namespace {

// One representative per partition kind plus the odd-block cipher: counter
// (16B blocks), counter (64B blocks), lane-slice, and sequential.
const char* const kOffsetAlgos[] = {"aes-ctr-bs64", "chacha20-bs32",
                                    "mickey-bs64", "grain-bs32", "mt19937"};

}  // namespace

TEST(StreamEngineGenerateAt, TailEquivalenceAtUnalignedOffsets) {
  for (const char* name : kOffsetAlgos) {
    const std::size_t n = 8191;
    // Offsets straddle block (16/64) and row (W/8 per step) boundaries.
    for (const std::size_t offset : {1u, 15u, 16u, 63u, 64u, 257u, 4095u}) {
      std::vector<std::uint8_t> reference(offset + n);
      co::make_generator(name, kSeed)->fill(reference);
      for (const std::size_t workers : {1u, 3u}) {
        co::StreamEngine engine({.workers = workers, .chunk_bytes = 1u << 10});
        std::vector<std::uint8_t> out(n, 0xAA);
        const auto rep = engine.generate({name, kSeed, {}, offset}, out);
        ASSERT_TRUE(std::equal(out.begin(), out.end(),
                               reference.begin() +
                                   static_cast<std::ptrdiff_t>(offset)))
            << name << " offset " << offset << " workers " << workers;
        EXPECT_EQ(rep.bytes, n) << name;
      }
    }
  }
}

TEST(StreamEngineGenerateAt, ZeroLengthSpansAreTrivialAtAnyOffset) {
  co::StreamEngine engine({.workers = 2});
  for (const char* name : kOffsetAlgos) {
    for (const std::uint64_t offset :
         {std::uint64_t{0}, std::uint64_t{13}, std::uint64_t{1} << 41}) {
      const auto rep = engine.generate({name, kSeed, {}, offset}, {});
      EXPECT_EQ(rep.bytes, 0u) << name << " offset " << offset;
    }
  }
}

TEST(StreamEngineGenerateAt, HugeCounterOffsetsSeekInConstantTime) {
  // Counter-partition ciphers must serve offsets beyond 2^40 instantly (the
  // O(1) make_at_block seek); the reference comes from the spec's own block
  // factory so the test does not need to generate a terabyte.
  for (const char* name : {"aes-ctr-bs64", "chacha20-bs32", "philox"}) {
    const auto spec = co::partition_spec(name, kSeed);
    ASSERT_EQ(spec.kind, co::PartitionKind::kCounter) << name;
    const std::uint64_t offset = (std::uint64_t{1} << 42) + 11;  // unaligned
    const std::size_t n = 5000;
    const std::uint64_t bb = spec.block_bytes;
    const std::size_t lead = static_cast<std::size_t>(offset % bb);
    std::vector<std::uint8_t> reference(lead + n);
    spec.make_at_block(offset / bb)->fill(reference);

    for (const std::size_t workers : {1u, 4u}) {
      co::StreamEngine engine({.workers = workers, .chunk_bytes = 1u << 10});
      std::vector<std::uint8_t> out(n, 0x55);
      engine.generate({name, kSeed, {}, offset}, out);
      ASSERT_TRUE(std::equal(out.begin(), out.end(),
                             reference.begin() +
                                 static_cast<std::ptrdiff_t>(lead)))
          << name << " workers " << workers;
    }
  }
}

TEST(StreamEngineGenerateAt, OverflowingSpansAreRejected) {
  // offset + out.size() wrapping past 2^64 would undersize the lane-slice
  // scratch envelope (an out-of-bounds read) and corrupt counter/sequential
  // arithmetic; generate_at must reject it before any work, for every
  // partition kind.
  co::StreamEngine engine({.workers = 2});
  const std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
  for (const char* name : kOffsetAlgos) {
    std::vector<std::uint8_t> out(64);
    EXPECT_THROW(engine.generate({name, kSeed, {}, max - 10}, out),
                 std::invalid_argument)
        << name;
    // One byte past the largest representable end offset.
    EXPECT_THROW(
        engine.generate({name, kSeed, {}, max - out.size() + 1}, out),
        std::invalid_argument)
        << name;
    // Empty spans stay trivially valid even at the very top of the space.
    EXPECT_NO_THROW(engine.generate({name, kSeed, {}, max}, {})) << name;
  }
}

TEST(StreamEngineGenerateAt, BackToBackSpansFromInterleavedSessionsAreSeamless) {
  // Two tenant streams served in alternating spans — exactly what bsrngd's
  // per-connection batching produces — must each concatenate to the same
  // bytes as one contiguous generate.
  struct Tenant {
    const char* algo;
    std::uint64_t seed;
    std::uint64_t cursor = 0;
    std::vector<std::uint8_t> got;
  };
  const std::size_t total = 40000;
  for (auto [a, b] : {std::pair<const char*, const char*>{
                          "aes-ctr-bs64", "mickey-bs32"},
                      {"trivium-bs64", "chacha20-bs64"}}) {
    Tenant t[2] = {{a, 101, 0, {}}, {b, 202, 0, {}}};
    co::StreamEngine engine({.workers = 3, .chunk_bytes = 1u << 12});
    const std::size_t spans[] = {313, 4096, 77, 8191, 1024};
    std::size_t si = 0;
    while (t[0].got.size() < total || t[1].got.size() < total) {
      Tenant& cur = t[si % 2];
      if (cur.got.size() < total) {
        const std::size_t n =
            std::min(spans[si % 5], total - cur.got.size());
        std::vector<std::uint8_t> out(n);
        engine.generate({cur.algo, cur.seed, {}, cur.cursor}, out);
        cur.got.insert(cur.got.end(), out.begin(), out.end());
        cur.cursor += n;
      }
      ++si;
    }
    for (const Tenant& tt : t) {
      std::vector<std::uint8_t> reference(total);
      co::make_generator(tt.algo, tt.seed)->fill(reference);
      ASSERT_EQ(tt.got, reference) << tt.algo;
    }
  }
}

// ---------------------------------------------------------------------------
// Task width.  Lane-slice specs build column sub-streams of any ladder width
// (make_lanes), and the engine groups the kernel's W lanes into the widest
// columns that still give every worker a task.  Only the grouping changes:
// the lane layout, and so every byte, stays the canonical W-lane stream.
// ---------------------------------------------------------------------------

namespace {

const char* const kLaneSliceCiphers[] = {"mickey", "grain", "trivium", "a51"};
constexpr std::size_t kLadder[] = {32, 64, 128, 256, 512};

// The width rule, restated: the widest ladder width dividing W that leaves
// at least one column per worker; 32 lanes when no width does.
std::size_t predicted_task_lanes(std::size_t kernel_lanes,
                                 std::size_t workers) {
  for (std::size_t w = 512; w >= 64; w /= 2)
    if (kernel_lanes % w == 0 && kernel_lanes / w >= workers) return w;
  return 32;
}

std::size_t total_tasks(const co::ThroughputReport& rep) {
  std::size_t tasks = 0;
  for (const auto& w : rep.per_worker) tasks += w.tasks;
  return tasks;
}

}  // namespace

TEST(StreamEngineTaskWidth, MakeLanesReproducesTheByteColumnsOfTheFullStream) {
  constexpr std::size_t kRows = 96;
  constexpr std::size_t kRow = 512 / 8;
  for (const char* c : kLaneSliceCiphers) {
    const std::string name = std::string(c) + "-bs512";
    std::vector<std::uint8_t> full(kRows * kRow);
    co::make_generator(name, kSeed)->fill(full);
    const co::PartitionSpec spec = co::partition_spec(name, kSeed);
    ASSERT_TRUE(spec.make_lanes != nullptr) << name;
    for (const std::size_t w : kLadder) {
      const std::size_t cb = w / 8;
      for (std::size_t first = 0; first < 512; first += w) {
        auto gen = spec.make_lanes(first, w);
        EXPECT_EQ(gen->lanes(), w) << name;
        std::vector<std::uint8_t> col(kRows * cb);
        gen->fill(col);
        for (std::size_t r = 0; r < kRows; ++r)
          ASSERT_TRUE(std::equal(col.begin() + static_cast<std::ptrdiff_t>(
                                                   r * cb),
                                 col.begin() + static_cast<std::ptrdiff_t>(
                                                   (r + 1) * cb),
                                 full.begin() + static_cast<std::ptrdiff_t>(
                                                    r * kRow + first / 8)))
              << name << " w=" << w << " first_lane=" << first << " row "
              << r;
      }
    }
  }
}

TEST(StreamEngineTaskWidth, EveryWorkerCountIsByteIdenticalAtAnyOffset) {
  // Spans: a row-aligned start with a ragged end, and two starts inside a
  // row (one of them past the first scatter chunk).  chunk_bytes is small
  // so each column runs several double-buffered rounds.
  struct Span {
    std::size_t offset, n;
  };
  const Span spans[] = {{0, 40000 + 5}, {13, 9000}, {64 * 70 + 37, 20011}};
  for (const char* c : kLaneSliceCiphers) {
    for (const char* suffix : {"-bs512", "-bs128"}) {
      const std::string name = std::string(c) + suffix;
      const std::size_t kernel_lanes = co::find_algorithm(name)->lanes;
      std::vector<std::uint8_t> reference(64 * 70 + 37 + 40000 + 5);
      co::make_generator(name, kSeed)->fill(reference);
      for (const std::size_t workers :
           {1u, 2u, 3u, 4u, 5u, 8u, 16u, 17u, 33u}) {
        co::StreamEngine engine({.workers = workers, .chunk_bytes = 4096});
        const std::size_t w = predicted_task_lanes(kernel_lanes, workers);
        for (const Span& s : spans) {
          std::vector<std::uint8_t> out(s.n, 0xAA);
          const auto rep = engine.generate({name, kSeed, {}, s.offset}, out);
          ASSERT_TRUE(std::equal(out.begin(), out.end(),
                                 reference.begin() +
                                     static_cast<std::ptrdiff_t>(s.offset)))
              << name << " workers " << workers << " offset " << s.offset;
          EXPECT_EQ(rep.bytes, s.n) << name;
          EXPECT_EQ(rep.task_lanes, w) << name << " workers " << workers;
          EXPECT_EQ(total_tasks(rep), kernel_lanes / w)
              << name << " workers " << workers;
        }
      }
    }
  }
}

TEST(StreamEngineTaskWidth, OneWorkerRunsTheWholeRowAsOneTask) {
  // workers == 1: the single column is the stream itself and fills the
  // output directly, including an offset that is not row-aligned.
  for (const char* c : kLaneSliceCiphers) {
    for (const std::size_t width : kLadder) {
      const std::string name = std::string(c) + "-bs" + std::to_string(width);
      std::vector<std::uint8_t> reference(777 + 5003);
      co::make_generator(name, kSeed)->fill(reference);
      co::StreamEngine engine({.workers = 1});
      for (const std::size_t offset : {0u, 777u}) {
        std::vector<std::uint8_t> out(5003, 0x55);
        const auto rep = engine.generate({name, kSeed, {}, offset}, out);
        ASSERT_TRUE(std::equal(
            out.begin(), out.end(),
            reference.begin() + static_cast<std::ptrdiff_t>(offset)))
            << name << " offset " << offset;
        EXPECT_EQ(rep.task_lanes, width) << name;
        EXPECT_EQ(total_tasks(rep), 1u) << name;
      }
    }
  }
}

TEST(StreamEngineTaskWidth, LaneSliceSpecWithoutMakeLanesIsRejected) {
  // make_lanes is how the engine builds every lane-slice column, so a
  // kLaneSlice spec without it is malformed at any worker count.
  co::PartitionSpec spec = co::partition_spec("grain-bs256", kSeed);
  spec.make_lanes = nullptr;
  for (const std::size_t workers : {1u, 4u}) {
    co::StreamEngine engine({.workers = workers});
    std::vector<std::uint8_t> out(10000);
    EXPECT_THROW(engine.generate(spec, 7, out), std::invalid_argument)
        << "workers " << workers;
  }
}

TEST(StreamEngineTaskWidth, CounterAndSequentialReportTheirShardWidth) {
  co::StreamEngine engine({.workers = 3, .chunk_bytes = 1u << 12});
  std::vector<std::uint8_t> out(20000);
  EXPECT_EQ(engine.generate({"aes-ctr-bs512", kSeed}, out).task_lanes, 512u);
  EXPECT_EQ(engine.generate({"chacha20-bs64", kSeed, {}, 5}, out).task_lanes,
            64u);
  EXPECT_EQ(engine.generate({"mt19937", kSeed, {}, 3}, out).task_lanes, 1u);
  EXPECT_EQ(engine.generate({"mt19937", kSeed}, {}).task_lanes, 0u);
}
