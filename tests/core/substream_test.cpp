// substream_test.cpp — StreamEngine over the substream fabric: the
// StreamRef-addressed entry point, O(1) checkpoints, and the byte-exactness
// laws the redesign promises (ISSUE 9):
//
//   (a) a StreamRef's bytes are identical across worker counts, NUMA node
//       counts, and host vs gpusim;
//   (b) a checkpoint minted at ANY offset resumes byte-exactly in a fresh
//       engine (the in-process version of kill -9 + restart: serialize,
//       drop every live object, parse, resume);
//   (c) a tenant's shards are rebuildable in isolation, on engines with
//       different worker counts, and reconstruct the same bytes.
//
// The all-algorithm round trip below is the checkpoint analogue of
// stream_engine_test's determinism sweep: every registered generator, all
// three partition kinds, unaligned offsets.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/multi_device.hpp"
#include "core/registry.hpp"
#include "core/stream_engine.hpp"
#include "stream/checkpoint.hpp"
#include "stream/stream_ref.hpp"

namespace co = bsrng::core;
namespace st = bsrng::stream;

namespace {

constexpr std::uint64_t kRoot = 0xB5126'2025ull;
constexpr st::StreamRef kRef{2, 1, 3};  // a deep, non-root node

// Canonical bytes of a substream: the direct single-generator fill at the
// derived seed.  Everything in this file must reproduce (slices of) this.
std::vector<std::uint8_t> reference_bytes(const std::string& algo,
                                          std::uint64_t root,
                                          st::StreamRef ref, std::size_t n) {
  std::vector<std::uint8_t> out(n);
  co::make_generator(algo, ref.derive_seed(root))->fill(out);
  return out;
}

std::vector<std::string> all_names() {
  std::vector<std::string> names;
  for (const auto& a : co::list_algorithms()) names.push_back(a.name);
  return names;
}

class SubstreamCheckpoint : public ::testing::TestWithParam<std::string> {};

}  // namespace

TEST_P(SubstreamCheckpoint, SerializeKillRestoreIsByteExact) {
  // checkpoint → wire blob → (engine destroyed) → parse → resume in a brand
  // new engine; the resumed bytes must be the reference tail.  Offsets are
  // deliberately unaligned to every block (16/64) and row size.
  const std::string name = GetParam();
  const std::size_t kTail = 4096;
  const std::uint64_t kOffsets[] = {0, 1, 63, 4097};
  const std::size_t kMax = 4097 + kTail;
  const std::vector<std::uint8_t> reference =
      reference_bytes(name, kRoot, kRef, kMax);

  for (const std::uint64_t offset : kOffsets) {
    std::vector<std::uint8_t> blob;
    {
      co::StreamEngine engine({.workers = 3, .chunk_bytes = 1u << 10});
      const st::StreamCheckpoint ck =
          engine.checkpoint({name, kRoot, kRef, offset});
      EXPECT_EQ(ck.algorithm, name);
      EXPECT_EQ(ck.seed, kRoot);
      EXPECT_EQ(ck.offset, offset);
      blob = st::serialize_checkpoint(ck);
    }  // engine gone — nothing survives but the blob, as after kill -9

    const auto back = st::parse_checkpoint(blob);
    ASSERT_TRUE(back.has_value()) << name;
    co::StreamEngine fresh({.workers = 2, .chunk_bytes = 1u << 11});
    std::vector<std::uint8_t> out(kTail, 0xAA);
    const auto rep = fresh.resume(*back, out);
    EXPECT_EQ(rep.bytes, kTail);
    ASSERT_TRUE(std::equal(
        out.begin(), out.end(),
        reference.begin() + static_cast<std::ptrdiff_t>(offset)))
        << name << " resume diverges at offset " << offset;
  }
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, SubstreamCheckpoint,
                         ::testing::ValuesIn(all_names()),
                         [](const auto& pinfo) {
                           std::string s = pinfo.param;
                           for (char& c : s)
                             if (c == '-') c = '_';
                           return s;
                         });

TEST(Substream, BytesInvariantAcrossWorkerAndNumaCounts) {
  // Law (a), host side: the same StreamRef produces the same bytes whatever
  // the pool geometry.  One representative per partition kind.
  const std::size_t n = 32768 - 5;
  for (const char* name : {"aes-ctr-bs64", "mickey-bs32", "mt19937"}) {
    const std::vector<std::uint8_t> reference =
        reference_bytes(name, kRoot, kRef, n);
    for (const std::size_t workers : {1u, 2u, 4u}) {
      for (const std::size_t numa : {0u, 1u, 4u}) {
        co::StreamEngine engine({.workers = workers,
                                 .chunk_bytes = 1u << 12,
                                 .numa_nodes = numa});
        std::vector<std::uint8_t> out(n, 0x55);
        engine.generate({name, kRoot, kRef, 0}, out);
        ASSERT_EQ(out, reference)
            << name << " workers " << workers << " numa " << numa;
      }
    }
  }
}

TEST(Substream, OffsetAddressingMatchesReferenceTail) {
  // generate({algo, seed, ref, offset}) is tail-equivalent to the derived
  // stream, the StreamRef lift of the generate_at law.
  const std::size_t n = 2048;
  for (const char* name : {"chacha20-bs64", "grain-bs64"}) {
    const std::vector<std::uint8_t> reference =
        reference_bytes(name, kRoot, kRef, 4095 + n);
    for (const std::uint64_t offset : {1u, 64u, 4095u}) {
      co::StreamEngine engine({.workers = 3, .chunk_bytes = 1u << 10});
      std::vector<std::uint8_t> out(n);
      engine.generate({name, kRoot, kRef, offset}, out);
      ASSERT_TRUE(std::equal(
          out.begin(), out.end(),
          reference.begin() + static_cast<std::ptrdiff_t>(offset)))
          << name << " offset " << offset;
    }
  }
}

TEST(Substream, ShardsRebuildInIsolationAcrossGeometries) {
  // Law (c): tenant 7, stream 2 owns shards 0..3.  Build each shard on its
  // own engine — every shard with a DIFFERENT worker count — then verify
  // each against the derived-seed reference.  No shard needed any sibling,
  // and the "cluster" reconstruction (concatenating the shard spans in
  // shard order) is reproducible from the refs alone.
  const std::size_t per_shard = 8192 - 3;
  std::vector<std::vector<std::uint8_t>> cluster;
  for (std::uint64_t shard = 0; shard < 4; ++shard) {
    const st::StreamRef ref{7, 2, shard};
    co::StreamEngine engine(
        {.workers = static_cast<std::size_t>(shard + 1),
         .chunk_bytes = 1u << 11});
    std::vector<std::uint8_t> out(per_shard);
    engine.generate({"trivium-bs64", kRoot, ref, 0}, out);
    EXPECT_EQ(out, reference_bytes("trivium-bs64", kRoot, ref, per_shard))
        << "shard " << shard;
    cluster.push_back(std::move(out));
  }
  // Shards are genuinely distinct substreams.
  EXPECT_NE(cluster[0], cluster[1]);
  EXPECT_NE(cluster[1], cluster[2]);
}

TEST(Substream, GpusimAgreesWithHostForDerivedSeeds) {
  // Law (a), backend side: staging a substream's chunks through gpusim
  // devices produces the same bytes as the host engine — the §5.4
  // reconstruction property holds for derived seeds too.
  const std::size_t n = 16384 + 9;
  for (const char* name : {"aes-ctr-bs64", "mickey-bs64"}) {
    const st::StreamRef ref{3, 0, 1};
    const std::uint64_t derived = ref.derive_seed(kRoot);
    const std::vector<std::uint8_t> reference =
        reference_bytes(name, kRoot, ref, n);

    std::vector<std::uint8_t> sim(n, 0xCC);
    const auto rep = co::multi_device_generate(
        name, derived, 2, sim, co::MultiDeviceOptions{.use_gpusim = true});
    EXPECT_EQ(sim, reference) << name << " gpusim diverges";
    EXPECT_EQ(rep.bytes, n);
  }
}

TEST(Substream, CheckpointChainConcatenatesSeamlessly) {
  // Walk a substream purely through checkpoint/resume hops — mint at the
  // cursor, resume a span, advance — and the concatenation must equal one
  // contiguous read.  This is exactly bsrngd's kCheckpoint/kResume loop.
  const std::string name = "chacha20-bs32";
  const std::size_t total = 24000;
  const std::vector<std::uint8_t> reference =
      reference_bytes(name, kRoot, kRef, total);

  co::StreamEngine engine({.workers = 2, .chunk_bytes = 1u << 10});
  std::vector<std::uint8_t> got;
  std::uint64_t cursor = 0;
  const std::size_t spans[] = {313, 4096, 77, 8191};
  std::size_t si = 0;
  while (got.size() < total) {
    const std::size_t n =
        std::min(spans[si++ % 4], total - got.size());
    const st::StreamCheckpoint ck =
        engine.checkpoint({name, kRoot, kRef, cursor});
    const auto back = st::parse_checkpoint(st::serialize_checkpoint(ck));
    ASSERT_TRUE(back.has_value());
    std::vector<std::uint8_t> out(n);
    engine.resume(*back, out);
    got.insert(got.end(), out.begin(), out.end());
    cursor += n;
  }
  EXPECT_EQ(got, reference);
}

TEST(Substream, CheckpointRejectsUnknownAlgorithms) {
  // A checkpoint that could not resume must not be mintable.
  co::StreamEngine engine({.workers = 1});
  EXPECT_THROW((void)engine.checkpoint({"not-a-generator", 1, {}, 0}),
               std::invalid_argument);
  // And resuming a checkpoint whose algorithm vanished fails loudly too.
  EXPECT_THROW(
      {
        std::vector<std::uint8_t> out(16);
        engine.resume({"not-a-generator", 1, {}, 0}, out);
      },
      std::invalid_argument);
}
