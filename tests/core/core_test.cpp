// Core public API: factory, generator semantics, gate counting, throughput
// meter, and the §5.4 multi-device determinism property.
#include <gtest/gtest.h>

#include <set>

#include "core/multi_device.hpp"
#include "core/registry.hpp"
#include "core/throughput.hpp"
#include "lfsr/polynomial.hpp"

namespace co = bsrng::core;

TEST(Registry, ListsAllFamilies) {
  const auto algos = co::list_algorithms();
  // 6 ciphers x 5 widths + 6 references + 9 baselines = 45.
  EXPECT_EQ(algos.size(), 45u);
  std::size_t bitsliced = 0, reference = 0, baseline = 0;
  for (const auto& a : algos) {
    if (a.family == "bitsliced") {
      ++bitsliced;
      EXPECT_GT(a.gate_ops_per_bit, 0.0) << a.name;
      // All bitsliced engines except the historical A5/1 are CSPRNGs.
      EXPECT_EQ(a.cryptographic, a.name.find("a51") == std::string::npos)
          << a.name;
    } else if (a.family == "reference") {
      ++reference;
    } else {
      ++baseline;
    }
  }
  EXPECT_EQ(bitsliced, 30u);
  EXPECT_EQ(reference, 6u);
  EXPECT_EQ(baseline, 9u);
}

TEST(Registry, EveryListedAlgorithmIsConstructibleAndDeterministic) {
  for (const auto& a : co::list_algorithms()) {
    auto g1 = co::make_generator(a.name, 12345);
    auto g2 = co::make_generator(a.name, 12345);
    ASSERT_NE(g1, nullptr) << a.name;
    EXPECT_EQ(g1->name(), a.name);
    EXPECT_EQ(g1->lanes(), a.lanes) << a.name;
    std::vector<std::uint8_t> b1(257), b2(257);
    g1->fill(b1);
    g2->fill(b2);
    EXPECT_EQ(b1, b2) << a.name << " must be deterministic per seed";
  }
}

TEST(Registry, UnknownNameThrows) {
  EXPECT_THROW(co::make_generator("not-a-generator", 1), std::invalid_argument);
}

TEST(Registry, SeedsChangeTheStream) {
  for (const char* name : {"mickey-bs64", "aes-ctr-bs32", "mt19937"}) {
    auto g1 = co::make_generator(name, 1);
    auto g2 = co::make_generator(name, 2);
    std::vector<std::uint8_t> b1(64), b2(64);
    g1->fill(b1);
    g2->fill(b2);
    EXPECT_NE(b1, b2) << name;
  }
}

TEST(Registry, FillIsStreamContinuous) {
  // fill(a); fill(b) must equal one fill(a+b) — chunking can't change bytes.
  for (const char* name :
       {"mickey-bs32", "grain-bs128", "trivium-bs512", "aes-ctr-bs64",
        "a51-bs64", "chacha20-bs32", "mickey-ref", "chacha20-ref", "rc4",
        "pcg32", "xoshiro256pp", "mt19937"}) {
    auto g1 = co::make_generator(name, 777);
    auto g2 = co::make_generator(name, 777);
    std::vector<std::uint8_t> whole(301);
    g1->fill(whole);
    std::vector<std::uint8_t> parts(301);
    g2->fill(std::span(parts.data(), 13));
    g2->fill(std::span(parts.data() + 13, 200));
    g2->fill(std::span(parts.data() + 213, 88));
    EXPECT_EQ(parts, whole) << name;
  }
}

TEST(Registry, BitslicedWidthsAgreePerLaneCost) {
  // gate_ops_per_bit must scale exactly as 1/width within a cipher family.
  const auto algos = co::list_algorithms();
  const auto find = [&](const std::string& n) {
    for (const auto& a : algos)
      if (a.name == n) return a.gate_ops_per_bit;
    ADD_FAILURE() << n;
    return 0.0;
  };
  EXPECT_NEAR(find("mickey-bs32") / 16.0, find("mickey-bs512"), 1e-12);
  EXPECT_NEAR(find("grain-bs64") / 2.0, find("grain-bs128"), 1e-12);
}

TEST(GateCount, MatchesPaperStructuralClaims) {
  // The bitsliced LFSR costs exactly k XORs per step (§4.3, Fig. 8).
  const auto poly20 = bsrng::lfsr::primitive_polynomial(20);
  EXPECT_EQ(co::gate_ops_per_step("lfsr20"),
            static_cast<double>(poly20.tap_count()));
  // Stream ciphers are hundreds of gates per step; AES blocks are far
  // costlier per bit (the §5.2 "AES is limited by the bitsliced S-box").
  const double mickey = co::gate_ops_per_step("mickey");
  const double grain = co::gate_ops_per_step("grain");
  const double trivium = co::gate_ops_per_step("trivium");
  const double aes_block = co::gate_ops_per_step("aes-ctr");
  EXPECT_GT(mickey, 100.0);
  EXPECT_LT(mickey, 2000.0);
  EXPECT_LT(trivium, grain);  // Trivium is famously cheap
  EXPECT_GT(aes_block / 128.0, mickey) << "AES per-bit must exceed MICKEY";
}

TEST(GateCount, UnknownCipherThrows) {
  EXPECT_THROW(co::gate_ops_per_step("des"), std::invalid_argument);
}

TEST(Generator, ConvenienceDrawsAreWellFormed) {
  auto g = co::make_generator("philox", 99);
  std::set<std::uint64_t> vals;
  for (int i = 0; i < 100; ++i) {
    const double d = g->next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    vals.insert(g->next_u64());
  }
  EXPECT_EQ(vals.size(), 100u);
}

TEST(Throughput, MeasuresAndScales) {
  auto g = co::make_generator("xorwow", 5);
  const auto r = co::measure_throughput(*g, 1 << 22);
  EXPECT_EQ(r.bytes, std::uint64_t{1} << 22);
  EXPECT_GT(r.seconds, 0.0);
  EXPECT_GT(r.gbps(), 0.0);
}

// --- §5.4 multi-device -------------------------------------------------------

TEST(MultiDevice, AesCtrIsDeviceCountInvariant) {
  std::vector<std::uint8_t> reference(100000);
  co::make_generator("aes-ctr-bs32", 0x42)->fill(reference);
  for (const std::size_t d : {1u, 2u, 4u, 7u}) {
    std::vector<std::uint8_t> out(reference.size());
    co::multi_device_generate("aes-ctr-bs32", 0x42, d, out,
                              {.parallel = d != 4});
    EXPECT_EQ(out, reference) << "devices " << d;
  }
}

TEST(MultiDevice, MickeyIsParallelismInvariant) {
  std::vector<std::uint8_t> reference(65536), par(65536), seq(65536);
  co::make_generator("mickey-bs128", 2024)->fill(reference);
  co::multi_device_generate("mickey-bs128", 2024, 2, par, {.parallel = true});
  co::multi_device_generate("mickey-bs128", 2024, 2, seq, {.parallel = false});
  EXPECT_EQ(par, reference);
  EXPECT_EQ(seq, reference);
}

TEST(MultiDevice, ReportAccountsWork) {
  std::vector<std::uint8_t> out(1 << 20);
  const auto rep = co::multi_device_generate("aes-ctr-bs32", 1, 2, out);
  EXPECT_EQ(rep.workers, 2u);
  EXPECT_GT(rep.sum_worker_seconds, 0.0);
  EXPECT_GE(rep.sum_worker_seconds, rep.max_worker_seconds);
  // With balanced chunks the modeled speedup approaches D (the paper reports
  // 1.92x on 2 GPUs); allow generous slack on a loaded host.
  EXPECT_GT(rep.modeled_speedup(), 1.5);
  EXPECT_LE(rep.modeled_speedup(), 2.01);
}

TEST(MultiDevice, ZeroDevicesRejected) {
  std::vector<std::uint8_t> out(16);
  EXPECT_THROW(co::multi_device_generate("aes-ctr-bs32", 1, 0, out),
               std::invalid_argument);
  EXPECT_THROW(co::multi_device_generate("mickey-bs128", 1, 0, out,
                                         {.use_gpusim = true}),
               std::invalid_argument);
}
