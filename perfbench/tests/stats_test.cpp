// Tests for the benchmark's own arithmetic: summary statistics, span self
// time, open-loop due-time latency, and the output digest.
#include <gtest/gtest.h>

#include <array>
#include <numeric>
#include <vector>

#include "perfbench.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

std::vector<double> iota_samples(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);  // 1, 2, ..., n
  return v;
}

TEST(Stats, MedianOddEvenAndUnsorted) {
  EXPECT_DOUBLE_EQ(median({5, 1, 3}), 3);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(median({7}), 7);
  EXPECT_THROW(median({}), std::invalid_argument);
}

TEST(Stats, QuartilesMatchPythonExclusiveMethod) {
  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  const Quartiles q = quartiles(iota_samples(10));
  EXPECT_DOUBLE_EQ(q.q1, 2.75);
  EXPECT_DOUBLE_EQ(q.q2, 5.5);
  EXPECT_DOUBLE_EQ(q.q3, 8.25);
  // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
  const Quartiles q3 = quartiles({3, 1, 2});
  EXPECT_DOUBLE_EQ(q3.q1, 1.0);
  EXPECT_DOUBLE_EQ(q3.q2, 2.0);
  EXPECT_DOUBLE_EQ(q3.q3, 3.0);
  // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
  const Quartiles q2 = quartiles({20, 10});
  EXPECT_DOUBLE_EQ(q2.q1, 7.5);
  EXPECT_DOUBLE_EQ(q2.q2, 15.0);
  EXPECT_DOUBLE_EQ(q2.q3, 22.5);
}

TEST(Stats, TailPercentileKeepsTenSamplesBeyond) {
  // 1000 samples support the full p99: rank 990, ten samples above it.
  TailPercentile t = tail_percentile(iota_samples(1000));
  EXPECT_DOUBLE_EQ(t.p, 0.99);
  EXPECT_DOUBLE_EQ(t.value, 990);
  EXPECT_EQ(t.beyond, 10u);
  EXPECT_EQ(t.samples, 1000u);
  // 300 samples: p = 290/300, the value at rank 290, ten beyond.
  t = tail_percentile(iota_samples(300));
  EXPECT_NEAR(t.p, 290.0 / 300.0, 1e-12);
  EXPECT_DOUBLE_EQ(t.value, 290);
  EXPECT_EQ(t.beyond, 10u);
  // 5000 samples: capped at the target p99 (50 beyond).
  t = tail_percentile(iota_samples(5000));
  EXPECT_DOUBLE_EQ(t.p, 0.99);
  EXPECT_DOUBLE_EQ(t.value, 4950);
  EXPECT_EQ(t.beyond, 50u);
  // Fewer than 20 samples support no tail: the median stands in.
  t = tail_percentile(iota_samples(15));
  EXPECT_DOUBLE_EQ(t.p, 0.5);
  EXPECT_DOUBLE_EQ(t.value, 8);
  t = tail_percentile(iota_samples(4));
  EXPECT_DOUBLE_EQ(t.value, 2.5);
  // Order of the input does not matter.
  std::vector<double> rev = iota_samples(1000);
  std::reverse(rev.begin(), rev.end());
  EXPECT_DOUBLE_EQ(tail_percentile(rev).value, 990);
}

TEST(Stats, HistogramQuantileInterpolatesInsideTheBucket) {
  const std::vector<double> bounds = {1, 2, 4};
  // 10 values in (1, 2], 10 in (2, 4]: the median is the top of (1, 2].
  EXPECT_DOUBLE_EQ(histogram_quantile(bounds, {0, 10, 10, 0}, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(histogram_quantile(bounds, {0, 10, 10, 0}, 0.75), 3.0);
  EXPECT_DOUBLE_EQ(histogram_quantile(bounds, {0, 0, 0, 5}, 0.5), 4.0);
  EXPECT_DOUBLE_EQ(histogram_quantile(bounds, {0, 0, 0, 0}, 0.5), 0.0);
}

TEST(Trace, SelfTimeSubtractsTheUnionOfChildren) {
  // root [0, 10]; children [1, 4] and [3, 6] overlap (union 5); a
  // grandchild [2, 3] belongs to the first child only; a child that leaks
  // past the root is clipped to it.
  std::vector<Span> s = {
      {"root", 0, 10, -1, 1},
      {"a", 1, 4, 0, 1},
      {"b", 3, 6, 0, 1},
      {"g", 2, 3, 1, 1},
      {"leak", 9, 12, 0, 1},
  };
  const std::vector<double> self = self_times(s);
  EXPECT_DOUBLE_EQ(self[0], 10 - (5 + 1));  // union [1,6] + [9,10]
  EXPECT_DOUBLE_EQ(self[1], 3 - 1);
  EXPECT_DOUBLE_EQ(self[2], 3);
  EXPECT_DOUBLE_EQ(self[3], 1);
  EXPECT_DOUBLE_EQ(self[4], 3);
  const auto by_name = self_time_by_name(s);
  EXPECT_DOUBLE_EQ(by_name.at("root"), 4);
}

TEST(Trace, TracerRecordsNothingWhenOff) {
  Tracer off(false);
  EXPECT_EQ(off.begin("x", 1), -1);
  off.end(-1);
  EXPECT_TRUE(off.spans().empty());
  Tracer on(true);
  const auto root = on.begin("root", 7);
  const auto kid = on.begin("kid", 7, root);
  on.end(kid);
  on.end(root);
  ASSERT_EQ(on.spans().size(), 2u);
  EXPECT_EQ(on.spans()[1].parent, root);
  EXPECT_LE(on.spans()[0].start, on.spans()[1].start);
  EXPECT_GE(on.spans()[0].end, on.spans()[1].end);
}

TEST(OpenLoop, LatencyCountsFromTheDueTime) {
  const double rate = 1000;  // one request per millisecond
  EXPECT_DOUBLE_EQ(due_time(2.0, 0, rate), 2.0);
  EXPECT_DOUBLE_EQ(due_time(2.0, 500, rate), 2.5);
  // Due at 2.5 s, sent 3 ms late, answered 1 ms after sending: the latency
  // is 4 ms (the stall counts), the lateness 3 ms.
  const double due = due_time(2.0, 500, rate);
  const double sent = due + 0.003, done = sent + 0.001;
  EXPECT_NEAR(latency_from_due(due, done), 0.004, 1e-12);
  EXPECT_NEAR(sender_lateness(due, sent), 0.003, 1e-12);
  // Sending early is not negative lateness.
  EXPECT_DOUBLE_EQ(sender_lateness(due, due - 0.001), 0.0);
}

TEST(Digest, StreamingEqualsOneShotAndSeesEveryByte) {
  std::vector<std::uint8_t> buf(1000);
  for (std::size_t i = 0; i < buf.size(); ++i) buf[i] = static_cast<std::uint8_t>(i * 7);
  const std::uint64_t whole = digest_of(buf);
  Digest d;
  for (std::size_t at = 0; at < buf.size();) {
    const std::size_t take = std::min<std::size_t>(buf.size() - at, 1 + at % 37);
    d.update(std::span(buf.data() + at, take));
    at += take;
  }
  EXPECT_EQ(d.finish(), whole);
  for (const std::size_t at : {0u, 31u, 32u, 500u, 999u}) {
    std::vector<std::uint8_t> flip = buf;
    flip[at] ^= 1;
    EXPECT_NE(digest_of(flip), whole) << "byte " << at;
  }
  EXPECT_NE(digest_of(std::span(buf.data(), 999)), whole);
}

TEST(Workloads, SameSeedSameOps) {
  Config a;
  a.seed = 42;
  a.nproc = 4;
  Config b = a;
  b.seed = 43;
  const Params p = params_for(a);
  const auto x = small_ops(a, p, 4, 1.0), y = small_ops(a, p, 4, 1.0);
  const auto z = small_ops(b, p, 4, 1.0);
  ASSERT_EQ(x.size(), static_cast<std::size_t>(p.small_rate));
  std::size_t same = 0, seeks = 0, resumes = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(x[i].offset, y[i].offset);
    EXPECT_EQ(x[i].stream, y[i].stream);
    same += x[i].offset == z[i].offset && x[i].stream == z[i].stream;
    seeks += x[i].kind != OpKind::kContinue;
    resumes += x[i].frame == Frame::kResume;
    EXPECT_GE(x[i].nbytes, 64u);
    EXPECT_LE(x[i].nbytes, 4096u);
  }
  EXPECT_LT(same, x.size() / 2);
  // About one op in ten is a seek or a checkpoint→resume.
  EXPECT_GT(seeks + resumes, x.size() / 20);
  EXPECT_LT(seeks + resumes, x.size() / 6);
  // A shorter run replays a prefix of the same sequence.
  const auto prefix = small_ops(a, p, 4, 0.5);
  for (std::size_t i = 0; i < prefix.size(); ++i) EXPECT_EQ(prefix[i].offset, x[i].offset);
}

TEST(Workloads, StreamLadderCoversEveryCipher) {
  // The ladder replays serve_stream's first segments; they must reach
  // every cipher whatever the core count, since each cipher's per-layer
  // metrics come only from the ops that used it.
  for (unsigned conns = 1; conns <= 8; ++conns)
    for (std::uint64_t seed : {1u, 2u, 5u}) {
      Config cfg;
      cfg.workload = "serve_stream";
      cfg.seed = seed;
      cfg.nproc = conns;
      std::array<bool, kNumAlgos> seen{};
      for (const Op& o : ladder_ops(cfg, params_for(cfg), conns)) seen[o.algo] = true;
      for (std::size_t a = 0; a < kNumAlgos; ++a)
        EXPECT_TRUE(seen[a]) << kAlgos[a] << " missing with " << conns
                             << " connections, seed " << seed;
    }
}

}  // namespace
}  // namespace perfbench
