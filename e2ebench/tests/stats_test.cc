// Tests for the benchmark's own statistics: the tail percentile and its
// at-least-ten-beyond rule, span self time, the tracing overhead and the
// order in which measured passes are taken.
#include "stats.h"

#include <vector>

#include "gtest/gtest.h"

namespace mgpu::e2ebench {
namespace {

std::vector<double> Ramp(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(NearestRankTest, MedianAndExtremes) {
  EXPECT_EQ(NearestRank(Ramp(10), 0.5), 5.0);
  EXPECT_EQ(NearestRank(Ramp(11), 0.5), 6.0);
  EXPECT_EQ(NearestRank(Ramp(10), 1.0), 10.0);
  EXPECT_EQ(NearestRank(Ramp(10), 0.01), 1.0);
  EXPECT_EQ(NearestRank({7.0}, 0.95), 7.0);
}

TEST(TailQuantileTest, NeedsTenSamplesBeyond) {
  // 200 samples: p95 is the 190th, so exactly 10 lie beyond it.
  const auto ok = TailQuantile(Ramp(200), 0.95);
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(*ok, 190.0);
  // 199 samples: p95 is the 190th (ceil(189.05)), 9 beyond — refused.
  EXPECT_FALSE(TailQuantile(Ramp(199), 0.95).has_value());
  EXPECT_FALSE(TailQuantile({}, 0.95).has_value());
  // The rule is configurable for other percentiles.
  EXPECT_TRUE(TailQuantile(Ramp(20), 0.5, 10).has_value());
  EXPECT_FALSE(TailQuantile(Ramp(19), 0.5, 10).has_value());
}

TEST(TailQuantileTest, TiesAtTheQuantileDoNotCountAsBeyond) {
  // 300 samples, the top 20 all equal: p95 falls inside the tie, and only
  // samples strictly above it count, so none do.
  std::vector<double> v = Ramp(280);
  v.insert(v.end(), 20, 1000.0);
  EXPECT_FALSE(TailQuantile(v, 0.95).has_value());
  v.insert(v.end(), 10, 2000.0);  // ten strictly larger samples
  const auto ok = TailQuantile(v, 0.95);
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(*ok, 1000.0);
}

TEST(SelfTimeTest, DurationMinusChildCoverage) {
  const std::vector<SpanRecord> spans = {
      {Layer::kJob, -1, 0.0, 10.0},
      {Layer::kComputeBuild, 0, 1.0, 3.0},
      {Layer::kComputeFirstDispatch, 0, 4.0, 8.0},
  };
  const std::vector<double> self = SelfTimes(spans);
  EXPECT_DOUBLE_EQ(self[0], 10.0 - 2.0 - 4.0);
  EXPECT_DOUBLE_EQ(self[1], 2.0);
  EXPECT_DOUBLE_EQ(self[2], 4.0);
}

TEST(SelfTimeTest, OverlappingChildrenCountOnceAndAreClipped) {
  const std::vector<SpanRecord> spans = {
      {Layer::kJob, -1, 0.0, 10.0},
      {Layer::kGlRecord, 0, 2.0, 5.0},
      {Layer::kGlRecord, 0, 4.0, 6.0},     // overlaps the previous child
      {Layer::kGlSyncWait, 0, 9.0, 12.0},  // runs past the parent's end
      {Layer::kGlRecord, 1, 2.0, 3.0},     // grandchild: not a direct child
  };
  const std::vector<double> self = SelfTimes(spans);
  EXPECT_DOUBLE_EQ(self[0], 10.0 - 4.0 - 1.0);  // [2,6) and [9,10)
  EXPECT_DOUBLE_EQ(self[1], 3.0 - 1.0);
  EXPECT_DOUBLE_EQ(self[3], 3.0);
}

TEST(SelfTimeTest, InterleavedJobsKeepTheirOwnChildren) {
  // Two pipelined frames whose spans overlap in time: each frame's self
  // time only subtracts its own children.
  const std::vector<SpanRecord> spans = {
      {Layer::kJob, -1, 0.0, 6.0},
      {Layer::kJob, -1, 1.0, 8.0},
      {Layer::kGlRecord, 0, 0.0, 1.0},
      {Layer::kGlRecord, 1, 1.0, 2.0},
      {Layer::kGlSyncWait, 0, 2.0, 6.0},
      {Layer::kGlSyncWait, 1, 6.0, 8.0},
  };
  const std::vector<double> self = SelfTimes(spans);
  EXPECT_DOUBLE_EQ(self[0], 1.0);
  EXPECT_DOUBLE_EQ(self[1], 4.0);
}

TEST(LayerSecondsTest, SumsPerLayer) {
  const std::vector<SpanRecord> spans = {
      {Layer::kJob, -1, 0.0, 10.0},
      {Layer::kGlRecord, 0, 1.0, 2.5},
      {Layer::kGlRecord, 0, 3.0, 4.0},
  };
  const auto sum = LayerSeconds(spans);
  EXPECT_DOUBLE_EQ(sum[static_cast<std::size_t>(Layer::kJob)], 10.0);
  EXPECT_DOUBLE_EQ(sum[static_cast<std::size_t>(Layer::kGlRecord)], 2.5);
  EXPECT_DOUBLE_EQ(sum[static_cast<std::size_t>(Layer::kGlSyncWait)], 0.0);
}

TEST(TracingOverheadTest, ShareOfUntracedRate) {
  EXPECT_DOUBLE_EQ(TracingOverhead(100.0, 95.0), 0.05);
  EXPECT_DOUBLE_EQ(TracingOverhead(100.0, 100.0), 0.0);
  EXPECT_DOUBLE_EQ(TracingOverhead(100.0, 104.0), -0.04);  // noise
  EXPECT_DOUBLE_EQ(TracingOverhead(0.0, 5.0), 0.0);
}

TEST(FastestFirstTest, ShortestPassFirstRunOrderAmongEquals) {
  const std::vector<std::size_t> order =
      FastestFirst({2.0, 1.0, 1.5, 1.0, 2.0});
  EXPECT_EQ(order, (std::vector<std::size_t>{1, 3, 2, 0, 4}));
  EXPECT_TRUE(FastestFirst({}).empty());
}

TEST(TracerTest, SpansNestUnderTheirJob) {
  Tracer t;
  const int job = t.Begin(Layer::kJob, -1);
  Traced(JobTrace{&t, job}, Layer::kComputeOps, [] {});
  { Span s(JobTrace{nullptr, job}, Layer::kComputeOps); }  // tracing off
  t.End(job);
  ASSERT_EQ(t.spans().size(), 2u);
  EXPECT_EQ(t.spans()[1].parent, job);
  EXPECT_EQ(t.spans()[1].layer, Layer::kComputeOps);
  EXPECT_LE(t.spans()[0].start, t.spans()[1].start);
  EXPECT_LE(t.spans()[1].end, t.spans()[0].end);
}

}  // namespace
}  // namespace mgpu::e2ebench
