#include "sim/stats.hpp"

#include <gtest/gtest.h>

#include "sim/json.hpp"
#include "sim/random.hpp"

namespace gputn::sim {
namespace {

TEST(Accumulator, BasicMoments) {
  Accumulator a;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) a.add(x);
  EXPECT_EQ(a.count(), 8u);
  EXPECT_DOUBLE_EQ(a.mean(), 5.0);
  EXPECT_DOUBLE_EQ(a.min(), 2.0);
  EXPECT_DOUBLE_EQ(a.max(), 9.0);
  EXPECT_DOUBLE_EQ(a.sum(), 40.0);
  EXPECT_NEAR(a.stddev(), 2.138, 1e-3);
}

TEST(Accumulator, EmptyIsSafe) {
  Accumulator a;
  EXPECT_EQ(a.count(), 0u);
  EXPECT_DOUBLE_EQ(a.mean(), 0.0);
  EXPECT_DOUBLE_EQ(a.variance(), 0.0);
}

TEST(Accumulator, ResetClears) {
  Accumulator a;
  a.add(10.0);
  a.reset();
  EXPECT_EQ(a.count(), 0u);
}

TEST(Histogram, BucketsByPowerOfTwo) {
  Histogram h;
  h.add(0);   // bucket 0
  h.add(1);   // bucket 1
  h.add(2);   // bucket 2
  h.add(3);   // bucket 2
  h.add(4);   // bucket 3
  h.add(255); // bucket 8
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 2u);
  EXPECT_EQ(h.bucket_count(3), 1u);
  EXPECT_EQ(h.bucket_count(8), 1u);
  EXPECT_EQ(h.bucket_count(20), 0u);
}

TEST(Histogram, QuantilesOfConstantStream) {
  Histogram h;
  for (int i = 0; i < 100; ++i) h.add(10);
  // All mass sits in one bucket; interpolation is clamped to the observed
  // max, so every quantile reports the constant exactly.
  EXPECT_DOUBLE_EQ(h.quantile(0.50), 10.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 10.0);
  EXPECT_DOUBLE_EQ(h.max(), 10.0);
}

TEST(Histogram, QuantilesOfUniformStream) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.add(v);
  double p50 = h.quantile(0.50);
  double p90 = h.quantile(0.90);
  double p99 = h.quantile(0.99);
  // Linear interpolation inside a power-of-two bucket is near-exact for a
  // uniform stream.
  EXPECT_NEAR(p50, 500.0, 30.0);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_LE(p99, h.max());
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
}

TEST(Histogram, QuantileEdgeCases) {
  Histogram h;
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);  // empty
  h.add(0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);  // zero bucket
}

TEST(Histogram, SingleSampleQuantileIsTheSample) {
  // Pow2-bucket interpolation would otherwise report a point inside the
  // sample's bucket span (e.g. ~6 for a lone 7 in bucket [4,8)); with one
  // sample every quantile must be that sample.
  Histogram h;
  h.add(7);
  EXPECT_DOUBLE_EQ(h.quantile(0.01), 7.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.50), 7.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 7.0);
}

TEST(Histogram, P999SingleBucketAndClampEdgeCases) {
  // Single-bucket stream: every sample is 10, so the extreme tail quantile
  // must clamp to the constant (the bucket [8,16) would otherwise let
  // interpolation report ~16 for q -> 1).
  Histogram constant;
  for (int i = 0; i < 2000; ++i) constant.add(10);
  EXPECT_DOUBLE_EQ(constant.quantile(0.999), 10.0);

  // One sample: p999 is that sample, like every other quantile.
  Histogram lone;
  lone.add(7);
  EXPECT_DOUBLE_EQ(lone.quantile(0.999), 7.0);

  // Clamp: p999 can never exceed the observed max, and the tail ordering
  // p99 <= p999 <= max must hold on a skewed stream whose covering bucket
  // edge (2048) lies above the observed max.
  Histogram skewed;
  for (std::uint64_t v = 1; v <= 1000; ++v) skewed.add(v);
  skewed.add(1500);  // bucket [1024, 2048), max well under the edge
  EXPECT_LE(skewed.quantile(0.99), skewed.quantile(0.999));
  EXPECT_LE(skewed.quantile(0.999), skewed.max());
  EXPECT_DOUBLE_EQ(skewed.max(), 1500.0);
}

TEST(Histogram, AllZeroSamplesQuantileIsZero) {
  Histogram h;
  for (int i = 0; i < 10; ++i) h.add(0);
  EXPECT_DOUBLE_EQ(h.quantile(0.50), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 0.0);
}

TEST(Histogram, QuantileClampedToObservedRange) {
  // Bucket edges can lie outside [min, max]; quantiles must not.
  Histogram h;
  h.add(5);
  h.add(5);
  h.add(6);
  for (double q : {0.01, 0.5, 0.9, 0.99}) {
    EXPECT_GE(h.quantile(q), h.min());
    EXPECT_LE(h.quantile(q), h.max());
  }
}

TEST(Accumulator, EmptyMinMaxAreZeroNotNan) {
  // Documented NaN-free sentinel: min()/max() on an empty accumulator
  // return 0.0 so exports and reports never emit NaN; callers that care
  // check count() first.
  Accumulator a;
  EXPECT_DOUBLE_EQ(a.min(), 0.0);
  EXPECT_DOUBLE_EQ(a.max(), 0.0);
  EXPECT_DOUBLE_EQ(a.stddev(), 0.0);
}

TEST(Accumulator, MergeMatchesSingleStream) {
  Accumulator a, b, all;
  for (double x : {2.0, 4.0, 4.0, 4.0}) {
    a.add(x);
    all.add(x);
  }
  for (double x : {5.0, 5.0, 7.0, 9.0}) {
    b.add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_DOUBLE_EQ(a.mean(), all.mean());
  EXPECT_DOUBLE_EQ(a.sum(), all.sum());
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
  EXPECT_NEAR(a.stddev(), all.stddev(), 1e-12);

  Accumulator empty;
  a.merge(empty);  // merging an empty accumulator is a no-op
  EXPECT_EQ(a.count(), all.count());
}

TEST(Histogram, MergeAddsBucketwise) {
  Histogram a, b, all;
  for (std::uint64_t v = 1; v <= 500; ++v) {
    a.add(v);
    all.add(v);
  }
  for (std::uint64_t v = 501; v <= 1000; ++v) {
    b.add(v);
    all.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  for (std::size_t bkt = 0; bkt < 12; ++bkt) {
    EXPECT_EQ(a.bucket_count(bkt), all.bucket_count(bkt)) << "bucket " << bkt;
  }
  EXPECT_DOUBLE_EQ(a.quantile(0.9), all.quantile(0.9));
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(StatRegistry, HistogramSlot) {
  StatRegistry r;
  r.histogram("lat.wire").add(100);
  r.histogram("lat.wire").add(200);
  ASSERT_NE(r.find_histogram("lat.wire"), nullptr);
  EXPECT_EQ(r.find_histogram("lat.wire")->count(), 2u);
  EXPECT_EQ(r.find_histogram("absent"), nullptr);
  EXPECT_NE(r.to_string().find("lat.wire:"), std::string::npos);
}

TEST(StatRegistry, StatsJsonShape) {
  StatRegistry r;
  r.counter("net.pkts") = 12;
  r.accumulator("rel.rtt").add(3.5);
  for (std::uint64_t v = 1; v <= 100; ++v) r.histogram("lat.wire").add(v);

  std::string text = stats_json(r);
  auto parsed = json::try_parse(text);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->is_object());
  EXPECT_DOUBLE_EQ(parsed->at("counters").at("net.pkts").number, 12.0);
  EXPECT_DOUBLE_EQ(parsed->at("accumulators").at("rel.rtt").at("count").number,
                   1.0);
  const auto& h = parsed->at("histograms").at("lat.wire");
  EXPECT_DOUBLE_EQ(h.at("count").number, 100.0);
  for (const char* q : {"p50", "p90", "p99", "max"}) {
    ASSERT_TRUE(h.has(q)) << q;
  }
  EXPECT_LE(h.at("p50").number, h.at("p90").number);
  EXPECT_LE(h.at("p90").number, h.at("p99").number);
  EXPECT_LE(h.at("p99").number, h.at("max").number);
  EXPECT_TRUE(h.at("buckets").is_array());

  // Same contents serialize identically (maps iterate sorted).
  EXPECT_EQ(text, stats_json(r));
}

TEST(StatRegistry, CountersAndAccumulators) {
  StatRegistry r;
  ++r.counter("puts");
  ++r.counter("puts");
  r.accumulator("latency").add(3.0);
  EXPECT_EQ(r.counter_value("puts"), 2u);
  EXPECT_EQ(r.counter_value("absent"), 0u);
  EXPECT_EQ(r.accumulators().at("latency").count(), 1u);
  EXPECT_NE(r.to_string().find("puts = 2"), std::string::npos);
}

TEST(Rng, DeterministicWithSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform_int(0, 1000000), b.uniform_int(0, 1000000));
  }
}

TEST(Rng, UniformIntInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    auto v = r.uniform_int(5, 10);
    EXPECT_GE(v, 5);
    EXPECT_LE(v, 10);
  }
}

}  // namespace
}  // namespace gputn::sim
