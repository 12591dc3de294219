// The obs subsystem's own contract tests: striped counters and log2
// histograms stay exact under concurrent hammering (run under TSan in
// CI), bucket boundaries are bit-exact powers of two, and a JSON
// snapshot round-trips through the hand-written parser value-for-value.

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/snapshot.h"

namespace operb::obs {
namespace {

TEST(ObsCounterTest, SingleThreadedAddAndIncrement) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Increment();
  c.Add(41);
  EXPECT_EQ(c.Value(), 42u);
}

TEST(ObsCounterTest, ConcurrentHammeringLosesNothing) {
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 200'000;
  Counter c;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&c] {
      for (std::uint64_t j = 0; j < kPerThread; ++j) c.Increment();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.Value(), kThreads * kPerThread);
}

TEST(ObsGaugeTest, ConcurrentAddSubBalancesOut) {
  constexpr int kThreads = 8;
  constexpr int kRounds = 100'000;
  Gauge g;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&g] {
      for (int j = 0; j < kRounds; ++j) {
        g.Add(3);
        g.Sub(2);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(g.Value(), static_cast<std::int64_t>(kThreads) * kRounds);
}

TEST(ObsMaxGaugeTest, ConcurrentObserveKeepsTheMaximum) {
  constexpr int kThreads = 8;
  MaxGauge m;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&m, i] {
      for (int j = 0; j < 50'000; ++j) m.Observe(i * 50'000 + j);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(m.Value(), 8 * 50'000 - 1);
}

TEST(ObsHistogramTest, BucketBoundariesAreExactPowersOfTwo) {
  // Bucket 0 holds only the value 0; bucket b > 0 covers [2^(b-1), 2^b).
  EXPECT_EQ(HistogramSnapshot::BucketIndex(0), 0u);
  EXPECT_EQ(HistogramSnapshot::BucketIndex(1), 1u);
  for (std::size_t b = 1; b <= 63; ++b) {
    const std::uint64_t lo = std::uint64_t{1} << (b - 1);
    const std::uint64_t hi = (std::uint64_t{1} << b) - 1;
    EXPECT_EQ(HistogramSnapshot::BucketIndex(lo), b) << "b=" << b;
    EXPECT_EQ(HistogramSnapshot::BucketIndex(hi), b) << "b=" << b;
    EXPECT_EQ(HistogramSnapshot::BucketLowerBound(b), lo) << "b=" << b;
  }
  // The top bucket takes everything from 2^63 up to UINT64_MAX.
  EXPECT_EQ(HistogramSnapshot::BucketIndex(std::uint64_t{1} << 63), 64u);
  EXPECT_EQ(HistogramSnapshot::BucketIndex(~std::uint64_t{0}), 64u);
}

TEST(ObsHistogramTest, RecordPlacesValuesAndTracksCountSum) {
  LatencyHistogram h;
  h.Record(0);
  h.Record(1);
  h.Record(2);
  h.Record(3);
  h.Record(1024);
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 5u);
  EXPECT_EQ(s.sum, 0u + 1 + 2 + 3 + 1024);
  EXPECT_EQ(s.buckets[0], 1u);   // 0
  EXPECT_EQ(s.buckets[1], 1u);   // 1
  EXPECT_EQ(s.buckets[2], 2u);   // 2, 3
  EXPECT_EQ(s.buckets[11], 1u);  // 1024 = 2^10 -> bit_width 11
}

TEST(ObsHistogramTest, ConcurrentRecordLosesNothing) {
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 100'000;
  LatencyHistogram h;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&h] {
      for (std::uint64_t j = 0; j < kPerThread; ++j) h.Record(j & 1023);
    });
  }
  for (std::thread& t : threads) t.join();
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, kThreads * kPerThread);
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t b : s.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, s.count);
}

TEST(ObsHistogramTest, ApproxPercentileReturnsBucketUpperEdge) {
  LatencyHistogram h;
  for (int i = 0; i < 99; ++i) h.Record(3);   // bucket 2: [2, 4)
  h.Record(1'000'000);                        // bucket 20
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.ApproxPercentile(0.5), 3.0);    // upper edge of bucket 2
  EXPECT_EQ(s.ApproxPercentile(1.0), (1 << 20) - 1);
  // Merging doubles every bucket but moves no percentile.
  HistogramSnapshot merged = s;
  merged.MergeFrom(s);
  EXPECT_EQ(merged.count, 2 * s.count);
  EXPECT_EQ(merged.ApproxPercentile(0.5), 3.0);
}

TEST(ObsScopedTimerTest, RecordsOneSampleAndToleratesNull) {
  LatencyHistogram h;
  { ScopedTimer t(&h); }
  EXPECT_EQ(h.Count(), 1u);
  { ScopedTimer t(nullptr); }  // must be a harmless no-op
  EXPECT_EQ(h.Count(), 1u);
}

TEST(ObsRegistryTest, SameNameSameInstrumentAcrossKinds) {
  MetricsRegistry r;
  Counter* a = r.GetCounter("x");
  Counter* b = r.GetCounter("x");
  EXPECT_EQ(a, b);
  // Kinds are separate namespaces: a histogram "x" is a new instrument.
  EXPECT_NE(static_cast<void*>(a), static_cast<void*>(r.GetHistogram("x")));
  a->Add(7);
  const auto values = r.CounterValues();
  ASSERT_EQ(values.size(), 1u);
  EXPECT_EQ(values[0].first, "x");
  EXPECT_EQ(values[0].second, 7u);
}

TEST(ObsRegistryTest, ValueDumpsAreSortedByName) {
  MetricsRegistry r;
  r.GetCounter("zeta")->Add(1);
  r.GetCounter("alpha")->Add(2);
  r.GetCounter("mid")->Add(3);
  const auto values = r.CounterValues();
  ASSERT_EQ(values.size(), 3u);
  EXPECT_EQ(values[0].first, "alpha");
  EXPECT_EQ(values[1].first, "mid");
  EXPECT_EQ(values[2].first, "zeta");
}

TEST(ObsRegistryTest, ConcurrentGetOrCreateReturnsOnePointerPerName) {
  MetricsRegistry r;
  constexpr int kThreads = 8;
  std::vector<Counter*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&r, &seen, i] {
      Counter* c = r.GetCounter("contended");
      c->Increment();
      seen[static_cast<std::size_t>(i)] = c;
    });
  }
  for (std::thread& t : threads) t.join();
  for (int i = 1; i < kThreads; ++i) EXPECT_EQ(seen[0], seen[i]);
  EXPECT_EQ(seen[0]->Value(), static_cast<std::uint64_t>(kThreads));
}

TEST(ObsSnapshotTest, JsonRoundTripsValueForValue) {
  MetricsRegistry r;
  r.GetCounter("a.count")->Add(123);
  r.GetCounter("b.count")->Add(0);
  r.GetGauge("lvl")->Add(-5);
  r.GetMaxGauge("hwm")->Observe(77);
  LatencyHistogram* h = r.GetHistogram("lat_ns");
  h->Record(0);
  h->Record(9);
  h->Record(1 << 20);

  const SnapshotOptions options{&r};
  const std::string json = RenderSnapshotJson(options);
  const auto parsed = ParseSnapshotJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->schema, kSnapshotSchemaName);
  EXPECT_EQ(parsed->schema_version, 2);
  EXPECT_EQ(parsed->counters.at("a.count"), 123u);
  EXPECT_EQ(parsed->counters.at("b.count"), 0u);
  EXPECT_EQ(parsed->gauges.at("lvl"), -5);
  EXPECT_EQ(parsed->max_gauges.at("hwm"), 77);
  const ParsedSnapshot::Histogram& ph = parsed->histograms.at("lat_ns");
  EXPECT_EQ(ph.count, 3u);
  EXPECT_EQ(ph.sum, 0u + 9 + (1 << 20));
  ASSERT_EQ(ph.buckets.size(), HistogramSnapshot::kBuckets);
  EXPECT_EQ(ph.buckets[0], 1u);   // 0
  EXPECT_EQ(ph.buckets[4], 1u);   // 9 -> bit_width 4
  EXPECT_EQ(ph.buckets[21], 1u);  // 2^20 -> bit_width 21

  // The text rendering carries the same instruments (spot check).
  const std::string text = RenderSnapshotText(options);
  EXPECT_NE(text.find("a.count"), std::string::npos);
  EXPECT_NE(text.find("lat_ns"), std::string::npos);
}

TEST(ObsSnapshotTest, EmptyRegistryRoundTrips) {
  MetricsRegistry r;
  const auto parsed = ParseSnapshotJson(RenderSnapshotJson({&r}));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed->counters.empty());
  EXPECT_TRUE(parsed->histograms.empty());
}

TEST(ObsSnapshotTest, ParserRejectsMalformedDocuments) {
  MetricsRegistry r;
  r.GetCounter("c")->Add(1);
  const std::string good = RenderSnapshotJson({&r});

  // Truncation, trailing garbage, a wrong schema name and an unknown
  // top-level key must all surface as Corruption, never a crash.
  EXPECT_FALSE(ParseSnapshotJson(good.substr(0, good.size() / 2)).ok());
  EXPECT_FALSE(ParseSnapshotJson(good + "x").ok());
  std::string wrong_schema = good;
  wrong_schema.replace(wrong_schema.find("operb-metrics-snapshot"),
                       std::string("operb-metrics-snapshot").size(),
                       "some-other-schema-name\"..");
  EXPECT_FALSE(ParseSnapshotJson(wrong_schema).ok());
  EXPECT_FALSE(ParseSnapshotJson("{\"schema\": \"operb-metrics-snapshot\", "
                                 "\"unknown_key\": 1}")
                   .ok());
  // Schema v1's "trace" block is gone; a v1 document is rejected.
  std::string v1_trace = good;
  v1_trace.insert(v1_trace.rfind('}'),
                  ",\n  \"trace\": {\"recorded\": 0, \"dropped\": 0}\n");
  const auto v1 = ParseSnapshotJson(v1_trace);
  ASSERT_FALSE(v1.ok());
  EXPECT_NE(v1.status().message().find("unknown key 'trace'"),
            std::string::npos)
      << v1.status().ToString();
  EXPECT_FALSE(ParseSnapshotJson("").ok());
}

TEST(ObsSnapshotTest, WriteSnapshotJsonUsesInjectedWriter) {
  MetricsRegistry r;
  r.GetCounter("c")->Add(9);

  // Success path: the injected writer observes the rendered document.
  std::string written_path;
  std::string written_content;
  const Status ok = WriteSnapshotJson(
      "snapshot.json", {&r},
      [&](const std::string& path, std::string_view content) {
        written_path = path;
        written_content = std::string(content);
        return Status::OK();
      });
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(written_path, "snapshot.json");
  const auto parsed = ParseSnapshotJson(written_content);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->counters.at("c"), 9u);

  // Failure path: the writer's status comes back verbatim.
  const Status failed = WriteSnapshotJson(
      "snapshot.json", {&r},
      [](const std::string&, std::string_view) {
        return Status::IOError("disk on fire");
      });
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(failed.code(), StatusCode::kIOError);
}

TEST(ObsSnapshotTest, AtomicWriteFileRejectsUnwritablePath) {
  MetricsRegistry r;
  const Status s = WriteSnapshotJson(
      "/nonexistent-operb-dir/snapshot.json", {&r});
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIOError);
}

}  // namespace
}  // namespace operb::obs
