// Unit tests for the observability primitives (src/obs/): histogram
// bucket boundaries and percentile math, the metrics registry, the trace
// recorder's ring semantics, and the Chrome trace JSON round trip.

#include <algorithm>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace alphasort {
namespace obs {
namespace {

// ------------------------------------------------------------------ //
// Histogram buckets

TEST(HistogramTest, BucketBoundaries) {
  // Bucket 0 = {0}, bucket 1 = {1}, bucket b = [2^(b-1), 2^b).
  EXPECT_EQ(Histogram::BucketFor(0), 0u);
  EXPECT_EQ(Histogram::BucketFor(1), 1u);
  EXPECT_EQ(Histogram::BucketFor(2), 2u);
  EXPECT_EQ(Histogram::BucketFor(3), 2u);
  EXPECT_EQ(Histogram::BucketFor(4), 3u);
  EXPECT_EQ(Histogram::BucketFor(7), 3u);
  EXPECT_EQ(Histogram::BucketFor(8), 4u);
  EXPECT_EQ(Histogram::BucketFor(1023), 10u);
  EXPECT_EQ(Histogram::BucketFor(1024), 11u);
  // The last bucket absorbs everything from 2^62 up.
  EXPECT_EQ(Histogram::BucketFor(uint64_t{1} << 62), 63u);
  EXPECT_EQ(Histogram::BucketFor(UINT64_MAX), 63u);
}

TEST(HistogramTest, BoundsRoundTrip) {
  for (size_t b = 0; b < Histogram::kNumBuckets; ++b) {
    const uint64_t lo = Histogram::LowerBound(b);
    EXPECT_EQ(Histogram::BucketFor(lo), b) << "bucket " << b;
    const uint64_t hi = Histogram::UpperBound(b);
    EXPECT_GT(hi, lo) << "bucket " << b;
    if (b + 1 < Histogram::kNumBuckets) {
      // Buckets tile: one past this bucket's range starts the next.
      EXPECT_EQ(Histogram::BucketFor(hi - 1), b) << "bucket " << b;
      EXPECT_EQ(hi, Histogram::LowerBound(b + 1)) << "bucket " << b;
    } else {
      EXPECT_EQ(hi, UINT64_MAX);
    }
  }
}

TEST(HistogramTest, SnapshotAggregates) {
  Histogram h;
  h.Record(0);
  h.Record(1);
  h.Record(5);
  h.Record(5);
  h.Record(1000);
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 5u);
  EXPECT_EQ(s.sum, 1011u);
  EXPECT_EQ(s.max, 1000u);
  EXPECT_DOUBLE_EQ(s.Mean(), 1011.0 / 5);
  EXPECT_EQ(s.buckets[0], 1u);
  EXPECT_EQ(s.buckets[1], 1u);
  EXPECT_EQ(s.buckets[Histogram::BucketFor(5)], 2u);
  EXPECT_EQ(s.buckets[Histogram::BucketFor(1000)], 1u);
}

TEST(HistogramTest, PercentileOfEmptyIsZero) {
  const HistogramSnapshot s = Histogram().Snapshot();
  EXPECT_EQ(s.Percentile(50), 0.0);
  EXPECT_EQ(s.Percentile(99), 0.0);
  EXPECT_EQ(s.Mean(), 0.0);
}

TEST(HistogramTest, PercentilesOfSingleValueBucketsAreExact) {
  // {0} and {1} are single-value buckets: no interpolation error.
  Histogram h;
  for (int i = 0; i < 10; ++i) h.Record(0);
  EXPECT_EQ(h.Snapshot().Percentile(50), 0.0);
  EXPECT_EQ(h.Snapshot().Percentile(99), 0.0);

  Histogram ones;
  for (int i = 0; i < 10; ++i) ones.Record(1);
  EXPECT_EQ(ones.Snapshot().Percentile(1), 1.0);
  EXPECT_EQ(ones.Snapshot().Percentile(100), 1.0);
}

TEST(HistogramTest, PercentileRankSelection) {
  // Samples {0, 0, 1, 1}: ranks 1-2 are 0, ranks 3-4 are 1.
  Histogram h;
  h.Record(0);
  h.Record(0);
  h.Record(1);
  h.Record(1);
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.Percentile(25), 0.0);
  EXPECT_EQ(s.Percentile(50), 0.0);
  EXPECT_EQ(s.Percentile(75), 1.0);
  EXPECT_EQ(s.Percentile(100), 1.0);
}

TEST(HistogramTest, PercentileStaysWithinBucketAndMax) {
  // 100 samples of 10 live in bucket [8, 16); every percentile must land
  // in [8, 10] (clamped to the observed max).
  Histogram h;
  for (int i = 0; i < 100; ++i) h.Record(10);
  const HistogramSnapshot s = h.Snapshot();
  for (double p : {1.0, 50.0, 95.0, 99.0, 100.0}) {
    EXPECT_GE(s.Percentile(p), 8.0) << "p" << p;
    EXPECT_LE(s.Percentile(p), 10.0) << "p" << p;
  }
}

TEST(HistogramTest, PercentileOrderingAcrossBuckets) {
  // 90 small samples and 10 large ones: p50 stays small, p95+ jumps.
  Histogram h;
  for (int i = 0; i < 90; ++i) h.Record(4);
  for (int i = 0; i < 10; ++i) h.Record(5000);
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_LT(s.Percentile(50), 8.0);
  EXPECT_GE(s.Percentile(95), 4096.0);
  EXPECT_LE(s.Percentile(99), 5000.0);
  EXPECT_LE(s.Percentile(50), s.Percentile(95));
  EXPECT_LE(s.Percentile(95), s.Percentile(99));
}

TEST(HistogramTest, MergeSumsBuckets) {
  Histogram a, b;
  a.Record(3);
  a.Record(100);
  b.Record(3);
  b.Record(7000);
  HistogramSnapshot s = a.Snapshot();
  s.Merge(b.Snapshot());
  EXPECT_EQ(s.count, 4u);
  EXPECT_EQ(s.sum, 3u + 100 + 3 + 7000);
  EXPECT_EQ(s.max, 7000u);
  EXPECT_EQ(s.buckets[Histogram::BucketFor(3)], 2u);
}

TEST(HistogramTest, ResetZeroes) {
  Histogram h;
  h.Record(42);
  h.Reset();
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.sum, 0u);
  EXPECT_EQ(s.max, 0u);
}

TEST(HistogramTest, ConcurrentRecordsAllLand) {
  Histogram h;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < kPerThread; ++i) h.Record(7);
    });
  }
  for (auto& th : threads) th.join();
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(s.sum, uint64_t{kThreads} * kPerThread * 7);
  EXPECT_EQ(s.max, 7u);
}

// ------------------------------------------------------------------ //
// Counters and registry

TEST(CounterTest, ConcurrentAddsSum) {
  Counter c;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.Add();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.Value(), uint64_t{kThreads} * kPerThread);
  c.Reset();
  EXPECT_EQ(c.Value(), 0u);
}

TEST(MetricsRegistryTest, PointersAreStablePerName) {
  MetricsRegistry reg;
  Counter* c1 = reg.GetCounter("x");
  Counter* c2 = reg.GetCounter("x");
  EXPECT_EQ(c1, c2);
  EXPECT_NE(c1, reg.GetCounter("y"));
  Histogram* h1 = reg.GetHistogram("x");  // separate namespace
  EXPECT_EQ(h1, reg.GetHistogram("x"));
}

TEST(MetricsRegistryTest, ToStringOmitsZeroMetrics) {
  MetricsRegistry reg;
  reg.GetCounter("silent");
  reg.GetCounter("loud")->Add(3);
  reg.GetHistogram("empty_hist");
  reg.GetHistogram("busy_hist")->Record(12);
  const std::string dump = reg.ToString();
  EXPECT_NE(dump.find("loud"), std::string::npos) << dump;
  EXPECT_NE(dump.find("busy_hist"), std::string::npos) << dump;
  EXPECT_EQ(dump.find("silent"), std::string::npos) << dump;
  EXPECT_EQ(dump.find("empty_hist"), std::string::npos) << dump;
}

TEST(MetricsRegistryTest, ResetAllKeepsPointersValid) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("c");
  Histogram* h = reg.GetHistogram("h");
  c->Add(5);
  h->Record(5);
  reg.ResetAll();
  EXPECT_EQ(c->Value(), 0u);
  EXPECT_EQ(h->Snapshot().count, 0u);
  c->Add(1);  // still usable after reset
  EXPECT_EQ(c->Value(), 1u);
}

// ------------------------------------------------------------------ //
// Registry snapshots and per-run deltas

TEST(RegistrySnapshotTest, DeltaScopesARun) {
  // The registry is process-global and cumulative; the snapshot delta is
  // what lets back-to-back sorts each report only their own events.
  MetricsRegistry reg;
  reg.GetCounter("ops")->Add(10);
  reg.GetHistogram("lat")->Record(100);
  const RegistrySnapshot before = reg.Snapshot();
  reg.GetCounter("ops")->Add(7);
  reg.GetCounter("fresh")->Add(2);
  reg.GetHistogram("lat")->Record(200);
  reg.GetHistogram("lat")->Record(300);
  const RegistrySnapshot delta = reg.Snapshot().DeltaSince(before);
  EXPECT_EQ(delta.counters.at("ops"), 7u);
  EXPECT_EQ(delta.counters.at("fresh"), 2u);
  EXPECT_EQ(delta.histograms.at("lat").count, 2u);
  EXPECT_EQ(delta.histograms.at("lat").sum, 500u);
}

TEST(RegistrySnapshotTest, IdenticalSnapshotsDeltaToEmpty) {
  MetricsRegistry reg;
  reg.GetCounter("ops")->Add(5);
  reg.GetHistogram("lat")->Record(10);
  const RegistrySnapshot snap = reg.Snapshot();
  const RegistrySnapshot delta = reg.Snapshot().DeltaSince(snap);
  EXPECT_TRUE(delta.Empty());
  EXPECT_FALSE(snap.Empty());
}

TEST(RegistrySnapshotTest, ToStringOmitsZeroEntries) {
  MetricsRegistry reg;
  reg.GetCounter("quiet")->Add(3);
  const RegistrySnapshot before = reg.Snapshot();
  reg.GetCounter("active")->Add(1);
  const RegistrySnapshot delta = reg.Snapshot().DeltaSince(before);
  const std::string dump = delta.ToString();
  EXPECT_NE(dump.find("active"), std::string::npos) << dump;
  EXPECT_EQ(dump.find("quiet"), std::string::npos) << dump;
}

TEST(RegistrySnapshotTest, DeltaMaxIsUpperBound) {
  // A histogram's max cannot be un-merged; the delta keeps the later
  // absolute max, an upper bound for the interval.
  MetricsRegistry reg;
  reg.GetHistogram("lat")->Record(1000);
  const RegistrySnapshot before = reg.Snapshot();
  reg.GetHistogram("lat")->Record(10);
  const RegistrySnapshot delta = reg.Snapshot().DeltaSince(before);
  EXPECT_EQ(delta.histograms.at("lat").count, 1u);
  EXPECT_EQ(delta.histograms.at("lat").max, 1000u);
}

// ------------------------------------------------------------------ //
// Trace recorder

// Every trace test uninstalls on exit so the global sink never leaks
// into other tests.
class TraceTest : public ::testing::Test {
 protected:
  void TearDown() override { TraceRecorder::Uninstall(); }
};

TEST_F(TraceTest, NoRecorderMeansNoCrashAndNoCost) {
  ASSERT_EQ(TraceRecorder::Current(), nullptr);
  { TraceSpan span("orphan"); }
  TraceCounter("orphan.counter", 7);  // both are no-ops
}

TEST_F(TraceTest, SpanRecordsCompleteEvent) {
  TraceRecorder rec;
  rec.Install();
  { TraceSpan span("unit.work", "test"); }
  TraceRecorder::Uninstall();
  EXPECT_EQ(rec.size(), 1u);
  EXPECT_EQ(rec.dropped(), 0u);
  const std::string json = rec.ToChromeJson();
  EXPECT_TRUE(ValidateChromeTraceJson(json).ok());
  EXPECT_NE(json.find("\"name\":\"unit.work\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos) << json;
}

TEST_F(TraceTest, InstantAndCounterEvents) {
  TraceRecorder rec;
  rec.Install();
  rec.AddInstant("tick", "test");
  TraceCounter("depth", 42);
  TraceRecorder::Uninstall();
  EXPECT_EQ(rec.size(), 2u);
  const std::string json = rec.ToChromeJson();
  ASSERT_TRUE(ValidateChromeTraceJson(json).ok());
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"value\":42"), std::string::npos) << json;
}

TEST_F(TraceTest, RingWrapsAndCountsDropped) {
  TraceRecorder rec(/*capacity=*/8);
  rec.Install();
  for (int i = 0; i < 20; ++i) rec.AddInstant("e", "test");
  TraceRecorder::Uninstall();
  EXPECT_EQ(rec.size(), 8u);
  EXPECT_EQ(rec.dropped(), 12u);
  EXPECT_TRUE(ValidateChromeTraceJson(rec.ToChromeJson()).ok());
}

TEST_F(TraceTest, EventsFromOtherThreadsCarryDistinctTids) {
  TraceRecorder rec;
  rec.Install();
  rec.AddInstant("main", "test");
  std::thread([] { TraceSpan span("worker.work", "test"); }).join();
  TraceRecorder::Uninstall();
  ASSERT_EQ(rec.size(), 2u);
  const std::string json = rec.ToChromeJson();
  ASSERT_TRUE(ValidateChromeTraceJson(json).ok());

  // Collect the two "tid" values; they must differ.
  std::set<std::string> tids;
  size_t pos = 0;
  while ((pos = json.find("\"tid\":", pos)) != std::string::npos) {
    pos += 6;
    size_t end = pos;
    while (end < json.size() && isdigit(json[end])) ++end;
    tids.insert(json.substr(pos, end - pos));
    pos = end;
  }
  EXPECT_EQ(tids.size(), 2u) << json;
}

TEST_F(TraceTest, TimestampsAreSortedInExport) {
  TraceRecorder rec(/*capacity=*/4);
  rec.Install();
  // Overfill so the ring's physical order differs from time order.
  for (int i = 0; i < 7; ++i) rec.AddInstant("e", "test");
  TraceRecorder::Uninstall();
  const std::string json = rec.ToChromeJson();
  ASSERT_TRUE(ValidateChromeTraceJson(json).ok());
  std::vector<uint64_t> ts;
  size_t pos = 0;
  while ((pos = json.find("\"ts\":", pos)) != std::string::npos) {
    pos += 5;
    ts.push_back(strtoull(json.c_str() + pos, nullptr, 10));
  }
  EXPECT_TRUE(std::is_sorted(ts.begin(), ts.end()));
}

TEST_F(TraceTest, NamesAreJsonEscaped) {
  TraceRecorder rec;
  rec.Install();
  rec.AddInstant("quote\"back\\slash", "test");
  TraceRecorder::Uninstall();
  const std::string json = rec.ToChromeJson();
  EXPECT_TRUE(ValidateChromeTraceJson(json).ok())
      << ValidateChromeTraceJson(json).ToString() << "\n"
      << json;
  EXPECT_NE(json.find("quote\\\"back\\\\slash"), std::string::npos) << json;
}

// ------------------------------------------------------------------ //
// Trace JSON validator (negative cases)

TEST(TraceJsonValidatorTest, AcceptsBothContainerForms) {
  const std::string ev =
      "{\"name\":\"a\",\"ph\":\"X\",\"ts\":0,\"dur\":1,\"pid\":1,"
      "\"tid\":0}";
  EXPECT_TRUE(ValidateChromeTraceJson("[" + ev + "]").ok());
  EXPECT_TRUE(
      ValidateChromeTraceJson("{\"traceEvents\":[" + ev + "]}").ok());
  EXPECT_TRUE(ValidateChromeTraceJson("{\"traceEvents\":[]}").ok());
}

TEST(TraceJsonValidatorTest, RejectsMalformedInput) {
  EXPECT_FALSE(ValidateChromeTraceJson("").ok());
  EXPECT_FALSE(ValidateChromeTraceJson("not json").ok());
  EXPECT_FALSE(ValidateChromeTraceJson("{\"traceEvents\":[}").ok());
  EXPECT_FALSE(ValidateChromeTraceJson("[{]").ok());
  // Valid JSON but no traceEvents array anywhere.
  EXPECT_FALSE(ValidateChromeTraceJson("{\"other\":1}").ok());
  // Trailing garbage after a valid document.
  EXPECT_FALSE(ValidateChromeTraceJson("{\"traceEvents\":[]} x").ok());
  // Unterminated string and bad escape.
  EXPECT_FALSE(ValidateChromeTraceJson("{\"traceEvents").ok());
  EXPECT_FALSE(
      ValidateChromeTraceJson("{\"traceEvents\":[{\"name\":\"\\q\"}]}")
          .ok());
}

TEST(TraceJsonValidatorTest, RejectsEventsMissingRequiredFields) {
  // An event without "ph" (and the other required keys checked one by
  // one) must fail even though the JSON grammar is fine.
  EXPECT_FALSE(
      ValidateChromeTraceJson("{\"traceEvents\":[{\"name\":\"a\"}]}").ok());
  const char* complete =
      "\"name\":\"a\",\"ph\":\"X\",\"ts\":0,\"pid\":1,\"tid\":0";
  EXPECT_TRUE(
      ValidateChromeTraceJson("{\"traceEvents\":[{" + std::string(complete) +
                              "}]}")
          .ok());
  for (const char* drop : {"name", "ph", "ts", "pid", "tid"}) {
    std::string fields;
    for (const char* k : {"name", "ph", "ts", "pid", "tid"}) {
      if (std::string(k) == drop) continue;
      if (!fields.empty()) fields += ",";
      fields += "\"" + std::string(k) + "\":1";
    }
    EXPECT_FALSE(
        ValidateChromeTraceJson("{\"traceEvents\":[{" + fields + "}]}").ok())
        << "dropped " << drop;
  }
}

// Numbers follow the JSON grammar: a browser's JSON.parse rejects a
// trace with "ts":.5 or "ts":01, so the validator must too.
TEST(TraceJsonValidatorTest, RejectsNumbersJsonForbids) {
  for (const char* ts : {".5", "01"}) {
    const std::string trace =
        std::string("{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"X\","
                    "\"ts\":") +
        ts + ",\"pid\":1,\"tid\":0}]}";
    EXPECT_FALSE(ValidateChromeTraceJson(trace).ok()) << trace;
  }
}

TEST(ThreadIdTest, DenseAndStable) {
  const int mine = CurrentThreadId();
  EXPECT_EQ(CurrentThreadId(), mine);  // stable within a thread
  int other = -1;
  std::thread([&other] { other = CurrentThreadId(); }).join();
  EXPECT_NE(other, mine);
  EXPECT_GE(other, 0);
}

}  // namespace
}  // namespace obs
}  // namespace alphasort
