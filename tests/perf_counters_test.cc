// Tests for the perf_event_open wrapper (src/obs/perf_counters.h):
// graceful degradation when the syscall is denied (the common container
// case), multiplex-scaling math, per-job sinks and the obs::Stage probe,
// and the PerfReport summary. Real-PMU behavior is environment-dependent, so
// the deterministic tests inject failing open functions; the one test
// against the live syscall only asserts invariants that hold whether or
// not counters are available.

#include <cerrno>
#include <string>

#include <gtest/gtest.h>

#include "obs/perf_counters.h"
#include "obs/trace.h"

namespace alphasort {
namespace obs {
namespace {

int FailEperm(uint32_t, uint64_t) { return -EPERM; }
int FailEnosys(uint32_t, uint64_t) { return -ENOSYS; }
int FailEnoent(uint32_t, uint64_t) { return -ENOENT; }

TEST(PerfCounterGroupTest, EpermDegradesWithActionableReason) {
  PerfCounterGroup group(FailEperm);
  EXPECT_FALSE(group.available());
  EXPECT_EQ(group.available_events(), 0);
  // The reason must point the user at the fix, not just the errno.
  EXPECT_NE(group.unavailable_reason().find("perf_event_paranoid"),
            std::string::npos)
      << group.unavailable_reason();
}

TEST(PerfCounterGroupTest, EnosysDegrades) {
  PerfCounterGroup group(FailEnosys);
  EXPECT_FALSE(group.available());
  EXPECT_FALSE(group.unavailable_reason().empty());
  for (int e = 0; e < kNumPerfEvents; ++e) {
    EXPECT_FALSE(group.event_available(static_cast<PerfEvent>(e)));
  }
}

TEST(PerfCounterGroupTest, UnavailableGroupReadsZero) {
  PerfCounterGroup group(FailEnoent);
  const PerfReadingSet r = group.Read();
  for (const PerfReading& reading : r) {
    EXPECT_EQ(reading.value, 0u);
    EXPECT_EQ(reading.time_enabled, 0u);
  }
}

TEST(ComputeDeltaTest, UnavailableGroupYieldsUnavailableDelta) {
  PerfCounterGroup group(FailEperm);
  const PerfReadingSet before = group.Read();
  const PerfReadingSet after = group.Read();
  const PerfDelta d = ComputeDelta(group, before, after);
  EXPECT_FALSE(d.available);
  EXPECT_EQ(d.samples, 1u);
  EXPECT_FALSE(d.unavailable_reason.empty());
  EXPECT_EQ(d.cycles, 0.0);
}

TEST(PerfDeltaTest, MergeSumsCountsAndSamples) {
  PerfDelta a;
  a.available = true;
  a.samples = 1;
  a.cycles = 1000;
  a.instructions = 2000;
  a.cache_references = 100;
  a.cache_misses = 10;
  a.running_ratio = 1.0;
  PerfDelta b = a;
  b.cycles = 500;
  b.running_ratio = 0.5;
  a.Merge(b);
  EXPECT_TRUE(a.available);
  EXPECT_EQ(a.samples, 2u);
  EXPECT_DOUBLE_EQ(a.cycles, 1500.0);
  EXPECT_DOUBLE_EQ(a.instructions, 4000.0);
  // The merged ratio keeps the worst case: a region that was heavily
  // multiplexed anywhere should say so.
  EXPECT_DOUBLE_EQ(a.running_ratio, 0.5);
}

TEST(PerfDeltaTest, MergeUnavailableIntoAvailableKeepsAvailable) {
  PerfDelta a;
  a.available = true;
  a.samples = 1;
  a.cycles = 100;
  PerfDelta b;
  b.available = false;
  b.samples = 1;
  b.unavailable_reason = "denied";
  a.Merge(b);
  EXPECT_TRUE(a.available);
  EXPECT_EQ(a.samples, 2u);
  EXPECT_DOUBLE_EQ(a.cycles, 100.0);
}

TEST(PerfDeltaTest, DerivedRatios) {
  PerfDelta d;
  d.cycles = 1000;
  d.instructions = 1500;
  d.cache_references = 200;
  d.cache_misses = 50;
  EXPECT_DOUBLE_EQ(d.Ipc(), 1.5);
  EXPECT_DOUBLE_EQ(d.CacheMissRate(), 0.25);
  PerfDelta zero;
  EXPECT_EQ(zero.Ipc(), 0.0);
  EXPECT_EQ(zero.CacheMissRate(), 0.0);
}

TEST(PerfAccumulatorTest, AddMergesByRegion) {
  PerfAccumulator acc;
  PerfDelta d;
  d.available = true;
  d.samples = 1;
  d.cycles = 10;
  acc.Add("quicksort", d);
  acc.Add("quicksort", d);
  acc.Add("merge", d);
  const auto regions = acc.Regions();
  ASSERT_EQ(regions.size(), 2u);
  EXPECT_EQ(regions.at("quicksort").samples, 2u);
  EXPECT_DOUBLE_EQ(regions.at("quicksort").cycles, 20.0);
  EXPECT_EQ(regions.at("merge").samples, 1u);
}

TEST(StageTest, ChargesItsSinkAndTracesUnderOneName) {
  TraceRecorder recorder;
  recorder.Install();
  PerfAccumulator sink;
  {
    Stage stage(&sink, "test.stage", "cpu");
    volatile uint64_t spin = 0;
    for (uint64_t i = 0; i < 100000; ++i) spin = spin + i;
  }
  TraceRecorder::Uninstall();
  const auto regions = sink.Regions();
  ASSERT_EQ(regions.count("test.stage"), 1u);
  const PerfDelta& d = regions.at("test.stage");
  EXPECT_EQ(d.samples, 1u);
  // Whether counters are live depends on the host (a locked-down
  // container reports unavailable); both outcomes must be coherent.
  if (d.available) {
    EXPECT_GT(d.cycles + d.instructions, 0.0);
  } else {
    EXPECT_FALSE(d.unavailable_reason.empty());
  }
  // The same name keys the trace span around the same code.
  EXPECT_NE(recorder.ToChromeJson().find("\"name\":\"test.stage\""),
            std::string::npos);
}

TEST(PerfReportTest, UnavailableReportExplainsItself) {
  PerfReport report;
  report.attempted = true;
  PerfDelta d;
  d.available = false;
  d.samples = 3;
  d.unavailable_reason = "perf_event_open denied (EPERM/EACCES)";
  report.regions["total"] = d;
  EXPECT_FALSE(report.AnyAvailable());
  EXPECT_EQ(report.UnavailableReason(),
            "perf_event_open denied (EPERM/EACCES)");
  EXPECT_NE(report.ToString().find("unavailable"), std::string::npos);
}

TEST(PerfReportTest, AvailableReportListsRegions) {
  PerfReport report;
  report.attempted = true;
  PerfDelta d;
  d.available = true;
  d.samples = 2;
  d.cycles = 1e6;
  d.instructions = 2e6;
  d.cache_references = 1e4;
  d.cache_misses = 1e3;
  report.regions["quicksort"] = d;
  EXPECT_TRUE(report.AnyAvailable());
  EXPECT_TRUE(report.UnavailableReason().empty());
  EXPECT_NE(report.ToString().find("quicksort"), std::string::npos);
}

}  // namespace
}  // namespace obs
}  // namespace alphasort
