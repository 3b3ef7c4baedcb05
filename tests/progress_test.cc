// Tests for live job progress (src/obs/progress.h): the overlap-model
// work plan, monotonic clamped fractions, terminal states, registry
// lifecycle, and the registry's bounded list of kept finished jobs.

#include "obs/progress.h"

#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace alphasort {
namespace obs {
namespace {

TEST(ProgressPlanTest, OnePassPlanIsTwiceTheInput) {
  JobProgressTracker t;
  t.Start(1);
  t.SetPlan(/*bytes_total=*/1000, /*passes=*/1);
  const JobProgress p = t.Snapshot();
  EXPECT_EQ(p.bytes_total, 1000u);
  EXPECT_EQ(p.work_total, 2000u);
}

TEST(ProgressPlanTest, TwoPassPlanIsThriceTheInput) {
  JobProgressTracker t;
  t.Start(1);
  t.SetPlan(1000, /*passes=*/2);
  EXPECT_EQ(t.Snapshot().work_total, 3000u);
}

TEST(ProgressTrackerTest, SortedBytesAddNoWorkOfTheirOwn) {
  // The §7 overlap model: QuickSort rides under the read stream, so
  // sorted bytes are display-only — work is read + spill + merge.
  JobProgressTracker t;
  t.Start(1);
  t.SetPlan(1000, 1);
  t.AddRead(400);
  t.AddSorted(400);
  const JobProgress p = t.Snapshot();
  EXPECT_EQ(p.bytes_read, 400u);
  EXPECT_EQ(p.bytes_sorted, 400u);
  EXPECT_EQ(p.work_done, 400u);
  EXPECT_DOUBLE_EQ(p.fraction, 0.2);
}

TEST(ProgressTrackerTest, FractionIsMonotonicUnderInterleavedUpdates) {
  JobProgressTracker t;
  t.Start(1);
  t.SetPlan(10000, 2);
  double last = 0;
  for (int i = 0; i < 40; ++i) {
    switch (i % 4) {
      case 0: t.AddRead(500); break;
      case 1: t.AddSorted(500); break;
      case 2: t.AddSpilled(400); break;
      case 3: t.AddMerged(600); break;
    }
    const double f = t.Snapshot().fraction;
    EXPECT_GE(f, last);
    last = f;
  }
}

TEST(ProgressTrackerTest, FractionClampsBelowOneUntilDone) {
  // A cascade merge re-spills intermediate levels, so work_done can
  // overshoot the plan; only kDone may report 1.0.
  JobProgressTracker t;
  t.Start(1);
  t.SetPlan(1000, 2);
  t.AddRead(1000);
  t.AddSpilled(1000);
  t.AddMerged(5000);  // cascade overshoot
  EXPECT_DOUBLE_EQ(t.Snapshot().fraction, 0.999);
  t.SetPhase(SortPhase::kDone);
  EXPECT_DOUBLE_EQ(t.Snapshot().fraction, 1.0);
}

TEST(ProgressTrackerTest, UnknownTotalEstimatesFromBytesRead) {
  // Streamed ingest: no byte total up front. The tracker scales a
  // running work estimate from bytes_read so snapshots still move, and
  // never reports done until the phase says so.
  JobProgressTracker t;
  t.Start(1);
  t.SetPlanUnknown(/*passes_hint=*/1);
  {
    const JobProgress p = t.Snapshot();
    EXPECT_FALSE(p.total_known);
    EXPECT_EQ(uint64_t{0}, p.work_total);
    EXPECT_DOUBLE_EQ(p.fraction, 0.0);
  }
  t.AddRead(1000);
  t.AddSorted(1000);
  {
    const JobProgress p = t.Snapshot();
    EXPECT_FALSE(p.total_known);
    EXPECT_EQ(uint64_t{1000}, p.bytes_total) << "estimate = bytes read";
    EXPECT_GT(p.work_total, uint64_t{0});
    // Everything read has been sorted, yet the stream may keep going:
    // the fraction must stay clamped below done.
    EXPECT_LE(p.fraction, 0.999);
  }
  // End of input: the adaptive pipeline sets the real plan.
  t.SetPlan(1000, /*passes=*/1);
  t.SetPhase(SortPhase::kDone);
  const JobProgress p = t.Snapshot();
  EXPECT_TRUE(p.total_known);
  EXPECT_DOUBLE_EQ(p.fraction, 1.0);
}

TEST(ProgressTrackerTest, EtaExtrapolatesRemainingWork) {
  JobProgressTracker t;
  t.Start(1);
  t.SetPlan(1 << 20, 1);
  t.AddRead(1 << 19);
  const JobProgress p = t.Snapshot();
  EXPECT_GT(p.elapsed_s, 0.0);
  EXPECT_GT(p.bytes_per_s, 0.0);
  EXPECT_GT(p.eta_s, 0.0);
  t.SetPhase(SortPhase::kDone);
  EXPECT_DOUBLE_EQ(t.Snapshot().eta_s, 0.0);
}

TEST(ProgressTrackerTest, FailedJobReportsNoEta) {
  JobProgressTracker t;
  t.Start(1);
  t.SetPlan(1000, 1);
  t.AddRead(500);
  t.SetPhase(SortPhase::kFailed);
  const JobProgress p = t.Snapshot();
  EXPECT_EQ(p.phase, SortPhase::kFailed);
  EXPECT_DOUBLE_EQ(p.eta_s, 0.0);
  EXPECT_LT(p.fraction, 1.0);
}

TEST(ProgressPhaseTest, PhaseNamesAreStable) {
  EXPECT_STREQ(SortPhaseName(SortPhase::kQueued), "queued");
  EXPECT_STREQ(SortPhaseName(SortPhase::kRead), "read");
  EXPECT_STREQ(SortPhaseName(SortPhase::kLastRun), "last_run");
  EXPECT_STREQ(SortPhaseName(SortPhase::kMerge), "merge");
  EXPECT_STREQ(SortPhaseName(SortPhase::kDone), "done");
  EXPECT_STREQ(SortPhaseName(SortPhase::kFailed), "failed");
}

TEST(ProgressRegistryTest, SnapshotIsSortedByJobId) {
  JobProgressTracker a, b, c;
  a.Start(30);
  b.Start(10);
  c.Start(20);
  ScopedProgressRegistration ra(&a);
  ScopedProgressRegistration rb(&b);
  ScopedProgressRegistration rc(&c);
  const std::vector<JobProgress> jobs =
      ProgressRegistry::Global()->Snapshot();
  ASSERT_GE(jobs.size(), 3u);
  uint64_t last = 0;
  bool saw10 = false, saw20 = false, saw30 = false;
  for (const JobProgress& p : jobs) {
    EXPECT_GE(p.job_id, last);
    last = p.job_id;
    saw10 |= p.job_id == 10;
    saw20 |= p.job_id == 20;
    saw30 |= p.job_id == 30;
  }
  EXPECT_TRUE(saw10 && saw20 && saw30);
}

TEST(ProgressRegistryTest, ScopedRegistrationUnregistersOnExit) {
  JobProgressTracker t;
  t.Start(777);
  {
    ScopedProgressRegistration reg(&t);
    bool found = false;
    for (const JobProgress& p : ProgressRegistry::Global()->Snapshot()) {
      found |= p.job_id == 777;
    }
    EXPECT_TRUE(found);
  }
  for (const JobProgress& p : ProgressRegistry::Global()->Snapshot()) {
    EXPECT_NE(p.job_id, 777u);
  }
}

// The entries of `jobs` with id `job_id`.
std::vector<JobProgress> WithId(const std::vector<JobProgress>& jobs,
                                uint64_t job_id) {
  std::vector<JobProgress> out;
  for (const JobProgress& p : jobs) {
    if (p.job_id == job_id) out.push_back(p);
  }
  return out;
}

TEST(ProgressKeptJobTest, FinishedJobKeepsPhaseAndFraction) {
  auto* registry = ProgressRegistry::Global();
  JobProgressTracker t;
  t.Start(91001, /*trace_id=*/4242);
  t.SetPlan(1000, 1);
  t.AddRead(1000);
  t.AddMerged(500);
  {
    ScopedProgressRegistration reg(&t);
    const std::vector<JobProgress> live =
        WithId(registry->SnapshotWithFinished(), 91001);
    ASSERT_EQ(live.size(), 1u);
    EXPECT_DOUBLE_EQ(live[0].fraction, 0.75);
    t.SetPhase(SortPhase::kDone);
  }
  // Snapshot() stays live-only; the final state lives on in what the
  // exposition and the flight record render.
  EXPECT_TRUE(WithId(registry->Snapshot(), 91001).empty());
  const std::vector<JobProgress> kept =
      WithId(registry->SnapshotWithFinished(), 91001);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].phase, SortPhase::kDone);
  EXPECT_DOUBLE_EQ(kept[0].fraction, 1.0);
  EXPECT_EQ(kept[0].trace_id, 4242u);
}

TEST(ProgressKeptJobTest, KeepsTheLastJobsToEndFailedOnesIncluded) {
  constexpr uint64_t kBase = 92000;
  constexpr uint64_t kJobs = ProgressRegistry::kKeptJobs + 8;
  for (uint64_t i = 0; i < kJobs; ++i) {
    JobProgressTracker t;
    t.Start(kBase + i);
    ScopedProgressRegistration reg(&t);
    t.SetPhase(i % 2 == 0 ? SortPhase::kDone : SortPhase::kFailed);
  }
  // Nothing is live, so every entry is a kept one.
  const std::vector<JobProgress> kept =
      ProgressRegistry::Global()->SnapshotWithFinished();
  ASSERT_EQ(kept.size(), ProgressRegistry::kKeptJobs);
  for (size_t k = 0; k < kept.size(); ++k) {
    const uint64_t i = kJobs - ProgressRegistry::kKeptJobs + k;
    EXPECT_EQ(kept[k].job_id, kBase + i);
    EXPECT_EQ(kept[k].phase,
              i % 2 == 0 ? SortPhase::kDone : SortPhase::kFailed);
  }
}

}  // namespace
}  // namespace obs
}  // namespace alphasort
