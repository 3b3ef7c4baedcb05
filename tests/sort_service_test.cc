// Tests for svc::SortService: admission against a global memory budget,
// bounded-queue backpressure, cancellation of queued and running jobs,
// per-job deadlines, down-negotiation, and scratch hygiene. Everything
// runs against an in-memory Env; the slow-IO tests interpose a
// ThrottledEnv so "running" is an observable window, not a race.

#include "svc/sort_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "benchlib/datamation.h"
#include "common/table.h"
#include "core/record_source.h"
#include "io/env_stack.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "tests/test_flight.h"

namespace alphasort {
namespace {

[[maybe_unused]] const bool kFlightInstalled =
    test_flight::Install("sort_service_test");

constexpr uint64_t kMB = 1ull << 20;

SortOptions JobOptions(int index, uint64_t memory_budget) {
  SortOptions opts;
  opts.input_path = StrFormat("in_%02d.dat", index);
  opts.output_path = StrFormat("out_%02d.dat", index);
  opts.memory_budget = memory_budget;
  opts.io_chunk_bytes = 64 * 1024;
  opts.run_size_records = 5000;
  opts.scratch_path = "scratch";
  return opts;
}

Status MakeInput(Env* env, int index, uint64_t records) {
  InputSpec spec;
  spec.path = StrFormat("in_%02d.dat", index);
  spec.num_records = records;
  spec.seed = 100 + static_cast<uint64_t>(index);
  return CreateInputFile(env, spec);
}

// Polls until `job` leaves the queue (or is done, if it raced ahead).
void WaitUntilRunning(SortJob* job) {
  while (job->state() == SortJobState::kQueued) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

void ExpectNoScratch(Env* env) {
  std::vector<std::string> stray;
  ASSERT_TRUE(env->ListFiles("scratch", &stray).ok());
  EXPECT_TRUE(stray.empty())
      << stray.size() << " scratch file(s) leaked, first: " << stray[0];
}

// The ISSUE acceptance stress: 8 concurrent jobs whose summed budgets
// (8 x 16 MB) far exceed the 32 MB service budget. Every job completes
// with validated sorted output and the peak of admitted tickets never
// exceeds the budget.
TEST(SortServiceTest, OversubscribedBudgetAllJobsComplete) {
  std::unique_ptr<Env> mem = NewMemEnv();
  const int kJobs = 8;
  const uint64_t kRecords = 20000;
  for (int j = 0; j < kJobs; ++j) {
    ASSERT_TRUE(MakeInput(mem.get(), j, kRecords).ok());
  }

  svc::SortServiceOptions sopts;
  sopts.memory_budget = 32 * kMB;
  sopts.max_running = 4;
  sopts.max_queued = kJobs;
  sopts.num_workers = 2;
  svc::SortService service(mem.get(), sopts);

  std::vector<SortJob> jobs;
  for (int j = 0; j < kJobs; ++j) {
    Result<SortJob> job = service.Submit(JobOptions(j, 16 * kMB));
    ASSERT_TRUE(job.ok()) << job.status().ToString();
    jobs.push_back(std::move(job).value());
  }
  for (int j = 0; j < kJobs; ++j) {
    const SortResult& r = jobs[j].Wait();
    EXPECT_TRUE(r.status.ok()) << "job " << j << ": " << r.status.ToString();
    EXPECT_EQ(jobs[j].state(), SortJobState::kDone);
    Status v = ValidateSortedFile(mem.get(), StrFormat("in_%02d.dat", j),
                                  StrFormat("out_%02d.dat", j),
                                  kDatamationFormat);
    EXPECT_TRUE(v.ok()) << "job " << j << ": " << v.ToString();
  }

  const svc::SortServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, static_cast<uint64_t>(kJobs));
  EXPECT_EQ(stats.completed, static_cast<uint64_t>(kJobs));
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_LE(stats.peak_admitted_bytes, sopts.memory_budget);
  // Two 16 MB tickets fit; the high-water mark should show real
  // concurrency, not accidental serialization.
  EXPECT_GE(stats.peak_admitted_bytes, 32 * kMB);
  EXPECT_EQ(stats.queued, 0);
  EXPECT_EQ(stats.running, 0);
  EXPECT_EQ(stats.admitted_bytes, 0u);
  ExpectNoScratch(mem.get());
}

// A job's waiter wakes to settled service state: the ticket returned,
// the job no longer running and counted as completed. An OnDone callback
// runs inside the job's publication, on the runner thread, so it sees
// exactly what the runner settled before publishing. The job's source
// factory holds it at startup until the callback is registered, so the
// callback cannot run on this thread after the fact.
TEST(SortServiceTest, WaiterWakesToSettledStats) {
  std::unique_ptr<Env> mem = NewMemEnv();
  svc::SortServiceOptions sopts;
  sopts.memory_budget = 32 * kMB;
  sopts.max_running = 1;
  svc::SortService service(mem.get(), sopts);

  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  SortOptions opts = JobOptions(0, 16 * kMB);
  opts.input_path.clear();
  opts.source = [gate]() -> std::shared_ptr<RecordSource> {
    gate.wait();
    return std::make_shared<GeneratedRecordSource>(kDatamationFormat, 20000);
  };
  Result<SortJob> job = service.Submit(opts);
  ASSERT_TRUE(job.ok()) << job.status().ToString();
  SortJob handle = std::move(job).value();

  std::promise<svc::SortServiceStats> at_done;
  std::future<svc::SortServiceStats> seen = at_done.get_future();
  handle.OnDone([&service, &at_done] { at_done.set_value(service.stats()); });
  release.set_value();

  const SortResult& r = handle.Wait();
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  const svc::SortServiceStats after_wait = service.stats();
  const svc::SortServiceStats in_callback = seen.get();
  for (const svc::SortServiceStats& stats : {in_callback, after_wait}) {
    EXPECT_EQ(stats.running, 0);
    EXPECT_EQ(stats.completed, 1u);
    EXPECT_EQ(stats.admitted_bytes, 0u);
  }
}

// Past max_queued the service says Unavailable instead of buffering
// without bound. With one slow running job and a queue of two, the
// fourth concurrent submission cannot be accepted.
TEST(SortServiceTest, QueueFullReturnsUnavailable) {
  std::unique_ptr<Env> mem = NewMemEnv();
  EnvStack stack(mem.get());
  stack.PushThrottle(/*read_mbps=*/2.0, /*write_mbps=*/100.0);
  const int kAttempts = 6;
  for (int j = 0; j < kAttempts; ++j) {
    ASSERT_TRUE(MakeInput(mem.get(), j, 20000).ok());  // 2 MB ≈ 1s read
  }

  svc::SortServiceOptions sopts;
  sopts.memory_budget = 64 * kMB;
  sopts.max_running = 1;
  sopts.max_queued = 2;
  svc::SortService service(stack.top(), sopts);

  std::vector<SortJob> accepted;
  bool saw_unavailable = false;
  for (int j = 0; j < kAttempts; ++j) {
    Result<SortJob> job = service.Submit(JobOptions(j, 8 * kMB));
    if (job.ok()) {
      accepted.push_back(std::move(job).value());
    } else {
      EXPECT_TRUE(job.status().IsUnavailable()) << job.status().ToString();
      saw_unavailable = true;
      break;
    }
  }
  // At most 1 running + 2 queued fit, so by the 4th submission the slow
  // first job is still reading and the queue is full.
  EXPECT_TRUE(saw_unavailable);
  EXPECT_LE(accepted.size(), 3u);
  EXPECT_GE(service.stats().rejected, 1u);

  // Drain quickly: give up on everything still in the system.
  for (SortJob& job : accepted) job.Cancel();
  for (SortJob& job : accepted) job.Wait();
  ExpectNoScratch(mem.get());
}

// Cancelling a running one-pass job stops it at the next read-chunk
// boundary with a clean Aborted status and no scratch left behind.
TEST(SortServiceTest, CancelRunningJobMidReadAborts) {
  std::unique_ptr<Env> mem = NewMemEnv();
  EnvStack stack(mem.get());
  stack.PushThrottle(/*read_mbps=*/1.0, /*write_mbps=*/100.0);
  ASSERT_TRUE(MakeInput(mem.get(), 0, 20000).ok());  // 2 MB ≈ 2s read

  svc::SortService service(stack.top(), svc::SortServiceOptions());
  Result<SortJob> job = service.Submit(JobOptions(0, 8 * kMB));
  ASSERT_TRUE(job.ok()) << job.status().ToString();
  SortJob handle = std::move(job).value();

  WaitUntilRunning(&handle);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  handle.Cancel();
  const SortResult& r = handle.Wait();
  EXPECT_TRUE(r.status.IsAborted()) << r.status.ToString();
  ExpectNoScratch(mem.get());
}

// Same for a two-pass job stopped after it has spilled runs: the abort
// path must sweep the job's scratch namespace.
TEST(SortServiceTest, CancelRunningJobTwoPassSweepsScratch) {
  std::unique_ptr<Env> mem = NewMemEnv();
  EnvStack stack(mem.get());
  stack.PushThrottle(/*read_mbps=*/4.0, /*write_mbps=*/4.0);
  ASSERT_TRUE(MakeInput(mem.get(), 0, 20000).ok());

  svc::SortService service(stack.top(), svc::SortServiceOptions());
  SortOptions opts = JobOptions(0, 8 * kMB);
  opts.force_passes = 2;
  opts.run_size_records = 2000;  // ~10 spilled runs
  Result<SortJob> job = service.Submit(opts);
  ASSERT_TRUE(job.ok()) << job.status().ToString();
  SortJob handle = std::move(job).value();

  WaitUntilRunning(&handle);
  // Reading 2 MB at 4 MB/s takes ~0.5s; by 250 ms some runs are on
  // "disk" and the cancel lands mid-spill or mid-merge.
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  handle.Cancel();
  const SortResult& r = handle.Wait();
  EXPECT_TRUE(r.status.IsAborted()) << r.status.ToString();
  ExpectNoScratch(mem.get());
}

// A queued job cancelled before admission finishes Aborted without ever
// touching a file; the service counts it as cancelled_queued.
TEST(SortServiceTest, CancelQueuedJobNeverRuns) {
  std::unique_ptr<Env> mem = NewMemEnv();
  EnvStack stack(mem.get());
  stack.PushThrottle(/*read_mbps=*/2.0, /*write_mbps=*/100.0);
  ASSERT_TRUE(MakeInput(mem.get(), 0, 20000).ok());
  ASSERT_TRUE(MakeInput(mem.get(), 1, 20000).ok());

  svc::SortServiceOptions sopts;
  sopts.max_running = 1;
  svc::SortService service(stack.top(), sopts);

  Result<SortJob> slow = service.Submit(JobOptions(0, 8 * kMB));
  ASSERT_TRUE(slow.ok());
  SortJob slow_handle = std::move(slow).value();
  WaitUntilRunning(&slow_handle);

  Result<SortJob> queued = service.Submit(JobOptions(1, 8 * kMB));
  ASSERT_TRUE(queued.ok());
  SortJob queued_handle = std::move(queued).value();
  EXPECT_EQ(queued_handle.state(), SortJobState::kQueued);

  // OnDone fires for a job that settles without ever running...
  auto settled = std::make_shared<std::promise<void>>();
  std::future<void> settled_future = settled->get_future();
  queued_handle.OnDone([settled] { settled->set_value(); });

  queued_handle.Cancel();
  const SortResult& r = queued_handle.Wait();
  EXPECT_TRUE(r.status.IsAborted()) << r.status.ToString();
  EXPECT_FALSE(mem->FileExists("out_01.dat"));
  EXPECT_EQ(settled_future.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  // ...and runs right away once the job is done.
  bool ran_inline = false;
  queued_handle.OnDone([&ran_inline] { ran_inline = true; });
  EXPECT_TRUE(ran_inline);

  EXPECT_TRUE(slow_handle.Wait().status.ok());
  const svc::SortServiceStats stats = service.stats();
  EXPECT_EQ(stats.cancelled_queued, 1u);
  EXPECT_EQ(stats.completed, 1u);
  ExpectNoScratch(mem.get());
}

// A job whose time_limit_s expires mid-run ends with a clean
// DeadlineExceeded status and an empty scratch namespace.
TEST(SortServiceTest, DeadlineExceededIsCleanAndSweeps) {
  std::unique_ptr<Env> mem = NewMemEnv();
  EnvStack stack(mem.get());
  stack.PushThrottle(/*read_mbps=*/1.0, /*write_mbps=*/1.0);
  ASSERT_TRUE(MakeInput(mem.get(), 0, 20000).ok());  // ≈2s at 1 MB/s

  svc::SortService service(stack.top(), svc::SortServiceOptions());
  SortOptions opts = JobOptions(0, 8 * kMB);
  opts.force_passes = 2;
  opts.run_size_records = 2000;
  opts.time_limit_s = 0.2;
  Result<SortJob> job = service.Submit(opts);
  ASSERT_TRUE(job.ok()) << job.status().ToString();
  SortJob handle = std::move(job).value();

  const SortResult& r = handle.Wait();
  EXPECT_TRUE(r.status.IsDeadlineExceeded()) << r.status.ToString();
  ExpectNoScratch(mem.get());
}

// A job asking for more memory than the whole service owns is not
// rejected: its budget is clamped to the service's and the job runs
// (two-pass if the input no longer fits), flagged down_negotiated.
TEST(SortServiceTest, OversizeRequestIsDownNegotiated) {
  std::unique_ptr<Env> mem = NewMemEnv();
  const uint64_t kRecords = 20000;  // 2 MB data + entry overhead > 1 MB
  ASSERT_TRUE(MakeInput(mem.get(), 0, kRecords).ok());

  svc::SortServiceOptions sopts;
  sopts.memory_budget = 1 * kMB;
  svc::SortService service(mem.get(), sopts);

  Result<SortJob> job = service.Submit(JobOptions(0, 64 * kMB));
  ASSERT_TRUE(job.ok()) << job.status().ToString();
  SortJob handle = std::move(job).value();
  EXPECT_TRUE(handle.down_negotiated());

  const SortResult& r = handle.Wait();
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.metrics.passes, 2);  // 64 MB one-pass plan became two-pass
  EXPECT_TRUE(ValidateSortedFile(mem.get(), "in_00.dat", "out_00.dat",
                                 kDatamationFormat)
                  .ok());

  const svc::SortServiceStats stats = service.stats();
  EXPECT_EQ(stats.down_negotiated, 1u);
  EXPECT_LE(stats.peak_admitted_bytes, sopts.memory_budget);
  ExpectNoScratch(mem.get());
}

// A service's jobs run on its shared pool, whatever their own
// num_workers says, so a job's report names the pool's worker count and
// its merge splits into two key ranges per pool worker.
TEST(SortServiceTest, ReportNamesThePoolWorkerCount) {
  std::unique_ptr<Env> mem = NewMemEnv();
  ASSERT_TRUE(MakeInput(mem.get(), 0, 20000).ok());

  svc::SortServiceOptions sopts;
  sopts.memory_budget = 32 * kMB;
  sopts.num_workers = 3;
  svc::SortService service(mem.get(), sopts);

  SortOptions opts = JobOptions(0, 16 * kMB);
  ASSERT_EQ(opts.num_workers, 0);
  Result<SortJob> job = service.Submit(opts);
  ASSERT_TRUE(job.ok()) << job.status().ToString();
  const SortResult& r = job.value().Wait();
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.metrics.merge_ranges, 6u);
  EXPECT_NE(r.report.config.find(" workers=3 "), std::string::npos)
      << r.report.config;
}

// Down-negotiation re-validates: when the clamped budget cannot hold
// even a few io chunks, Submit fails loudly instead of queueing a job
// that can never run.
TEST(SortServiceTest, SubmitRejectsJobThatCannotFitServiceBudget) {
  std::unique_ptr<Env> mem = NewMemEnv();
  svc::SortServiceOptions sopts;
  sopts.memory_budget = 2 * kMB;
  svc::SortService service(mem.get(), sopts);

  SortOptions opts = JobOptions(0, 64 * kMB);
  opts.io_chunk_bytes = 1 * kMB;  // needs >= 4 MB, service owns 2 MB
  Result<SortJob> job = service.Submit(opts);
  ASSERT_FALSE(job.ok());
  EXPECT_TRUE(job.status().IsInvalidArgument()) << job.status().ToString();
}

TEST(SortServiceTest, SubmitValidatesOptions) {
  std::unique_ptr<Env> mem = NewMemEnv();
  svc::SortService service(mem.get(), svc::SortServiceOptions());
  SortOptions opts;  // no paths
  Result<SortJob> job = service.Submit(opts);
  ASSERT_FALSE(job.ok());
  EXPECT_TRUE(job.status().IsInvalidArgument()) << job.status().ToString();
}

// Pool sizes are checked, not clamped: a service built with no IO
// threads or a negative worker count rejects every job with the
// InvalidArgument ValidatePoolSizes names.
TEST(SortServiceTest, SubmitRejectsBadPoolSizes) {
  std::unique_ptr<Env> mem = NewMemEnv();
  ASSERT_TRUE(MakeInput(mem.get(), 0, 1000).ok());
  for (const auto& [workers, io_threads, want] :
       {std::tuple{0, 0, "io_threads must be >= 1"},
        std::tuple{-1, 4, "num_workers must be >= 0"}}) {
    svc::SortServiceOptions sopts;
    sopts.num_workers = workers;
    sopts.io_threads = io_threads;
    svc::SortService service(mem.get(), sopts);
    Result<SortJob> job = service.Submit(JobOptions(0, 8 * kMB));
    ASSERT_FALSE(job.ok()) << want;
    EXPECT_TRUE(job.status().IsInvalidArgument()) << job.status().ToString();
    EXPECT_NE(job.status().ToString().find(want), std::string::npos)
        << job.status().ToString();
  }
}

// The same check one layer down: a Sorter whose Resources have no IO
// threads returns an already-done job instead of starting a sort whose
// reads can never complete.
TEST(SorterTest, StartRejectsBadPoolSizes) {
  std::unique_ptr<Env> mem = NewMemEnv();
  ASSERT_TRUE(MakeInput(mem.get(), 0, 1000).ok());
  for (const auto& [workers, io_threads, want] :
       {std::tuple{0, 0, "io_threads must be >= 1"},
        std::tuple{-1, 4, "num_workers must be >= 0"}}) {
    Sorter::Resources resources;
    resources.num_workers = workers;
    resources.io_threads = io_threads;
    Sorter sorter(mem.get(), resources);
    SortJob job = sorter.Start(JobOptions(0, 8 * kMB));
    const SortResult& r = job.Wait();
    EXPECT_TRUE(r.status.IsInvalidArgument()) << r.status.ToString();
    EXPECT_NE(r.status.ToString().find(want), std::string::npos)
        << r.status.ToString();
  }
}

TEST(SortServiceTest, SubmitAfterShutdownIsUnavailable) {
  std::unique_ptr<Env> mem = NewMemEnv();
  ASSERT_TRUE(MakeInput(mem.get(), 0, 1000).ok());
  svc::SortService service(mem.get(), svc::SortServiceOptions());
  service.Shutdown();
  Result<SortJob> job = service.Submit(JobOptions(0, 8 * kMB));
  ASSERT_FALSE(job.ok());
  EXPECT_TRUE(job.status().IsUnavailable()) << job.status().ToString();
}

// Concurrent two-pass jobs spill under distinct job-<id> namespaces and
// neither sweeps the other's runs: both outputs validate.
TEST(SortServiceTest, ConcurrentTwoPassJobsKeepScratchSeparate) {
  std::unique_ptr<Env> mem = NewMemEnv();
  const int kJobs = 4;
  for (int j = 0; j < kJobs; ++j) {
    ASSERT_TRUE(MakeInput(mem.get(), j, 20000).ok());
  }

  svc::SortServiceOptions sopts;
  sopts.memory_budget = 16 * kMB;
  sopts.max_running = 4;
  svc::SortService service(mem.get(), sopts);

  std::vector<SortJob> jobs;
  for (int j = 0; j < kJobs; ++j) {
    SortOptions opts = JobOptions(j, 2 * kMB);
    opts.force_passes = 2;
    opts.run_size_records = 2000;
    Result<SortJob> job = service.Submit(opts);
    ASSERT_TRUE(job.ok()) << job.status().ToString();
    jobs.push_back(std::move(job).value());
  }
  for (int j = 0; j < kJobs; ++j) {
    const SortResult& r = jobs[j].Wait();
    EXPECT_TRUE(r.status.ok()) << "job " << j << ": " << r.status.ToString();
    EXPECT_EQ(r.metrics.passes, 2);
    EXPECT_TRUE(ValidateSortedFile(mem.get(), StrFormat("in_%02d.dat", j),
                                   StrFormat("out_%02d.dat", j),
                                   kDatamationFormat)
                    .ok());
  }
  ExpectNoScratch(mem.get());
}

// After an oversubscription + cancel storm drains, the service's level
// gauges (svc.jobs_running, svc.jobs_queued, svc.admitted_bytes) must
// read zero again: cancelled, rejected, and completed jobs all release
// their tickets and queue slots.
TEST(SortServiceTest, LevelGaugesReturnToZeroAfterCancelStorm) {
  std::unique_ptr<Env> mem = NewMemEnv();
  EnvStack stack(mem.get());
  stack.PushThrottle(/*read_mbps=*/4.0, /*write_mbps=*/100.0);
  const int kJobs = 8;
  for (int j = 0; j < kJobs; ++j) {
    ASSERT_TRUE(MakeInput(mem.get(), j, 20000).ok());
  }

  svc::SortServiceOptions sopts;
  sopts.memory_budget = 32 * kMB;
  sopts.max_running = 2;
  sopts.max_queued = kJobs;
  svc::SortService service(stack.top(), sopts);

  std::vector<SortJob> jobs;
  for (int j = 0; j < kJobs; ++j) {
    Result<SortJob> job = service.Submit(JobOptions(j, 16 * kMB));
    ASSERT_TRUE(job.ok()) << job.status().ToString();
    jobs.push_back(std::move(job).value());
  }
  // Cancel every other job — some still queued, some mid-read.
  for (int j = 0; j < kJobs; j += 2) jobs[j].Cancel();
  for (SortJob& job : jobs) job.Wait();

  // Wait() returns when the result is ready; the runner releases its
  // admission ticket just after, under the service lock. Poll until the
  // service quiesces before asserting the levels.
  svc::SortServiceStats stats = service.stats();
  for (int i = 0; i < 5000 && (stats.running != 0 || stats.queued != 0 ||
                               stats.admitted_bytes != 0);
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    stats = service.stats();
  }
  EXPECT_EQ(stats.running, 0);
  EXPECT_EQ(stats.queued, 0);
  EXPECT_EQ(stats.admitted_bytes, 0u);

  const obs::RegistrySnapshot snap =
      obs::MetricsRegistry::Global()->Snapshot();
  EXPECT_EQ(snap.gauges.at("svc.jobs_running"), 0);
  EXPECT_EQ(snap.gauges.at("svc.jobs_queued"), 0);
  EXPECT_EQ(snap.gauges.at("svc.admitted_bytes"), 0);
  ExpectNoScratch(mem.get());
}

// SortJob::Progress() observed from outside the pipeline: the fraction
// never decreases, and a finished job reports phase done, fraction 1.0,
// and is kept in ProgressRegistry's finished list at that state.
TEST(SortServiceTest, JobProgressFractionsAreMonotonic) {
  std::unique_ptr<Env> mem = NewMemEnv();
  EnvStack stack(mem.get());
  stack.PushThrottle(/*read_mbps=*/8.0, /*write_mbps=*/8.0);
  ASSERT_TRUE(MakeInput(mem.get(), 0, 20000).ok());

  svc::SortService service(stack.top(), svc::SortServiceOptions());
  SortOptions opts = JobOptions(0, 8 * kMB);
  opts.force_passes = 2;
  opts.run_size_records = 2000;
  Result<SortJob> job = service.Submit(opts);
  ASSERT_TRUE(job.ok()) << job.status().ToString();
  SortJob handle = std::move(job).value();

  double last = 0;
  size_t observations = 0;
  while (!handle.TryWait()) {
    const obs::JobProgress p = handle.Progress();
    EXPECT_GE(p.fraction + 1e-9, last)
        << "fraction regressed at observation " << observations;
    last = std::max(last, p.fraction);
    ++observations;
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  EXPECT_GT(observations, 0u);
  ASSERT_TRUE(handle.Wait().status.ok());

  const obs::JobProgress final_p = handle.Progress();
  EXPECT_EQ(final_p.phase, obs::SortPhase::kDone);
  EXPECT_DOUBLE_EQ(final_p.fraction, 1.0);
  EXPECT_GE(final_p.work_done, final_p.bytes_total * 2);

  // The registry keeps the finished job's terminal state.
  bool kept = false;
  for (const obs::JobProgress& p :
       obs::ProgressRegistry::Global()->SnapshotWithFinished()) {
    if (p.job_id != handle.id()) continue;
    kept = true;
    EXPECT_EQ(p.phase, obs::SortPhase::kDone);
    EXPECT_DOUBLE_EQ(p.fraction, 1.0);
  }
  EXPECT_TRUE(kept) << "job " << handle.id() << " not kept";
  ExpectNoScratch(mem.get());
}

size_t RegistryMetricCount() {
  const obs::RegistrySnapshot snap =
      obs::MetricsRegistry::Global()->Snapshot();
  return snap.counters.size() + snap.gauges.size() + snap.histograms.size();
}

// Serving jobs leaves the metrics registry the size it had after the
// first one: job progress is published once, through ProgressRegistry,
// whose kept-job list is bounded. Each kept job reads its final state
// and its trace id.
TEST(SortServiceTest, RegistryStaysFixedAcrossServedJobs) {
  std::unique_ptr<Env> mem = NewMemEnv();
  ASSERT_TRUE(MakeInput(mem.get(), 0, 1000).ok());
  constexpr int kJobs = int(obs::ProgressRegistry::kKeptJobs) + 16;
  constexpr uint64_t kTraceBase = 0x5eed0000;

  svc::SortServiceOptions sopts;
  sopts.max_queued = kJobs;
  svc::SortService service(mem.get(), sopts);
  std::vector<SortJob> jobs;
  auto submit = [&](int index) {
    SortOptions opts = JobOptions(0, 1 * kMB);
    opts.output_path = StrFormat("out_%02d.dat", index);
    opts.trace_id = kTraceBase + uint64_t(index);
    Result<SortJob> job = service.Submit(opts);
    ASSERT_TRUE(job.ok()) << job.status().ToString();
    jobs.push_back(std::move(job).value());
  };

  submit(0);
  ASSERT_TRUE(jobs[0].Wait().status.ok());
  const size_t after_first = RegistryMetricCount();
  for (int i = 1; i < kJobs; ++i) submit(i);
  for (SortJob& job : jobs) ASSERT_TRUE(job.Wait().status.ok());
  EXPECT_EQ(RegistryMetricCount(), after_first);

  // No job is live and more ended than the registry keeps, so it holds
  // exactly the last kKeptJobs of this service's jobs, whatever earlier
  // tests left.
  std::map<uint64_t, uint64_t> trace_of;
  for (int i = 0; i < kJobs; ++i) {
    trace_of[jobs[i].id()] = kTraceBase + uint64_t(i);
  }
  const std::vector<obs::JobProgress> kept =
      obs::ProgressRegistry::Global()->SnapshotWithFinished();
  ASSERT_EQ(kept.size(), obs::ProgressRegistry::kKeptJobs);
  for (size_t k = 0; k < kept.size(); ++k) {
    const obs::JobProgress& p = kept[k];
    if (k > 0) {
      EXPECT_LT(kept[k - 1].job_id, p.job_id);
    }
    ASSERT_EQ(trace_of.count(p.job_id), 1u) << "job " << p.job_id;
    EXPECT_EQ(p.trace_id, trace_of[p.job_id]);
    EXPECT_EQ(p.phase, obs::SortPhase::kDone);
    EXPECT_DOUBLE_EQ(p.fraction, 1.0);
  }
  ExpectNoScratch(mem.get());
}

}  // namespace
}  // namespace alphasort
