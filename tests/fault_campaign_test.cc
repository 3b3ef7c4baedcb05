#include "benchlib/fault_campaign.h"

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "benchlib/datamation.h"
#include "core/alphasort.h"
#include "io/fault_env.h"

namespace alphasort {
namespace {

// The headline robustness property (docs/fault_tolerance.md): hundreds of
// seeded sorts through randomized fault plans, and every single one must
// either produce byte-correct output or fail with a clean Status — wrong
// output and leaked scratch files are the only losing outcomes. Any
// failure here reproduces exactly from its printed seed.
TEST(FaultCampaignTest, TwoHundredSeededStormsNeverProduceWrongOutput) {
  CampaignConfig config;
  config.base_seed = 5000;
  config.trials = 200;
  config.max_records = 1500;
  const CampaignReport report = RunFaultCampaign(config);
  EXPECT_EQ(report.incorrect, 0) << report.ToString();
  EXPECT_EQ(report.total(), 200);
  // The campaign must actually exercise the machinery it claims to: storms
  // fired, retries recovered real faults, checksums covered real runs.
  EXPECT_GT(report.total_faults_injected, 0u);
  EXPECT_GT(report.total_retries, 0u);
  EXPECT_GT(report.total_retries_recovered, 0u);
  EXPECT_GT(report.total_runs_checksum_verified, 0u);
  EXPECT_GT(report.correct, 0) << report.ToString();
}

// A sort over a stripe with one transiently flaky member must complete
// correctly — degraded by backoff, not killed — with the retry counters
// visible in SortMetrics.
TEST(FaultCampaignTest, FlakyStripeMemberDegradesInsteadOfKillingTheSort) {
  auto mem = NewMemEnv();
  FaultInjectionEnv fenv(mem.get());

  const size_t width = 4;
  InputSpec spec;
  spec.path = "in.str";
  spec.num_records = 10000;
  spec.seed = 271828;
  spec.stripe_width = width;
  spec.stride_bytes = 8 * 1024;
  ASSERT_TRUE(CreateInputFile(&fenv, spec).ok());
  ASSERT_TRUE(
      CreateOutputDefinition(&fenv, "out.str", width, 8 * 1024).ok());

  SortOptions opts;
  opts.input_path = "in.str";
  opts.output_path = "out.str";
  opts.force_passes = 1;
  opts.io_chunk_bytes = 16 * 1024;
  opts.run_size_records = 1000;
  opts.retry_policy.max_attempts = 8;
  opts.retry_policy.backoff_initial_us = 1;
  opts.retry_policy.backoff_cap_us = 8;

  // Member 1 of both stripes fails a quarter of its operations, always
  // transiently. With 8 attempts the chance any op exhausts its budget is
  // 0.25^8 ~ 1.5e-5 — negligible across this input's operation count.
  FaultPlan plan;
  plan.seed = 31415;
  FaultSpec flaky;
  flaky.read_fail_prob = 0.25;
  flaky.write_fail_prob = 0.25;
  plan.overrides.emplace_back(".s01", flaky);
  fenv.SetPlan(plan);

  SortMetrics metrics;
  Status s = AlphaSort::Run(&fenv, opts, &metrics);
  fenv.SetPlan(FaultPlan{});
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_GT(fenv.faults_injected(), 0u);
  EXPECT_GT(metrics.io_retries, 0u);
  EXPECT_GT(metrics.io_retries_recovered, 0u);
  EXPECT_EQ(metrics.io_retries_exhausted, 0u);
  Status v = ValidateSortedFile(mem.get(), "in.str", "out.str", opts.format);
  EXPECT_TRUE(v.ok()) << v.ToString();
}

// Silent scratch corruption — a byte flipped on write with OK status —
// must surface as Status::Corruption at merge time, never as wrong output.
TEST(FaultCampaignTest, ScratchCorruptionIsCaughtByRunChecksums) {
  auto mem = NewMemEnv();
  FaultInjectionEnv fenv(mem.get());

  InputSpec spec;
  spec.path = "in.dat";
  spec.num_records = 5000;
  spec.seed = 1618;
  ASSERT_TRUE(CreateInputFile(&fenv, spec).ok());

  SortOptions opts;
  opts.input_path = "in.dat";
  opts.output_path = "out.dat";
  opts.scratch_path = "scratch";
  opts.force_passes = 2;
  opts.run_size_records = 500;
  opts.io_chunk_bytes = 8 * 1024;

  FaultPlan plan;
  plan.seed = 2718;
  FaultSpec corrupting;
  corrupting.corrupt_write_prob = 1;  // every scratch write flips a byte
  plan.overrides.emplace_back("scratch.l", corrupting);
  fenv.SetPlan(plan);

  SortMetrics metrics;
  Status s = AlphaSort::Run(&fenv, opts, &metrics);
  fenv.SetPlan(FaultPlan{});
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_GT(fenv.corrupt_writes_injected(), 0u);

  // The failed sort cleaned its scratch namespace.
  std::vector<std::string> stray;
  ASSERT_TRUE(mem->ListFiles("scratch", &stray).ok());
  EXPECT_TRUE(stray.empty()) << stray[0];
}

// A sort killed mid-spill by a dead scratch path must clean up every
// stripe fragment it created (the ScratchSweeper guarantee).
TEST(FaultCampaignTest, FailedSortLeaksNoScratchFiles) {
  auto mem = NewMemEnv();
  FaultInjectionEnv fenv(mem.get());

  InputSpec spec;
  spec.path = "in.dat";
  spec.num_records = 8000;
  spec.seed = 999;
  ASSERT_TRUE(CreateInputFile(&fenv, spec).ok());

  SortOptions opts;
  opts.input_path = "in.dat";
  opts.output_path = "out.dat";
  opts.scratch_path = "scratch";
  opts.force_passes = 2;
  opts.memory_budget = 200 * 1024;  // ~5 spilled runs for this input
  opts.run_size_records = 500;
  opts.io_chunk_bytes = 8 * 1024;
  opts.scratch_stripe_width = 2;  // fragments to leak, if anything leaked

  // The third spilled run's path dies permanently: retries exhaust, the
  // sort fails, and runs 0-1 (already on disk) must still be removed.
  FaultPlan plan;
  plan.seed = 7777;
  FaultSpec fatal;
  fatal.write_fail_prob = 1;
  fatal.mode = FaultMode::kPermanent;
  plan.overrides.emplace_back(".l0_run0002", fatal);
  fenv.SetPlan(plan);

  SortMetrics metrics;
  Status s = AlphaSort::Run(&fenv, opts, &metrics);
  fenv.SetPlan(FaultPlan{});
  ASSERT_FALSE(s.ok());
  EXPECT_GT(metrics.io_retries_exhausted, 0u);

  std::vector<std::string> stray;
  ASSERT_TRUE(mem->ListFiles("scratch", &stray).ok());
  EXPECT_TRUE(stray.empty()) << stray.size() << " leaked, first: "
                             << stray[0];
}

// A clean two-pass sort reports its defensive work in SortMetrics: every
// spilled run checksum-verified and a non-zero whole-output CRC.
TEST(FaultCampaignTest, CleanSortReportsChecksumAndCrcMetrics) {
  auto mem = NewMemEnv();

  InputSpec spec;
  spec.path = "in.dat";
  spec.num_records = 6000;
  spec.seed = 4242;
  ASSERT_TRUE(CreateInputFile(mem.get(), spec).ok());

  SortOptions opts;
  opts.input_path = "in.dat";
  opts.output_path = "out.dat";
  opts.scratch_path = "scratch";
  opts.force_passes = 2;
  opts.memory_budget = 150 * 1024;  // several spilled runs
  opts.run_size_records = 500;
  opts.io_chunk_bytes = 8 * 1024;

  SortMetrics metrics;
  Status s = AlphaSort::Run(mem.get(), opts, &metrics);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_GT(metrics.num_runs, 1u);
  EXPECT_GE(metrics.runs_checksum_verified, metrics.num_runs);
  EXPECT_NE(metrics.output_crc32c, 0u);
  EXPECT_EQ(metrics.io_retries, 0u);  // nothing was flaky
  Status v = ValidateSortedFile(mem.get(), "in.dat", "out.dat", opts.format);
  EXPECT_TRUE(v.ok()) << v.ToString();
}

// Same seed, same campaign classification — the reproducibility promise
// a printed failing seed depends on.
TEST(FaultCampaignTest, TrialsAreReproducibleBySeed) {
  const TrialResult a = RunFaultTrial(12345, 1000);
  const TrialResult b = RunFaultTrial(12345, 1000);
  EXPECT_EQ(static_cast<int>(a.outcome), static_cast<int>(b.outcome));
  EXPECT_EQ(a.sort_status.ok(), b.sort_status.ok());
  EXPECT_NE(a.outcome, TrialOutcome::kIncorrect) << a.ToString();
}

}  // namespace
}  // namespace alphasort
