#include "benchlib/fault_campaign.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "benchlib/datamation.h"
#include "common/random.h"
#include "common/table.h"
#include "core/alphasort.h"
#include "core/sorter.h"
#include "io/env_stack.h"

namespace alphasort {

namespace {

const char* OutcomeName(TrialOutcome o) {
  switch (o) {
    case TrialOutcome::kCorrect: return "correct";
    case TrialOutcome::kCleanError: return "clean-error";
    case TrialOutcome::kIncorrect: return "INCORRECT";
  }
  return "?";
}

// One fault probability: zero a third of the time, else a small rate in
// [0.2%, 1.6%]. Small rates matter — every operation rolls every dice, a
// sort issues thousands of operations, and the retry budget is finite, so
// larger rates would turn nearly every trial into a clean error and prove
// nothing about recovery.
double DrawProb(Random* rng) {
  if (rng->OneIn(3)) return 0;
  return 0.002 * static_cast<double>(uint64_t{1} << rng->Uniform(4));
}

}  // namespace

FaultPlan MakeCampaignPlan(uint64_t seed, const std::string& scratch_hint) {
  Random rng(seed ^ 0xfa017ca3bad5eed5ULL);
  FaultPlan plan;
  plan.seed = seed;

  plan.defaults.mode = FaultMode::kTransient;
  plan.defaults.read_fail_prob = DrawProb(&rng);
  plan.defaults.write_fail_prob = DrawProb(&rng);
  plan.defaults.short_read_prob = DrawProb(&rng);
  plan.defaults.partial_write_prob = DrawProb(&rng);
  // Silent write corruption stays zero in the defaults: flipping a byte
  // of the *final output* with OK status is an undetectable wrong answer
  // by construction (nothing downstream reads it back). Scratch runs are
  // read back through the checksum check, so they get corruption below.
  plan.defaults.corrupt_write_prob = 0;

  if (rng.OneIn(3)) {
    FaultSpec scratch = plan.defaults;
    scratch.corrupt_write_prob =
        0.01 * static_cast<double>(1 + rng.Uniform(3));
    plan.overrides.emplace_back(scratch_hint + ".l", scratch);
  }
  if (rng.OneIn(4)) {
    // One stripe member dies for good partway through: every sort over a
    // striped file must fail cleanly, never emit partial output as OK.
    FaultSpec dead;
    dead.mode = FaultMode::kPermanent;
    dead.read_fail_prob = 0.05;
    dead.write_fail_prob = 0.05;
    plan.overrides.emplace_back(
        StrFormat(".s%02llu",
                  static_cast<unsigned long long>(rng.Uniform(2))),
        dead);
  }
  return plan;
}

TrialResult RunFaultTrial(uint64_t seed, uint64_t max_records) {
  TrialResult result;
  result.seed = seed;
  Random rng(seed * 0x9e3779b97f4a7c15ULL + 0x1234567);

  std::unique_ptr<Env> mem = NewMemEnv();
  // Canonical layer order (io/env_stack.h): the fault layer sits
  // directly above the base store; the sort adds its own metrics/retry
  // layers above it per run.
  EnvStack stack(mem.get());
  stack.PushFaults();
  FaultInjectionEnv& fenv = *stack.faults();

  // Randomized geometry: plain/striped endpoints, one or two passes,
  // several stripe widths, fan-ins narrow enough to force merge cascades.
  const uint64_t min_records = 200;
  const uint64_t records =
      min_records + rng.Uniform(std::max<uint64_t>(1, max_records -
                                                          min_records));
  const bool striped_in = rng.OneIn(2);
  const bool striped_out = rng.OneIn(2);
  const size_t width = 2 + rng.Uniform(3);

  InputSpec spec;
  spec.path = striped_in ? "in.str" : "in.dat";
  spec.num_records = records;
  // Rotate key distributions so skew-sensitive paths (radix bucket
  // recursion, tie-break-heavy compares, presorted scans) see fault
  // traffic, not just the uniform Datamation shape.
  const KeyDistribution kDistributions[] = {
      KeyDistribution::kUniform,      KeyDistribution::kUniform,
      KeyDistribution::kSorted,       KeyDistribution::kReverse,
      KeyDistribution::kFewDistinct,  KeyDistribution::kSharedPrefix,
      KeyDistribution::kAlmostSorted, KeyDistribution::kDupHeavy,
      KeyDistribution::kZipfian};
  spec.distribution = kDistributions[rng.Uniform(9)];
  spec.seed = seed + 17;
  spec.stripe_width = width;
  spec.stride_bytes = 4 * 1024;
  Status setup = CreateInputFile(&fenv, spec);
  if (setup.ok() && striped_out) {
    setup = CreateOutputDefinition(&fenv, "out.str", width, 4 * 1024);
  }
  if (!setup.ok()) {
    result.outcome = TrialOutcome::kIncorrect;
    result.detail = "setup failed: " + setup.ToString();
    return result;
  }

  SortOptions opts;
  opts.input_path = spec.path;
  opts.output_path = striped_out ? "out.str" : "out.dat";
  opts.scratch_path = "scratch";
  opts.force_passes = rng.OneIn(3) ? 1 : 2;
  // Two-pass trials spill a handful of runs (run size follows the memory
  // budget), so merges, cascades, and the checksum path all get traffic.
  opts.memory_budget = std::max<uint64_t>(
      64 * 1024,
      records * spec.format.record_size / (2 + rng.Uniform(6)));
  opts.run_size_records = 100 + rng.Uniform(400);
  opts.io_chunk_bytes = size_t{4096} << rng.Uniform(3);
  opts.io_threads = 1 + static_cast<int>(rng.Uniform(3));
  opts.io_depth = 2 + static_cast<int>(rng.Uniform(3));
  opts.num_workers = static_cast<int>(rng.Uniform(3));
  opts.max_merge_fanin = 2 + rng.Uniform(6);
  // Spare draws: they once picked the merge's range count, the prefetch
  // distance, a merge-prefetch switch and the run-sort kernel, which the
  // sort now fixes or derives. Taking them keeps every seed's later
  // fields, and so its whole configuration, as they were.
  (void)rng.Uniform(4);
  (void)rng.Uniform(3);
  (void)rng.OneIn(2);
  (void)rng.Uniform(3);
  opts.scratch_stripe_width = rng.OneIn(3) ? 2 : 0;
  opts.retry_policy.max_attempts = 2 + static_cast<int>(rng.Uniform(4));
  opts.retry_policy.backoff_initial_us = 1;
  opts.retry_policy.backoff_cap_us = 16;

  FaultPlan plan = MakeCampaignPlan(seed, opts.scratch_path);
  result.plan_overrides = plan.overrides.size();
  fenv.SetPlan(plan);
  result.sort_status = [&] {
    Sorter::Resources resources;
    resources.num_workers = opts.num_workers;
    resources.io_threads = opts.io_threads;
    Sorter sorter(stack.top(), resources);
    const SortResult& r = sorter.Start(opts).Wait();
    result.metrics = r.metrics;
    return r.status;
  }();
  fenv.SetPlan(FaultPlan{});  // quiesce before validation
  result.faults_injected = fenv.faults_injected();

  if (result.sort_status.ok()) {
    Status v = ValidateSortedFile(mem.get(), opts.input_path,
                                  opts.output_path, opts.format);
    if (v.ok()) {
      result.outcome = TrialOutcome::kCorrect;
    } else {
      result.outcome = TrialOutcome::kIncorrect;
      result.detail = "sort reported OK but output is wrong: " +
                      v.ToString();
      return result;
    }
  } else {
    result.outcome = TrialOutcome::kCleanError;
    result.detail = result.sort_status.ToString();
  }

  // Either way the scratch namespace must be empty: a failed sort that
  // leaks stripe fragments fills the disk across a campaign.
  std::vector<std::string> stray;
  Status ls = mem->ListFiles(opts.scratch_path, &stray);
  if (!ls.ok()) {
    result.outcome = TrialOutcome::kIncorrect;
    result.detail = "scratch listing failed: " + ls.ToString();
  } else if (!stray.empty()) {
    result.outcome = TrialOutcome::kIncorrect;
    result.detail = StrFormat("leaked %zu scratch file(s), first: %s",
                              stray.size(), stray[0].c_str());
  }
  return result;
}

CampaignReport RunFaultCampaign(const CampaignConfig& config) {
  CampaignReport report;
  for (int i = 0; i < config.trials; ++i) {
    const uint64_t seed = config.base_seed + static_cast<uint64_t>(i);
    TrialResult trial = RunFaultTrial(seed, config.max_records);
    switch (trial.outcome) {
      case TrialOutcome::kCorrect: ++report.correct; break;
      case TrialOutcome::kCleanError: ++report.clean_errors; break;
      case TrialOutcome::kIncorrect: ++report.incorrect; break;
    }
    report.total_faults_injected += trial.faults_injected;
    report.total_retries += trial.metrics.io_retries;
    report.total_retries_recovered += trial.metrics.io_retries_recovered;
    report.total_runs_checksum_verified +=
        trial.metrics.runs_checksum_verified;
    if (trial.outcome == TrialOutcome::kIncorrect || config.verbose) {
      report.trials.push_back(std::move(trial));
    }
  }
  return report;
}

std::string TrialResult::ToString() const {
  std::string out = StrFormat(
      "seed %llu: %s", static_cast<unsigned long long>(seed),
      OutcomeName(outcome));
  if (!detail.empty()) out += " — " + detail;
  out += StrFormat(
      " (%llu fault(s) injected, %llu retries, %llu recovered)",
      static_cast<unsigned long long>(faults_injected),
      static_cast<unsigned long long>(metrics.io_retries),
      static_cast<unsigned long long>(metrics.io_retries_recovered));
  return out;
}

std::string CampaignReport::ToString() const {
  std::string out = StrFormat(
      "fault campaign: %d trial(s) — %d correct, %d clean error(s), "
      "%d incorrect\n",
      total(), correct, clean_errors, incorrect);
  out += StrFormat(
      "faults injected: %llu | retries: %llu (%llu recovered) | run "
      "checksums verified: %llu\n",
      static_cast<unsigned long long>(total_faults_injected),
      static_cast<unsigned long long>(total_retries),
      static_cast<unsigned long long>(total_retries_recovered),
      static_cast<unsigned long long>(total_runs_checksum_verified));
  for (const auto& t : trials) out += "  " + t.ToString() + "\n";
  return out;
}

}  // namespace alphasort
