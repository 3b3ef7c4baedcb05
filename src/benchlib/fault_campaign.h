#ifndef ALPHASORT_BENCHLIB_FAULT_CAMPAIGN_H_
#define ALPHASORT_BENCHLIB_FAULT_CAMPAIGN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "io/env.h"
#include "io/fault_env.h"
#include "obs/sort_metrics.h"

namespace alphasort {

// Seeded fault-campaign harness (docs/fault_tolerance.md): runs many
// small sorts, each against a fresh in-memory filesystem wrapped in a
// FaultInjectionEnv driving a randomized FaultPlan, and classifies every
// trial. The contract under test is all-or-nothing: a sort under fault
// injection must either produce byte-correct output or return a clean
// non-OK Status — wrong output, leaked scratch files, crashes, and hangs
// are the only failures.

// How one trial ended.
enum class TrialOutcome {
  kCorrect,     // sort returned OK and the output validated
  kCleanError,  // sort returned a non-OK Status (acceptable under faults)
  kIncorrect,   // OK status but wrong output, or leaked scratch files
};

struct TrialResult {
  uint64_t seed = 0;
  TrialOutcome outcome = TrialOutcome::kIncorrect;
  Status sort_status;   // what AlphaSort::Run returned
  std::string detail;   // why the trial was classified as it was
  SortMetrics metrics;  // per-trial sort metrics (retries, checksums...)
  uint64_t faults_injected = 0;
  uint64_t plan_overrides = 0;

  std::string ToString() const;
};

struct CampaignConfig {
  uint64_t base_seed = 1;
  int trials = 200;
  // Records per trial; kept small so hundreds of sorts stay fast. Trials
  // randomize geometry (striping, passes, fan-in) around this size.
  uint64_t max_records = 4000;
  bool verbose = false;  // keep per-trial results for non-failures too
};

struct CampaignReport {
  int correct = 0;
  int clean_errors = 0;
  int incorrect = 0;
  uint64_t total_faults_injected = 0;
  uint64_t total_retries = 0;
  uint64_t total_retries_recovered = 0;
  uint64_t total_runs_checksum_verified = 0;
  // Every kIncorrect trial, always; every trial when config.verbose.
  std::vector<TrialResult> trials;

  int total() const { return correct + clean_errors + incorrect; }
  std::string ToString() const;
};

// Derives a reproducible randomized FaultPlan from `seed`. `scratch_hint`
// is a path substring identifying scratch-run files, the only place the
// plan ever injects *silent* write corruption: corrupting them exercises
// the run-checksum defence, while silently corrupting the final output
// would be an undetectable wrong answer by construction.
FaultPlan MakeCampaignPlan(uint64_t seed, const std::string& scratch_hint);

// Runs one seeded trial against a fresh MemEnv and classifies it.
TrialResult RunFaultTrial(uint64_t seed, uint64_t max_records);

// Runs config.trials seeded trials (seeds base_seed, base_seed+1, ...).
CampaignReport RunFaultCampaign(const CampaignConfig& config);

}  // namespace alphasort

#endif  // ALPHASORT_BENCHLIB_FAULT_CAMPAIGN_H_
