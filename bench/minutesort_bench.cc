// Reproduces the §8 MinuteSort and DollarSort results: 1.08 GB/minute and
// 0.47 $/GB on the 3-CPU DEC 7000 (model), plus a real "sort as much as
// you can in N seconds" run on this host (Indy category, in-memory files;
// N defaults to 5 s, override with ALPHASORT_MINUTE_SECONDS).

#include <cstdio>
#include <cstdlib>

#include "benchlib/datamation.h"
#include "benchlib/minutesort.h"
#include "common/table.h"
#include "core/alphasort.h"
#include "obs/sort_metrics.h"

using namespace alphasort;

namespace {

// Sorts `records` in-memory records; returns the metrics (total_s < 0 on
// failure) so the caller can report time and throughput from one source.
SortMetrics HostSort(uint64_t records, int workers) {
  SortMetrics m;
  m.total_s = -1;
  auto env = NewMemEnv();
  InputSpec spec;
  spec.path = "in.dat";
  spec.num_records = records;
  if (!CreateInputFile(env.get(), spec).ok()) return m;
  SortOptions opts;
  opts.input_path = "in.dat";
  opts.output_path = "out.dat";
  opts.memory_budget = 8ull << 30;
  opts.num_workers = workers;
  m.total_s = 0;
  if (!AlphaSort::Run(env.get(), opts, &m).ok()) m.total_s = -1;
  return m;
}

}  // namespace

int main() {
  printf("=== §8: MinuteSort and DollarSort ===\n\n");

  printf("--- model: 1993 Alpha AXP systems ---\n\n");
  TextTable table({"System", "price", "GB/minute", "$/GB",
                   "paper", "DollarSort budget", "DollarSort GB"});
  auto systems = hw::Table8Systems();
  systems.push_back(hw::MinuteSortSystem());
  for (const auto& s : systems) {
    const auto minute = ComputeMinuteSort(s);
    const auto dollar = ComputeDollarSort(s);
    const bool headline = s.memory_mb > 1000;
    table.AddRow({s.name, StrFormat("%.0fk$", s.total_price_dollars / 1000),
                  StrFormat("%.2f", minute.gb_sorted),
                  StrFormat("%.2f", minute.dollars_per_gb),
                  headline ? "1.08 GB / 0.47 $/GB" : "-",
                  StrFormat("%.0f s", dollar.budget_seconds),
                  StrFormat("%.2f", dollar.gb_sorted)});
  }
  table.Print();

  // --- real host run ------------------------------------------------------
  const char* env_s = getenv("ALPHASORT_MINUTE_SECONDS");
  const double budget_s = env_s != nullptr ? atof(env_s) : 5.0;
  printf("\n--- real host MinuteSort (budget %.0f s, in-memory files) ---\n\n",
         budget_s);

  // Grow the input until a sort exceeds the budget; report the largest
  // size that fit (doubling then refinement, like a contest entry would).
  uint64_t records = 250000;
  uint64_t best_fit = 0;
  double best_time = 0;
  while (true) {
    const SortMetrics m = HostSort(records, 0);
    const double t = m.total_s;
    if (t < 0) break;
    // Per-run registry delta (not the cumulative process registry): each
    // doubling run reports only its own IO, so the aio counts scale with
    // this run's size instead of the whole loop's history.
    const uint64_t run_ios = m.registry_delta.counters.count("aio.submitted")
                                 ? m.registry_delta.counters.at("aio.submitted")
                                 : 0;
    printf("  %9llu records (%6.1f MB): %.2f s (%.0f MB/s, %llu aio ops)\n",
           static_cast<unsigned long long>(records), records * 100 / 1e6,
           t, m.Throughput().mb_per_s,
           static_cast<unsigned long long>(run_ios));
    if (t <= budget_s) {
      best_fit = records;
      best_time = t;
      records *= 2;
      if (records * 100ull > (6ull << 30)) break;  // stay within RAM
    } else {
      break;
    }
  }
  if (best_fit > 0) {
    printf("\nThis host sorts %.2f GB within %.0f s (last fitting run: "
           "%.2f s).\n",
           best_fit * 100 / 1e9, budget_s, best_time);
  }
  // §8's four trophies: Indy (purpose-built) vs Daytona (street-legal)
  // x MinuteSort vs DollarSort. This library fields entries in all four.
  printf("\n--- the four trophies (§8) ---\n\n");
  TextTable trophies({"category", "entry in this repository"});
  trophies.AddRow({"Indy-MinuteSort",
                   "examples/minute_sort (tuned pipeline, fixed format)"});
  trophies.AddRow({"Daytona-MinuteSort",
                   "examples/asort (general records, typed keys via "
                   "SortWithSchema)"});
  trophies.AddRow({"Indy-DollarSort",
                   "model: cheapest $/GB above (DEC 3000 class)"});
  trophies.AddRow({"Daytona-DollarSort",
                   "examples/asort on commodity hardware"});
  trophies.Print();

  printf(
      "\nShape check: the model lands on the paper's 1.08 GB/minute and\n"
      "0.47 $/GB for the 512 k$ DEC 7000; DollarSort gives cheaper systems\n"
      "more time (97 k$ buys ~10 minutes), the paper's argument for why\n"
      "'PCs could win the DollarSort benchmark'.\n");
  return 0;
}
