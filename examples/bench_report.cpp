// bench_report: the microbenchmark and paper-table suites behind the
// BENCH_*.json trajectory (scripts/bench.sh, scripts/bench_compare.py).
//
//   ./bench_report [--smoke] [--name NAME] [--out FILE]
//                  [--suite NAME]... [--workers K]
//
// Runs five suites — the paper's run-generation comparison (§4
// QuickSort vs replacement-selection), output-stripe scaling (§6),
// the 8B-vs-16B entry ablation (§7), hot-kernel microbenchmarks (entry
// build, merge, gather, partitioned merge; docs/perf.md) and SortService
// concurrency scaling (docs/service.md) — and writes one BenchReport JSON
// (kind "alphasort.bench_report") with a numeric metrics object per
// configuration. End-to-end sort speed is not measured here: the
// benchmark of record is perfbench/ (BENCHMARK.json). --smoke shrinks
// every input so the whole suite runs in seconds (CI); sizes are part of
// each entry's config string, so smoke and full runs never silently
// compare against each other. --suite filters to the named suite(s);
// --out defaults to BENCH_<name>.json in the current directory.
//
// A row whose measured work fails (a failed or unverified sort, a short
// service job count, a kernel that disagrees with its reference or loses
// records) is named on stderr; the report is still written, and the run
// exits 1.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "benchlib/datamation.h"
#include "benchlib/service_bench.h"
#include "common/checksum.h"
#include "common/huge_pages.h"
#include "common/prefetch.h"
#include "common/simd.h"
#include "common/table.h"
#include "core/sorter.h"
#include "obs/report.h"
#include "record/generator.h"
#include "sort/compact_entry.h"
#include "sort/merge_partition.h"
#include "sort/merger.h"
#include "sort/quicksort.h"
#include "sort/radix_partition.h"
#include "sort/replacement_selection.h"
#include "sim/cache_sim.h"

using namespace alphasort;

namespace {

double TimedSeconds(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct BenchConfig {
  bool smoke = false;
  int workers = 3;
};

// "suite: config" of every row whose measured work failed; main exits 1
// on any, after writing the report.
std::vector<std::string> g_failed_rows;

void FailRow(const char* suite, const std::string& config,
             const std::string& why) {
  std::string row = StrFormat("%s: %s", suite, config.c_str());
  fprintf(stderr, "FAILED %s: %s\n", row.c_str(), why.c_str());
  g_failed_rows.push_back(std::move(row));
}

// --- §4: QuickSort vs replacement-selection run generation.
void RunQuicksortVsReplacement(const BenchConfig& cfg,
                               obs::BenchReport* report) {
  const size_t records = cfg.smoke ? 60000 : 400000;
  const size_t capacity = 10000;
  RecordGenerator gen(kDatamationFormat, 77);
  const auto block = gen.Generate(KeyDistribution::kUniform, records);

  {
    std::vector<PrefixEntry> entries(records);
    size_t runs = 0;
    const double s = TimedSeconds([&] {
      BuildPrefixEntryArray(kDatamationFormat, block.data(), records,
                            entries.data());
      for (size_t start = 0; start < records; start += capacity) {
        SortPrefixEntryArray(kDatamationFormat, entries.data() + start,
                             std::min(capacity, records - start));
        ++runs;
      }
    });
    obs::BenchEntry e;
    e.suite = "quicksort_vs_replacement";
    e.config = StrFormat("algo=quicksort n=%zu W=%zu", records, capacity);
    e.values = {{"seconds", s},
                {"records_per_s", records / s},
                {"runs", double(runs)},
                {"avg_run_over_W", double(records) / runs / capacity}};
    report->entries.push_back(std::move(e));
  }

  for (const TreeLayout layout : {TreeLayout::kFlat, TreeLayout::kClustered}) {
    size_t runs = 0;
    const double s = TimedSeconds([&] {
      ReplacementSelection<NullTracer> rs(
          kDatamationFormat, capacity, [](size_t, const char*) {}, layout);
      for (size_t i = 0; i < records; ++i) {
        rs.Add(block.data() + i * kDatamationFormat.record_size);
      }
      rs.Finish();
      runs = rs.num_runs();
    });
    obs::BenchEntry e;
    e.suite = "quicksort_vs_replacement";
    e.config = StrFormat(
        "algo=replacement_%s n=%zu W=%zu",
        layout == TreeLayout::kFlat ? "flat" : "clustered", records,
        capacity);
    e.values = {{"seconds", s},
                {"records_per_s", records / s},
                {"runs", double(runs)},
                {"avg_run_over_W", double(records) / runs / capacity}};
    report->entries.push_back(std::move(e));
  }
}

// --- §6: output-stripe scaling, in-memory Env.
void RunStriping(const BenchConfig& cfg, obs::BenchReport* report) {
  const uint64_t records = cfg.smoke ? 50000 : 500000;
  for (const size_t width : {1, 2, 4}) {
    const std::string config =
        StrFormat("width=%zu n=%llu workers=%d", width,
                  static_cast<unsigned long long>(records), cfg.workers);
    std::unique_ptr<Env> env = NewMemEnv();
    InputSpec spec;
    spec.path = StrFormat("bench_in_w%zu.str", width);
    spec.num_records = records;
    spec.stripe_width = width;
    if (Status s = CreateInputFile(env.get(), spec); !s.ok()) {
      FailRow("striping", config, "input: " + s.ToString());
      continue;
    }
    const std::string out = StrFormat("bench_out_w%zu.str", width);
    if (Status s = CreateOutputDefinition(env.get(), out, width,
                                          spec.stride_bytes);
        !s.ok()) {
      FailRow("striping", config, "output: " + s.ToString());
      continue;
    }
    SortOptions opts;
    opts.input_path = spec.path;
    opts.output_path = out;
    opts.num_workers = cfg.workers;
    Sorter sorter(env.get(), [&cfg] {
      Sorter::Resources r;
      r.num_workers = cfg.workers;
      return r;
    }());
    const SortResult& result = sorter.Start(opts).Wait();
    Status s = result.status;
    if (s.ok()) s = ValidateSortedFile(env.get(), spec.path, out, opts.format);
    if (!s.ok()) {
      FailRow("striping", config, s.ToString());
      continue;
    }
    const SortMetrics& m = result.metrics;
    obs::BenchEntry e;
    e.suite = "striping";
    e.config = config;
    e.values = {{"seconds", m.total_s},
                {"mb_per_s", m.Throughput().mb_per_s},
                {"read_phase_s", m.read_phase_s},
                {"merge_phase_s", m.merge_phase_s}};
    report->entries.push_back(std::move(e));
  }
}

// --- §7: 8-byte vs 16-byte sort entries.
void RunEntryWidth(const BenchConfig& cfg, obs::BenchReport* report) {
  const size_t n = cfg.smoke ? 50000 : 1000000;
  RecordGenerator gen(kDatamationFormat, 44);
  const auto block = gen.Generate(KeyDistribution::kUniform, n);

  {
    std::vector<PrefixEntry> wide(n);
    BuildPrefixEntryArray(kDatamationFormat, block.data(), n, wide.data());
    SortStats stats;
    const double s = TimedSeconds([&] {
      SortPrefixEntryArray(kDatamationFormat, wide.data(), n, &stats);
    });
    obs::BenchEntry e;
    e.suite = "entry_width";
    e.config = StrFormat("entry=16B n=%zu", n);
    e.values = {{"sort_s", s},
                {"records_per_s", n / s},
                {"ties_per_record", double(stats.tie_breaks) / n}};
    report->entries.push_back(std::move(e));
  }
  {
    std::vector<CompactEntry> narrow(n);
    BuildCompactEntryArray(kDatamationFormat, block.data(), n,
                           narrow.data());
    SortStats stats;
    const double s = TimedSeconds([&] {
      SortCompactEntryArray(kDatamationFormat, block.data(), narrow.data(),
                            n, &stats);
    });
    obs::BenchEntry e;
    e.suite = "entry_width";
    e.config = StrFormat("entry=8B n=%zu", n);
    e.values = {{"sort_s", s},
                {"records_per_s", n / s},
                {"ties_per_record", double(stats.tie_breaks) / n}};
    report->entries.push_back(std::move(e));
  }
}

// --- Hot-kernel microbenchmarks behind docs/perf.md: entry build,
// QuickSort, the tournament merge, gather, and the key-range-partitioned
// merge at 1/2/4 ranges. Sizes are FIXED at Datamation scale (1M
// records) regardless of --smoke: the whole suite runs in a few seconds
// either way, and fixed sizes keep the config strings of CI smoke runs
// and the committed BENCH_kernels.json trajectory identical, so
// bench_compare always finds comparable pairs.
//
// The partitioned entries report two times. `wall_s` is what this
// machine measured: the ranges run back to back (CI containers often
// expose a single CPU, where true concurrency is impossible).
// `critical_path_s` = partition_s + max per-range time is the phase's
// load-balance bound — the wall clock a machine with >= `ranges` idle
// cores would see, since ranges share nothing but read-only entries.
// `speedup_vs_seq` compares critical paths against the ranges=1 entry of
// the same run. docs/perf.md discusses both numbers.
void RunKernels(const BenchConfig& cfg, obs::BenchReport* report) {
  (void)cfg;  // fixed-size by design, see above
  const RecordFormat fmt = kDatamationFormat;
  const size_t n = 1000000;
  const size_t run_records = 100000;
  RecordGenerator gen(fmt, 99);
  const auto block = gen.Generate(KeyDistribution::kUniform, n);

  auto push = [report](std::string config,
                       std::vector<std::pair<std::string, double>> values) {
    obs::BenchEntry e;
    e.suite = "kernels";
    e.config = std::move(config);
    e.values = std::move(values);
    report->entries.push_back(std::move(e));
  };

  // Entry-array build, both widths, prefetch hints on and off, simd path
  // on and off. The default (simd on where compiled) rows keep the
  // baseline config strings so the trajectory shows the vectorization win
  // directly; the forced-scalar A/B rows carry an explicit simd=0.
  //
  // The build itself runs in single-digit milliseconds, so each row is
  // the best of five timed runs after two untimed warm-ups (faulting in
  // the output pages, warming the record block, and letting the clock
  // governor ramp). Without this, whichever row runs first eats the page
  // faults and the frequency ramp, and the A/B comparison measures the
  // machine settling, not the kernel.
  auto best_of = [](const std::function<void()>& fn) {
    fn();
    fn();
    double best = TimedSeconds(fn);
    for (int rep = 0; rep < 4; ++rep) best = std::min(best, TimedSeconds(fn));
    return best;
  };
  {
    std::vector<PrefixEntry> prefix_out(n);
    std::vector<CompactEntry> compact_out(n);
    for (const bool simd_on : {true, false}) {
      simd::ScopedForceScalar force(!simd_on);
      const double active = simd::VectorActive() ? 1.0 : 0.0;
      const char* suffix = simd_on ? "" : " simd=0";
      for (const size_t dist : {kDefaultPrefetchDistance, size_t{0}}) {
        const double s16 = best_of([&] {
          BuildPrefixEntryArray(fmt, block.data(), n, prefix_out.data(),
                                dist);
        });
        push(StrFormat("kernel=entry_build entry=16B n=%zu prefetch=%zu%s",
                       n, dist, suffix),
             {{"seconds", s16},
              {"records_per_s", n / s16},
              {"simd_active", active}});
        const double s8 = best_of([&] {
          BuildCompactEntryArray(fmt, block.data(), n, compact_out.data(),
                                 dist);
        });
        push(StrFormat("kernel=entry_build entry=8B n=%zu prefetch=%zu%s",
                       n, dist, suffix),
             {{"seconds", s8},
              {"records_per_s", n / s8},
              {"simd_active", active}});
      }
    }
  }

  // CRC-32C over the whole record block (the size of every checksum pass
  // a one-pass sort of this input makes): the CRC-32C instruction, then
  // the slice-by-8 fallback as simd=0. Both must return the same value.
  {
    uint32_t crcs[2] = {0, 0};
    for (const bool simd_on : {true, false}) {
      simd::ScopedForceScalar force(!simd_on);
      const double active =
          simd::kHasCrc32c && simd::VectorActive() ? 1.0 : 0.0;
      uint32_t& crc = crcs[simd_on ? 0 : 1];
      const double s =
          best_of([&] { crc = Crc32c(block.data(), block.size()); });
      push(StrFormat("kernel=crc32c n=%zu%s", n, simd_on ? "" : " simd=0"),
           {{"seconds", s},
            {"gb_per_s", double(block.size()) / 1e9 / s},
            {"simd_active", active}});
    }
    if (crcs[0] != crcs[1]) {
      FailRow("kernels", StrFormat("kernel=crc32c n=%zu", n),
              "hardware CRC != slice-by-8");
    }
  }

  // Cache-sim miss counts per in-cache kernel, on one W-sized run (the
  // simulator is ~1000x slower than the real kernel, so the sample stays
  // small; the counts are per-kernel shape, not throughput).
  auto simulate_kernel = [&](const std::vector<char>& blk,
                             SortKernel kernel) {
    const size_t sim_n = std::min(run_records, n);
    std::vector<PrefixEntry> sim_entries(sim_n);
    BuildPrefixEntryArray(fmt, blk.data(), sim_n, sim_entries.data());
    CacheSim sim;
    SortStats stats;
    if (kernel == SortKernel::kAuto) {
      RadixSortPrefixEntries(fmt, sim_entries.data(), sim_n, &stats, &sim);
    } else {
      QuickSortPrefixEntries(fmt, sim_entries.data(), sim_n, &stats, &sim);
    }
    const CacheSim::Stats& cs = sim.stats();
    return std::vector<std::pair<std::string, double>>{
        {"sim_dcache_miss_rate", cs.DcacheMissRate()},
        {"sim_memory_accesses", double(cs.memory_accesses)},
        {"sim_tlb_misses", double(cs.tlb_misses)},
        {"sim_stall_cycles", double(cs.StallCycles())}};
  };

  // QuickSort the read phase's runs of `blk`, then the MSB-radix hybrid
  // (sort/radix_partition.h) over the same runs on fresh entries. Returns
  // the QuickSorted entries.
  auto sort_rows = [&](const std::vector<char>& blk,
                       const std::string& suffix) {
    std::vector<PrefixEntry> sorted(n);
    BuildPrefixEntryArray(fmt, blk.data(), n, sorted.data());
    size_t num_runs = 0;
    const double qs_s = TimedSeconds([&] {
      for (size_t start = 0; start < n; start += run_records) {
        SortPrefixEntryArray(fmt, sorted.data() + start,
                             std::min(run_records, n - start));
        ++num_runs;
      }
    });
    {
      std::vector<std::pair<std::string, double>> values = {
          {"seconds", qs_s},
          {"records_per_s", n / qs_s},
          {"runs", double(num_runs)}};
      for (auto& kv : simulate_kernel(blk, SortKernel::kQuickSort)) {
        values.push_back(std::move(kv));
      }
      push(StrFormat("kernel=quicksort n=%zu W=%zu", n, run_records) +
               suffix,
           std::move(values));
    }

    std::vector<PrefixEntry> radix_entries(n);
    BuildPrefixEntryArray(fmt, blk.data(), n, radix_entries.data());
    RadixStats shape;
    size_t radix_runs = 0;
    const double rx_s = TimedSeconds([&] {
      for (size_t start = 0; start < n; start += run_records) {
        RadixSortPrefixEntryArray(fmt, radix_entries.data() + start,
                                  std::min(run_records, n - start), nullptr,
                                  &shape);
        ++radix_runs;
      }
    });
    std::vector<std::pair<std::string, double>> values = {
        {"seconds", rx_s},
        {"records_per_s", n / rx_s},
        {"runs", double(radix_runs)},
        {"radix_passes", double(shape.partition_passes)},
        {"tie_shortcuts", double(shape.tie_shortcuts)}};
    for (auto& kv : simulate_kernel(blk, SortKernel::kAuto)) {
      values.push_back(std::move(kv));
    }
    const std::string config =
        StrFormat("kernel=radix_hybrid n=%zu W=%zu", n, run_records) + suffix;
    push(config, std::move(values));
    // Cross-check: both kernels must agree bit for bit (same total
    // order); a mismatch is a correctness bug, not a perf question.
    if (memcmp(sorted.data(), radix_entries.data(),
               n * sizeof(PrefixEntry)) != 0) {
      FailRow("kernels", config, "output != quicksort output");
    }
    return sorted;
  };

  // The sorted uniform entries feed every merge kernel below. The
  // dist=zipfian twins gate the tie-heavy key shape of the net workload,
  // whose hot keys reach the introsort's tie-break path.
  const std::vector<PrefixEntry> entries = sort_rows(block, "");
  sort_rows(RecordGenerator(fmt, 99).Generate(KeyDistribution::kZipfian, n),
            " dist=zipfian");

  std::vector<EntryRun> runs;
  for (size_t start = 0; start < n; start += run_records) {
    const size_t len = std::min(run_records, n - start);
    runs.push_back(
        EntryRun{entries.data() + start, entries.data() + start + len});
  }

  // Tournament merge alone (pointer stream, no gather). The row keeps its
  // `prefetch=0` config name: the merge issues no prefetch hints.
  const size_t batch = std::max<size_t>(1, (1 << 20) / fmt.record_size);
  std::vector<const char*> ptrs(n);
  {
    size_t produced = 0;
    const double s = TimedSeconds([&] {
      RunMerger<> merger(fmt, runs);
      while (!merger.Done()) {
        produced += merger.NextBatch(ptrs.data() + produced, batch);
      }
    });
    push(StrFormat("kernel=merge n=%zu runs=%zu prefetch=0", n, runs.size()),
         {{"seconds", s}, {"records_per_s", produced / s}});
  }

  // Gather along the merged pointer stream (the single record copy),
  // prefetch on and off. `ptrs` holds the full merged order from above.
  std::vector<char> out(n * fmt.record_size);
  for (const size_t dist : {kDefaultPrefetchDistance, size_t{0}}) {
    const double s = TimedSeconds(
        [&] { GatherRecords(fmt, ptrs.data(), n, out.data(), dist); });
    push(StrFormat("kernel=gather n=%zu prefetch=%zu", n, dist),
         {{"seconds", s},
          {"mb_per_s", double(n) * fmt.record_size / 1e6 / s}});
  }

  // Key-range-partitioned merge+gather at 1/2/4 ranges. Ranges run back
  // to back (see the suite comment for why), each timed alone.
  double seq_critical_path = 0;
  for (const size_t max_ranges : {size_t{1}, size_t{2}, size_t{4}}) {
    const std::string config =
        StrFormat("kernel=pmerge n=%zu runs=%zu max_ranges=%zu", n,
                  runs.size(), max_ranges);
    MergePartition part;
    const double partition_s = TimedSeconds(
        [&] { part = PartitionEntryRuns(fmt, runs, max_ranges); });
    double sum_s = 0, max_range_s = 0;
    uint64_t produced = 0;
    for (const MergeRange& range : part.ranges) {
      const double range_s = TimedSeconds([&] {
        RunMerger<> merger(fmt, range.runs);
        std::vector<const char*> range_ptrs(range.num_records);
        size_t got = 0;
        while (!merger.Done()) {
          got += merger.NextBatch(range_ptrs.data() + got, batch);
        }
        GatherRecords(fmt, range_ptrs.data(), got,
                      out.data() + range.first_record * fmt.record_size);
        produced += got;
      });
      sum_s += range_s;
      max_range_s = std::max(max_range_s, range_s);
    }
    if (produced != n) {
      FailRow("kernels", config,
              StrFormat("produced %llu records",
                        static_cast<unsigned long long>(produced)));
      continue;
    }
    const double critical_path_s = partition_s + max_range_s;
    if (max_ranges == 1) seq_critical_path = critical_path_s;
    push(config,
         {{"wall_s", partition_s + sum_s},
          {"partition_s", partition_s},
          {"critical_path_s", critical_path_s},
          {"max_range_s", max_range_s},
          {"ranges", double(part.NumRanges())},
          {"speedup_vs_seq",
           critical_path_s > 0 ? seq_critical_path / critical_path_s : 0}});
  }

  // The prefetch=8 gather again, from a records block advised onto
  // transparent huge pages the way the pipeline advises its record block
  // (common/huge_pages.h): a fresh plain allocation, advised before the
  // copy first touches it. It runs last, so its extra 100 MB cannot
  // disturb the rows above. `huge_page_mb` is what the kernel granted,
  // absent when it cannot say; 0 means the advice was not honoured and
  // the row measured 4 KiB pages.
  {
    const size_t bytes = n * fmt.record_size;
    std::unique_ptr<char[]> huge(new char[bytes]);
    AdviseHugePages(huge.get(), bytes);
    memcpy(huge.get(), block.data(), bytes);
    std::vector<const char*> huge_ptrs(n);
    for (size_t i = 0; i < n; ++i) {
      huge_ptrs[i] = huge.get() + (ptrs[i] - block.data());
    }
    const double s = TimedSeconds([&] {
      GatherRecords(fmt, huge_ptrs.data(), n, out.data(),
                    kDefaultPrefetchDistance);
    });
    std::vector<std::pair<std::string, double>> values = {
        {"seconds", s}, {"mb_per_s", double(bytes) / 1e6 / s}};
    if (const std::optional<uint64_t> granted =
            HugePageBytes(huge.get(), bytes)) {
      values.push_back({"huge_page_mb", double(*granted) / 1e6});
    }
    push(StrFormat("kernel=gather n=%zu prefetch=%zu pages=huge", n,
                   kDefaultPrefetchDistance),
         std::move(values));
  }
}

// --- SortService aggregate throughput vs job concurrency, with and
// without transient fault injection (docs/service.md).
void RunService(const BenchConfig& cfg, obs::BenchReport* report) {
  const uint64_t records = cfg.smoke ? 20000 : 100000;
  for (const bool faults : {false, true}) {
    for (const int running : {1, 2, 4}) {
      ServiceBenchConfig sb;
      sb.num_jobs = 8;
      sb.records_per_job = records;
      sb.max_running = running;
      sb.service_budget = 64ull << 20;
      sb.job_budget = 16ull << 20;
      sb.num_workers = cfg.workers;
      sb.inject_faults = faults;
      const std::string config = StrFormat(
          "jobs=%d running=%d n=%llu workers=%d faults=%d", sb.num_jobs,
          running, static_cast<unsigned long long>(records), cfg.workers,
          faults ? 1 : 0);
      const ServiceBenchResult r = RunServiceBench(sb);
      if (r.jobs_ok != sb.num_jobs) {
        FailRow("service", config, r.ToString());
        continue;
      }
      obs::BenchEntry e;
      e.suite = "service";
      e.config = config;
      e.values = {{"seconds", r.wall_s},
                  {"aggregate_mb_per_s", r.aggregate_mb_per_s},
                  {"peak_admitted_mb", r.peak_admitted_bytes / 1e6},
                  {"down_negotiated", double(r.down_negotiated)}};
      report->entries.push_back(std::move(e));
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig cfg;
  std::string name;
  std::string out_path;
  std::vector<std::string> only;
  for (int i = 1; i < argc; ++i) {
    if (strcmp(argv[i], "--smoke") == 0) {
      cfg.smoke = true;
    } else if (strcmp(argv[i], "--name") == 0 && i + 1 < argc) {
      name = argv[++i];
    } else if (strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (strcmp(argv[i], "--suite") == 0 && i + 1 < argc) {
      only.push_back(argv[++i]);
    } else if (strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      cfg.workers = atoi(argv[++i]);
    } else {
      fprintf(stderr,
              "usage: %s [--smoke] [--name NAME] [--out FILE] "
              "[--suite NAME]... [--workers K]\n",
              argv[0]);
      return 2;
    }
  }
  if (name.empty()) name = cfg.smoke ? "smoke" : "full";
  if (out_path.empty()) out_path = "BENCH_" + name + ".json";

  obs::BenchReport report;
  report.name = name;
  const std::pair<const char*, void (*)(const BenchConfig&,
                                        obs::BenchReport*)>
      suites[] = {
          {"quicksort_vs_replacement", RunQuicksortVsReplacement},
          {"striping", RunStriping},
          {"entry_width", RunEntryWidth},
          {"kernels", RunKernels},
          {"service", RunService},
      };
  for (const std::string& want : only) {
    if (std::none_of(
            std::begin(suites), std::end(suites),
            [&want](const auto& suite) { return want == suite.first; })) {
      fprintf(stderr, "bench_report: unknown suite %s\n", want.c_str());
      return 2;
    }
  }
  for (const auto& [suite_name, fn] : suites) {
    if (!only.empty() &&
        std::find(only.begin(), only.end(), suite_name) == only.end()) {
      continue;
    }
    printf("running suite: %s\n", suite_name);
    fn(cfg, &report);
  }
  if (report.entries.empty()) {
    fprintf(stderr, "bench_report: no rows measured\n");
    return 1;
  }

  const std::string json = report.ToJson();
  if (Status s = obs::ValidateBenchReportJson(json); !s.ok()) {
    fprintf(stderr, "bench_report: self-check failed: %s\n",
            s.ToString().c_str());
    return 1;
  }
  FILE* f = fopen(out_path.c_str(), "w");
  if (f == nullptr ||
      fwrite(json.data(), 1, json.size(), f) != json.size()) {
    fprintf(stderr, "bench_report: write %s failed\n", out_path.c_str());
    if (f != nullptr) fclose(f);
    return 1;
  }
  fclose(f);

  printf("\n%s", report.ToText().c_str());
  printf("\nwrote %s (%zu entries)\n", out_path.c_str(),
         report.entries.size());
  if (!g_failed_rows.empty()) {
    fprintf(stderr, "bench_report: %zu row(s) failed:\n",
            g_failed_rows.size());
    for (const std::string& row : g_failed_rows) {
      fprintf(stderr, "  %s\n", row.c_str());
    }
    return 1;
  }
  return 0;
}
