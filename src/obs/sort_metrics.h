#ifndef ALPHASORT_OBS_SORT_METRICS_H_
#define ALPHASORT_OBS_SORT_METRICS_H_

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>

#include "obs/metrics.h"
#include "obs/perf_counters.h"
#include "sort/quicksort.h"

// SortMetrics lives with the observability layer (obs/report.h folds it
// into the versioned SortReport JSON) but stays in the top-level
// alphasort namespace: it is the result struct of AlphaSort::Run and
// predates the move.

namespace alphasort {

// Latency/volume summary of one direction of IO (reads or writes),
// filled from the obs::MetricsEnv histograms the pipeline wraps around
// every sort's env. Percentiles are microseconds.
struct IoLatencyStats {
  uint64_t ops = 0;
  uint64_t bytes = 0;
  double p50_us = 0;
  double p95_us = 0;
  double p99_us = 0;
  double max_us = 0;

  bool Valid() const { return ops > 0; }
};

// Sort throughput derived from a SortMetrics (see
// SortMetrics::Throughput); zero when the sort recorded no time.
struct SortThroughput {
  double mb_per_s = 0;       // input megabytes (1e6 bytes) per second
  double records_per_s = 0;
};

// Wall-clock phase breakdown of one sort, mirroring the paper's §7
// walkthrough (open/read/QuickSort overlap, last run, merge+gather+write,
// close) — the data behind Figure 7's "where the time goes".
struct SortMetrics {
  double startup_s = 0;      // opens, output creation, planning
  double read_phase_s = 0;   // striped read overlapped with QuickSorts
  double last_run_s = 0;     // final QuickSort (and spill) after EOF
  double merge_phase_s = 0;  // merge + gather + striped write
  double close_s = 0;        // closes and cleanup
  double total_s = 0;

  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  uint64_t num_records = 0;
  uint64_t num_runs = 0;
  // Key ranges the final merge was split into: the in-memory merge of a
  // one-pass sort, the last scratch-run merge of a two-pass sort (1 = the
  // classic single global tournament; >1 = the §5 partitioned parallel
  // merge, up to two ranges per worker; see docs/perf.md).
  uint64_t merge_ranges = 1;
  int passes = 1;
  uint64_t scratch_bytes_written = 0;  // two-pass only

  SortStats quicksort_stats;
  SortStats merge_stats;

  // Bytes of the record block that transparent huge pages back, as the
  // kernel's page tables report them once the first block is read
  // (common/huge_pages.h; the pipeline advises a known-size block's
  // 2 MiB-aligned interior). What was granted, not what was asked.
  // std::nullopt — "unknown" in reports — when the kernel cannot say, or
  // when the sort had no record block to measure (a resident source, or
  // a pass body other than the default: vms, hypercube, merge).
  std::optional<uint64_t> record_block_huge_page_bytes;

  // Fault-tolerance telemetry (docs/fault_tolerance.md). Retry counts
  // come from the RetryEnv the pipeline wraps around the caller's Env:
  // io_retries counts re-attempts after transient IOErrors, io_retries
  // recovered counts operations that then succeeded, and a non-zero
  // io_retries_exhausted means some operation failed every attempt (the
  // sort reported that error). runs_checksum_verified counts spilled runs
  // whose CRC-32C matched on merge-read; output_crc32c is the CRC-32C of
  // the sorted output byte stream (both passes compute it).
  uint64_t io_retries = 0;
  uint64_t io_retries_recovered = 0;
  uint64_t io_retries_exhausted = 0;
  uint64_t runs_checksum_verified = 0;
  uint32_t output_crc32c = 0;

  // Per-direction IO latency percentiles: reads cover the read phase's
  // striped input (plus scratch re-reads on two-pass sorts), writes cover
  // the merge phase's output (plus scratch spills). Empty when IO metrics
  // collection is disabled.
  IoLatencyStats read_io;
  IoLatencyStats write_io;

  // This run's traffic through the process-global metrics registry
  // (async IO scheduler waits, stripe fanout, chore counts, retries):
  // the delta of a Snapshot() taken before and after the sort, so
  // back-to-back runs in one process each report only their own events.
  obs::RegistrySnapshot registry_delta;

  // Hardware counters (cycles, instructions, cache refs/misses, branch
  // misses) per pipeline stage, keyed by the stage's trace span name —
  // "quicksort.run", "merge.batch", "gather.slice", "merge.seal",
  // "merge.partition", "merge.range", the phases ("sort.startup",
  // "sort.read_phase", "sort.last_run", "sort.merge_phase",
  // "sort.close") and "sort.run" — sampled via perf_event_open by every
  // obs::Stage the sort opens. Regions overlap by design (phases contain
  // their chores), like the paper's Figure 7 overlap accounting. When the
  // syscall is denied (containers, perf_event_paranoid) every region
  // reports available=false with the reason instead of failing the sort.
  obs::PerfReport perf;

  // Sum of the five phase laps. `total_s` is measured independently by
  // the pipeline; the two agree within timer noise, and ToString() flags
  // a total that drifts from its parts (a phase not being timed).
  double PhaseSum() const {
    return startup_s + read_phase_s + last_run_s + merge_phase_s + close_s;
  }

  // MB/s and records/s over the total wall clock (falling back to the
  // phase sum when total_s was never set). The single definition used by
  // ToString() and the benches.
  SortThroughput Throughput() const;

  std::string ToString() const;
};

// Monotonic stopwatch for phase timing.
class PhaseTimer {
 public:
  PhaseTimer() : start_(Clock::now()) {}

  // Seconds since construction or the last Lap().
  double Lap() {
    const auto now = Clock::now();
    const double s = std::chrono::duration<double>(now - start_).count();
    start_ = now;
    return s;
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace alphasort

#endif  // ALPHASORT_OBS_SORT_METRICS_H_
