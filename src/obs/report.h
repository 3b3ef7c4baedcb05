#ifndef ALPHASORT_OBS_REPORT_H_
#define ALPHASORT_OBS_REPORT_H_

#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "obs/sort_metrics.h"

namespace alphasort {
namespace obs {

// Structured sort reports and benchmark trajectories.
//
// The paper's evidence is a handful of tables: Figure 7's "where do the
// 9.11 seconds go" and Figure 4's cache-misses-per-compare. A SortReport
// is the machine-readable version of that evidence for one run — the
// phase breakdown, throughput, IO latency percentiles, fault-tolerance
// telemetry, the run's metrics-registry delta, and hardware cache
// counters — under one versioned JSON schema, plus a Figure-7-style text
// rendering. A BenchReport is the same discipline applied across runs:
// a named suite of configurations with numeric metrics, written as
// BENCH_<name>.json at the repo root so successive PRs accumulate a
// comparable perf trajectory (scripts/bench.sh, scripts/bench_compare.py).
//
// Schema stability contract: consumers match on `kind` and
// `schema_version`. Adding keys is backward compatible; removing or
// renaming any key the validators below require bumps kSchemaVersion.
// `schema_minor` records additive revisions within a major version
// (minor 1: registry.gauges is always present; minor 2:
// hardware_counters.regions is keyed by the trace span names, e.g.
// "quicksort.run", "sort.merge_phase", "sort.run"; minor 3:
// memory.record_block_huge_page_bytes, a number or "unknown").

// One sort's full report.
struct SortReport {
  static constexpr int kSchemaVersion = 1;
  static constexpr int kSchemaVersionMinor = 3;
  static constexpr const char* kKind = "alphasort.sort_report";

  std::string tool;    // producing binary, e.g. "asort"
  std::string config;  // free-form flag/config summary
  SortMetrics metrics;

  // The versioned JSON document (docs/observability.md lists the
  // schema).
  std::string ToJson() const;

  // Human rendering: the Figure-7 phase table, IO percentiles, and the
  // per-region hardware-counter table.
  std::string ToText() const;
};

// Checks that `json` parses and carries the v1 sort-report schema:
// kind/schema_version, the phase breakdown (whose parts must sum to the
// total within overlap/timer tolerance), throughput, IO percentiles, and
// a hardware_counters section that is either populated or explicitly
// marked unavailable.
Status ValidateSortReportJson(const std::string& json);

// One benchmark configuration's numeric results.
struct BenchEntry {
  std::string suite;   // e.g. "quicksort_vs_replacement"
  std::string config;  // e.g. "width=4"
  std::vector<std::pair<std::string, double>> values;  // metric -> value
};

// A named benchmark run: the unit of the BENCH_*.json perf trajectory.
struct BenchReport {
  static constexpr int kSchemaVersion = 1;
  static constexpr const char* kKind = "alphasort.bench_report";

  std::string name;  // "smoke", "full", ... -> BENCH_<name>.json
  std::vector<BenchEntry> entries;

  std::string ToJson() const;
  std::string ToText() const;
};

// Checks the v1 bench-report schema: kind/schema_version/name and a
// non-empty suites array whose entries each carry suite, config, and a
// non-empty numeric metrics object.
Status ValidateBenchReportJson(const std::string& json);

}  // namespace obs
}  // namespace alphasort

#endif  // ALPHASORT_OBS_REPORT_H_
