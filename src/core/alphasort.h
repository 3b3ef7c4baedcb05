#ifndef ALPHASORT_CORE_ALPHASORT_H_
#define ALPHASORT_CORE_ALPHASORT_H_

#include "core/options.h"
#include "io/env.h"
#include "obs/sort_metrics.h"

// Deprecation attribute for the legacy one-shot entry points, opt-in so
// existing builds stay warning-clean: define ALPHASORT_STRICT_DEPRECATION
// (scripts/ci.sh --stage=api does, with warnings as errors) to surface
// every remaining call site as [[deprecated]].
#if defined(ALPHASORT_STRICT_DEPRECATION)
#define ALPHASORT_DEPRECATED(msg) [[deprecated(msg)]]
#else
#define ALPHASORT_DEPRECATED(msg)
#endif

namespace alphasort {

// AlphaSort: a cache-conscious external sort (Nyberg, Barclay, Cvetanovic,
// Gray, Lomet — SIGMOD 1994).
//
// The pipeline (paper §7):
//   1. Open the (striped) input and create the (striped) output, with
//      asynchronous per-member opens.
//   2. Stream the input with triple-buffered asynchronous reads; as each
//      run's worth of records lands in memory, a worker extracts
//      (key-prefix, pointer) pairs and QuickSorts them, overlapping CPU
//      with IO.
//   3. Merge the QuickSorted runs with a cache-resident tournament,
//      producing an in-order stream of record pointers; workers gather
//      (copy) the records into output buffers — the only record copy —
//      while the root streams the buffers to the output stripe.
//
// When the input does not fit in `memory_budget`, the sort runs in two
// passes (§6): pass one writes QuickSorted record runs to scratch files,
// pass two streams and merges them.
//
// Typical use:
//   SortOptions opts;
//   opts.input_path = "in.str";
//   opts.output_path = "out.str";   // definition must already exist
//   opts.num_workers = 3;
//   SortMetrics metrics;
//   Status s = AlphaSort::Run(GetPosixEnv(), opts, &metrics);
//
// AlphaSort::Run is the historical one-shot entry point, kept as a thin
// wrapper over the instance-based job API (core/sorter.h): it builds a
// transient Sorter, Start()s the one job, and Wait()s. Code that runs
// more than one sort — or wants cancellation handles, deadlines, or
// shared IO/worker pools — should use Sorter::Start directly, and code
// that needs admission control across concurrent sorts should submit to
// a SortService (src/svc/sort_service.h, docs/service.md).
class AlphaSort {
 public:
  // Sorts input to output; fills `metrics` (optional) with the phase
  // breakdown. Returns the first error encountered; on error the output
  // file contents are unspecified. Equivalent to
  // Sorter(env).Start(options).Wait() with pools sized from `options`.
  ALPHASORT_DEPRECATED(
      "use Sorter::Start (core/sorter.h) or svc::SortService; see "
      "docs/api.md")
  static Status Run(Env* env, const SortOptions& options,
                    SortMetrics* metrics = nullptr);
};

}  // namespace alphasort

#endif  // ALPHASORT_CORE_ALPHASORT_H_
