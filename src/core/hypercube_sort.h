#ifndef ALPHASORT_CORE_HYPERCUBE_SORT_H_
#define ALPHASORT_CORE_HYPERCUBE_SORT_H_

#include "core/options.h"
#include "io/env.h"
#include "obs/sort_metrics.h"

namespace alphasort {

// A shared-nothing partitioned sort in the style of the 32-node Intel
// iPSC/2 Hypercube record holder AlphaSort displaced (DeWitt, Naughton &
// Schneider, "Parallel Sorting on a Shared-Nothing Architecture Using
// Probabilistic Splitting" — the paper's reference [9] and Table 1's
// 58-second row):
//
//   "They read the disks in parallel, performing a preliminary sort of
//    the data at each source, and partition it into equal-sized parts.
//    Each reader-sorter sends the partitions to their respective target
//    partitions. Each target partition processor merges the many input
//    streams into a sorted run that is stored on the local disk." (§2)
//
// Here the "nodes" are threads over a shared address space (the exchange
// is a pointer hand-off instead of a network transfer), which preserves
// the algorithm's structure — probabilistic splitting, local sort,
// all-to-all exchange, per-node merge — for comparison against the
// shared-memory AlphaSort decomposition.
struct HypercubeOptions {
  int nodes = 4;
  // Splitter samples drawn per node; more samples = better balance
  // (probabilistic splitting's knob).
  size_t samples_per_node = 64;
};

// Per-phase timing and balance statistics of one run.
struct HypercubeMetrics {
  double read_s = 0;
  double local_sort_s = 0;      // parallel per-node QuickSorts
  double split_exchange_s = 0;  // splitter selection + partition hand-off
  double merge_write_s = 0;     // per-node P-way merge + gather + write
  double total_s = 0;
  uint64_t num_records = 0;
  // Partition balance: largest node partition over the ideal n/P.
  double max_skew = 0;
  // The shared pipeline harness's view of the run: phase laps, IO,
  // hardware-counter stages.
  SortMetrics sort;
};

class HypercubeSort {
 public:
  static Status Run(Env* env, const SortOptions& options,
                    const HypercubeOptions& hyper,
                    HypercubeMetrics* metrics = nullptr);
};

}  // namespace alphasort

#endif  // ALPHASORT_CORE_HYPERCUBE_SORT_H_
