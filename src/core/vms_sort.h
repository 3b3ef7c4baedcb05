#ifndef ALPHASORT_CORE_VMS_SORT_H_
#define ALPHASORT_CORE_VMS_SORT_H_

#include "core/options.h"
#include "io/env.h"
#include "obs/sort_metrics.h"

namespace alphasort {

// The baseline AlphaSort is measured against: a pure replacement-selection
// external sort in the style of the OpenVMS Sort utility (paper §4: "By
// comparison, OpenVMS sort uses a pure replacement-selection sort to
// generate runs. Replacement-selection is best for a memory constrained
// environment: on average [it] generates runs twice as large as memory").
//
// Pass 1 streams the input through a tournament of
// memory_budget/record_size records, emitting snowplow runs (~2x the
// tournament size on random input) to scratch files. Pass 2 merges them
// with the same streamed tournament merge AlphaSort's two-pass mode uses.
//
// Always two passes and always one record copy per pass — the structure
// whose cache behaviour and CPU cost §4 compares unfavourably with
// QuickSorted (key-prefix, pointer) runs.
class VmsSort {
 public:
  static Status Run(Env* env, const SortOptions& options,
                    SortMetrics* metrics = nullptr);
};

}  // namespace alphasort

#endif  // ALPHASORT_CORE_VMS_SORT_H_
