#ifndef ALPHASORT_CORE_TYPED_SORT_H_
#define ALPHASORT_CORE_TYPED_SORT_H_

#include "core/options.h"
#include "io/env.h"
#include "obs/sort_metrics.h"
#include "record/key_conditioner.h"

namespace alphasort {

// Sorts a file of fixed-width records by a typed, possibly composite key
// (paper §4's industrial-sort workflow): each record's key fields are
// conditioned into memcmp-able bytes and "stored with the record as an
// added field", the widened records go through the standard
// cache-conscious pipeline, and the added field is stripped from the
// output — which ends up byte-identical records in typed-key order.
//
// `options.format` describes the ORIGINAL records (its key fields are
// ignored; the schema is the key). The conditioning pass streams through
// `options.scratch_path + ".cond"`, so inputs larger than memory are
// fine; the sort itself follows options.memory_budget as usual.
Status SortWithSchema(Env* env, const SortOptions& options,
                      const KeySchema& schema,
                      SortMetrics* metrics = nullptr);

}  // namespace alphasort

#endif  // ALPHASORT_CORE_TYPED_SORT_H_
