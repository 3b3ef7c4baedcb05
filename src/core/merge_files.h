#ifndef ALPHASORT_CORE_MERGE_FILES_H_
#define ALPHASORT_CORE_MERGE_FILES_H_

#include <string>
#include <vector>

#include "core/options.h"
#include "io/env.h"
#include "obs/sort_metrics.h"

namespace alphasort {

// Merges N key-sorted record files into one sorted output — the classic
// sort-utility companion operation, and AlphaSort's second pass exposed as
// a public API: it is the sort's own scratch-run merge (paper §6) run over
// the caller's files. Inputs and output may be plain files or ".str"
// stripe definitions; every input must itself be key-ascending in
// `options.format` (violations surface as a Corruption error, never as
// silently wrong output). Equal keys drain in input-list order (stable),
// so the output is what one sort of the concatenated inputs writes.
//
// The inputs' keys are sampled every kSampleStride records, and the merge
// splits into key ranges, each merged by one of `options.num_workers`
// workers (two ranges per worker; one range, merged by the caller,
// without workers). `options` also supplies io_chunk_bytes, io_threads
// (at least one, else InvalidArgument), memory_budget (the read-ahead
// buffers) and retry_policy; the rest is unused. `metrics` reports the
// phases, the IO latencies, merge_ranges and the output's output_crc32c,
// like a sort's.
Status MergeSortedFiles(Env* env, const std::vector<std::string>& inputs,
                        const std::string& output,
                        const SortOptions& options,
                        SortMetrics* metrics = nullptr);

}  // namespace alphasort

#endif  // ALPHASORT_CORE_MERGE_FILES_H_
