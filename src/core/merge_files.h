#ifndef ALPHASORT_CORE_MERGE_FILES_H_
#define ALPHASORT_CORE_MERGE_FILES_H_

#include <string>
#include <vector>

#include "core/options.h"
#include "io/env.h"
#include "obs/sort_metrics.h"

namespace alphasort {

// Merges N key-sorted record files into one sorted output — the classic
// sort-utility companion operation (and AlphaSort's second pass exposed as
// a public API). Inputs and output may be plain files or ".str" stripe
// definitions; every input must itself be key-ascending in
// `options.format` (violations surface as a Corruption error, never as
// silently wrong output). Equal keys drain in input-list order (stable).
//
// Uses one tournament over all inputs with double-buffered read-ahead per
// input; `options` supplies format, io_chunk_bytes and io_threads.
Status MergeSortedFiles(Env* env, const std::vector<std::string>& inputs,
                        const std::string& output,
                        const SortOptions& options,
                        SortMetrics* metrics = nullptr);

}  // namespace alphasort

#endif  // ALPHASORT_CORE_MERGE_FILES_H_
