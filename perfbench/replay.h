#ifndef ALPHASORT_PERFBENCH_REPLAY_H_
#define ALPHASORT_PERFBENCH_REPLAY_H_

#include <cstddef>
#include <cstdint>

#include "record/record.h"
#include "sort/quicksort.h"

namespace alphasort {
namespace perfbench {

// The in-memory sort's kernels, called one after another on one thread
// over a workload's own input, with a clock around each: the per-layer
// costs the pipeline overlaps across its workers and hides from a
// wall-clock lap. The calls and their parameters mirror the one-pass
// pipeline (core/pipeline.cc): per-run entry build and kernel sort,
// key-range partition, one tournament per range, gather, and the CRC of
// the gathered output. That output is byte-identical to the sort's, so
// `crc` must equal SortMetrics::output_crc32c (or the CRC a client
// receives) for the same input; a mismatch means the replay did not
// measure the work the sort did.
struct ReplayConfig {
  size_t run_size_records = 100000;
  size_t max_ranges = 4;  // the pipeline's num_workers + 1
  size_t batch_records = 10485;  // io_chunk_bytes / record_size
};

struct ReplayResult {
  uint64_t records = 0;
  uint64_t runs = 0;
  uint64_t ranges = 0;
  double entry_build_s = 0;
  double run_sort_s = 0;
  double partition_s = 0;
  double tournament_s = 0;
  double gather_s = 0;
  double crc_s = 0;
  SortStats run_stats;
  SortStats merge_stats;
  uint32_t crc = 0;
};

ReplayResult ReplayKernels(const RecordFormat& fmt, const char* input,
                           uint64_t num_records, const ReplayConfig& config);

}  // namespace perfbench
}  // namespace alphasort

#endif  // ALPHASORT_PERFBENCH_REPLAY_H_
