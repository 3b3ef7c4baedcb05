#ifndef ALPHASORT_SORT_MERGE_PARTITION_H_
#define ALPHASORT_SORT_MERGE_PARTITION_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "record/record.h"
#include "sort/entry.h"
#include "sort/merger.h"

namespace alphasort {

// Key-range partitioning of sorted runs, the decomposition behind every
// merge the sort runs (docs/perf.md): the one-pass merge and each spill
// partition in-memory entry runs (PartitionEntryRuns); the scratch-run
// merge partitions run files from the keys sampled as they were written
// (PartitionSampledRuns).
//
// The paper's root/worker split (§5) parallelizes the QuickSort and
// gather chores but leaves the tournament merge itself on the root, so
// the merge phase stops scaling where Figure 6 keeps climbing. The fix is
// classic partitioned merging (DPG, Polyntsov et al. 2022): split the
// *key space* into P disjoint ranges, binary-search every sorted run for
// the range boundaries, and merge each range independently — range r's
// output is a contiguous slice of the final output whose offset is known
// exactly up front, because the per-range record counts are.
//
// Correctness contract (merge_partition_test pins all of it):
//   - The per-run sub-runs of consecutive ranges tile each input run
//     exactly: nothing dropped, nothing duplicated.
//   - Records with equal full keys never straddle a range boundary
//     (boundaries are upper-bounds of splitter keys), so each range's
//     loser tree applies the same stream-index tie-break the global
//     sequential merge would, and the concatenated per-range outputs are
//     byte-identical to the sequential merger's stream.
//   - Degenerate key distributions degrade to fewer (possibly one)
//     non-empty ranges, never to wrong output: all-equal keys put every
//     record in the first range.

// One key range: a per-source slice of every input run (same order and
// count as the partitioned runs, empty slices kept so stream numbering —
// and therefore equal-key tie-breaking — matches the global merge), plus
// the exact output slice it produces.
struct MergeRange {
  std::vector<EntryRun> runs;
  uint64_t first_record = 0;  // global output index of this range's start
  uint64_t num_records = 0;
};

struct MergePartition {
  std::vector<MergeRange> ranges;

  size_t NumRanges() const { return ranges.size(); }
  uint64_t TotalRecords() const {
    uint64_t n = 0;
    for (const auto& r : ranges) n += r.num_records;
    return n;
  }
};

// Pure key order over entries: prefix first, full record keys on prefix
// ties (the same order RunMerger's EntryLess resolves, minus stats and
// minus the merger's stream tie-break — partitioning must not depend on
// which run an entry came from).
struct EntryKeyLess {
  const RecordFormat* format;

  bool operator()(const PrefixEntry& a, const PrefixEntry& b) const {
    if (a.prefix != b.prefix) return a.prefix < b.prefix;
    if (format->key_size <= 8) return false;
    return format->CompareKeys(a.record, b.record) < 0;
  }
};

// Splits `runs` into at most `max_ranges` disjoint key ranges by sampling
// splitter keys from the runs (evenly spaced entries, oversampled, then
// quantiles) and binary-searching every run for each splitter's upper
// bound. Adjacent equal splitters are deduplicated, so heavily skewed
// inputs yield fewer ranges rather than empty ones; with max_ranges <= 1,
// a single run, or an empty input the result is one range covering
// everything (the sequential merge). Cost is O(S log S) on the sample
// plus O(K P log n) binary searches — microseconds next to the merge.
MergePartition PartitionEntryRuns(const RecordFormat& format,
                                  const std::vector<EntryRun>& runs,
                                  size_t max_ranges);

// Every kSampleStride-th record of a scratch run (records 0, kSampleStride,
// 2·kSampleStride, …) has its key recorded as the run is written: about
// 20 KB of keys for 200 MB of 100-byte records.
inline constexpr uint64_t kSampleStride = 1024;

// A sorted run known by its length and its sampled keys: key_size bytes
// per sample, ⌈records / kSampleStride⌉ samples.
struct SampledRun {
  uint64_t records = 0;
  Slice sample_keys;
};

// Reads records [first, first + n) of run `run` into `dst`.
using RunRecordReader =
    std::function<Status(size_t run, uint64_t first, uint64_t n, char* dst)>;

// A key-range split of sampled runs: bounds[r][s] is the record index at
// which run s's slice for range r begins; row NumRanges() holds the run
// lengths. Empty slices are kept, so every range sees every run in order.
struct RunSlices {
  std::vector<std::vector<uint64_t>> bounds;

  size_t NumRanges() const { return bounds.size() - 1; }
  uint64_t SliceRecords(size_t range, size_t run) const {
    return bounds[range + 1][run] - bounds[range][run];
  }
  // Records per range, in range order.
  std::vector<uint64_t> RangeRecords() const;
};

// PartitionEntryRuns for runs that live in files. Splitters are quantiles
// of the pooled samples, under the same rules (adjacent duplicates
// dropped, pure-key upper bounds, so equal keys never straddle a range).
// A splitter's bound in each run comes from a binary search of that run's
// samples, then one `read` of the fewer than kSampleStride records
// between the two bracketing samples, searched for the exact upper bound:
// (ranges − 1) × runs reads in all. Bounds are clamped to be monotone and
// inside the run, so the slices tile every run exactly whatever the bytes
// read say. Fails only when `read` fails.
Status PartitionSampledRuns(const RecordFormat& format,
                            const std::vector<SampledRun>& runs,
                            size_t max_ranges, const RunRecordReader& read,
                            RunSlices* out);

}  // namespace alphasort

#endif  // ALPHASORT_SORT_MERGE_PARTITION_H_
