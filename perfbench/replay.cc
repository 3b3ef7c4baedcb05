#include "replay.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "common/checksum.h"
#include "probes.h"
#include "sort/merge_partition.h"
#include "sort/merger.h"
#include "sort/radix_partition.h"

namespace alphasort {
namespace perfbench {

namespace {

double SecondsSince(uint64_t t0_ns) { return double(NowNs() - t0_ns) / 1e9; }

}  // namespace

ReplayResult ReplayKernels(const RecordFormat& fmt, const char* input,
                           uint64_t num_records, const ReplayConfig& config) {
  ReplayResult out;
  out.records = num_records;
  if (num_records == 0) return out;
  const uint64_t n = num_records;
  const size_t run = config.run_size_records;
  std::unique_ptr<PrefixEntry[]> entries(new PrefixEntry[n]);

  uint64_t t0 = NowNs();
  for (uint64_t start = 0; start < n; start += run) {
    const uint64_t len = std::min<uint64_t>(run, n - start);
    BuildPrefixEntryArray(fmt, input + start * fmt.record_size, len,
                          entries.get() + start);
  }
  out.entry_build_s = SecondsSince(t0);

  std::vector<EntryRun> runs;
  t0 = NowNs();
  for (uint64_t start = 0; start < n; start += run) {
    const uint64_t len = std::min<uint64_t>(run, n - start);
    SortPrefixEntryArrayWithKernel(fmt, entries.get() + start, len,
                                   SortKernel::kAuto, &out.run_stats);
    runs.push_back(EntryRun{entries.get() + start,
                            entries.get() + start + len});
  }
  out.run_sort_s = SecondsSince(t0);
  out.runs = runs.size();

  t0 = NowNs();
  const MergePartition partition =
      PartitionEntryRuns(fmt, runs, config.max_ranges);
  out.partition_s = SecondsSince(t0);
  out.ranges = partition.NumRanges();

  std::unique_ptr<char[]> sorted(new char[n * fmt.record_size]);
  std::vector<const char*> ptrs(config.batch_records);
  uint64_t tournament_ns = 0;
  uint64_t gather_ns = 0;
  for (const MergeRange& range : partition.ranges) {
    RunMerger<> merger(fmt, range.runs, TreeLayout::kFlat, nullptr,
                       &out.merge_stats);
    char* dst = sorted.get() + range.first_record * fmt.record_size;
    while (!merger.Done()) {
      const uint64_t a = NowNs();
      const size_t got = merger.NextBatch(ptrs.data(), ptrs.size());
      const uint64_t b = NowNs();
      GatherRecords(fmt, ptrs.data(), got, dst);
      tournament_ns += b - a;
      gather_ns += NowNs() - b;
      dst += got * fmt.record_size;
    }
  }
  out.tournament_s = double(tournament_ns) / 1e9;
  out.gather_s = double(gather_ns) / 1e9;

  t0 = NowNs();
  out.crc = Crc32c(sorted.get(), n * fmt.record_size);
  out.crc_s = SecondsSince(t0);
  return out;
}

}  // namespace perfbench
}  // namespace alphasort
