#include "sort/merge_partition.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "record/generator.h"
#include "record/validator.h"
#include "sort/merger.h"
#include "sort/quicksort.h"
#include "tests/test_util.h"

namespace alphasort {
namespace {

// Splits n records into QuickSorted prefix-entry runs, like the AlphaSort
// read phase does (same idiom as merger_test).
struct PreparedRuns {
  std::vector<PrefixEntry> entries;
  std::vector<EntryRun> runs;
};

PreparedRuns PrepareRuns(const RecordFormat& fmt, const char* block, size_t n,
                         size_t num_runs) {
  PreparedRuns out;
  out.entries.resize(n);
  if (n > 0) BuildPrefixEntryArray(fmt, block, n, out.entries.data());
  const size_t per_run = num_runs == 0 ? n : (n + num_runs - 1) / num_runs;
  for (size_t start = 0; start < n; start += per_run) {
    const size_t len = std::min(per_run, n - start);
    SortPrefixEntryArray(fmt, out.entries.data() + start, len);
    out.runs.push_back(EntryRun{out.entries.data() + start,
                                out.entries.data() + start + len});
  }
  return out;
}

// The partition's structural invariants, checked for any (runs, partition)
// pair:
//   - every range holds one slice per input run, in input-run order
//   - consecutive ranges' slices tile each input run exactly
//   - first_record/num_records describe a gapless cover of [0, n)
//   - no range boundary splits a group of equal full keys
void CheckPartitionInvariants(const RecordFormat& fmt,
                              const std::vector<EntryRun>& runs,
                              const MergePartition& part, uint64_t n) {
  ASSERT_GE(part.NumRanges(), 1u);
  uint64_t next_first = 0;
  for (const MergeRange& range : part.ranges) {
    ASSERT_EQ(range.runs.size(), runs.size());
    EXPECT_EQ(range.first_record, next_first);
    uint64_t counted = 0;
    for (const EntryRun& slice : range.runs) counted += slice.size();
    EXPECT_EQ(range.num_records, counted);
    next_first += range.num_records;
  }
  EXPECT_EQ(next_first, n);

  for (size_t r = 0; r < runs.size(); ++r) {
    // Slices of run r across ranges must be contiguous and cover it.
    const PrefixEntry* cursor = runs[r].begin;
    for (const MergeRange& range : part.ranges) {
      const EntryRun& slice = range.runs[r];
      EXPECT_EQ(slice.begin, cursor) << "run " << r << " slice not tiled";
      EXPECT_LE(slice.begin, slice.end);
      cursor = slice.end;
    }
    EXPECT_EQ(cursor, runs[r].end) << "run " << r << " not fully covered";
  }

  // Equal full keys never straddle a boundary: within each input run, the
  // entry just before a boundary must compare strictly less than the
  // entry just after it (they are adjacent in the sorted run).
  for (size_t s = 0; s + 1 < part.NumRanges(); ++s) {
    for (size_t r = 0; r < runs.size(); ++r) {
      const EntryRun& a = part.ranges[s].runs[r];
      const EntryRun& b = part.ranges[s + 1].runs[r];
      if (a.size() == 0 || b.size() == 0) continue;
      const PrefixEntry& last = *(a.end - 1);
      const PrefixEntry& first = *b.begin;
      EXPECT_LT(fmt.CompareKeys(last.record, first.record), 0)
          << "equal keys straddle the boundary between ranges " << s
          << " and " << s + 1 << " inside run " << r;
    }
  }
}

// Merges each range with its own RunMerger and concatenates the pointer
// streams in range order — what the partitioned pipeline does, minus IO.
std::vector<const char*> MergePartitioned(const RecordFormat& fmt,
                                          const MergePartition& part) {
  std::vector<const char*> out;
  out.reserve(part.TotalRecords());
  for (const MergeRange& range : part.ranges) {
    RunMerger<> merger(fmt, range.runs);
    while (!merger.Done()) out.push_back(merger.Next());
  }
  return out;
}

class PartitionSweep : public ::testing::TestWithParam<
                           std::tuple<KeyDistribution, size_t, size_t,
                                      size_t>> {};

// Property: for every distribution, size, run count, and range count, the
// partition obeys the structural invariants and the concatenated
// per-range merges reproduce the sequential merger's pointer stream
// pointer-for-pointer (which pins the equal-key stream tie-break, not
// just key order).
TEST_P(PartitionSweep, PartitionedMergeMatchesSequentialExactly) {
  const auto [dist, n, num_runs, max_ranges] = GetParam();
  RecordGenerator gen(kDatamationFormat, 2026 + n * 13 + num_runs);
  auto block = gen.Generate(dist, n);
  PreparedRuns prepared =
      PrepareRuns(kDatamationFormat, block.data(), n, num_runs);

  MergePartition part =
      PartitionEntryRuns(kDatamationFormat, prepared.runs, max_ranges);
  CheckPartitionInvariants(kDatamationFormat, prepared.runs, part, n);
  EXPECT_LE(part.NumRanges(), std::max<size_t>(max_ranges, 1));

  std::vector<const char*> partitioned =
      MergePartitioned(kDatamationFormat, part);

  RunMerger<> sequential(kDatamationFormat, prepared.runs);
  std::vector<const char*> expected;
  expected.reserve(n);
  while (!sequential.Done()) expected.push_back(sequential.Next());

  ASSERT_EQ(partitioned.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(partitioned[i], expected[i]) << "pointer stream diverges at "
                                           << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    DistributionsSizesRunsRanges, PartitionSweep,
    ::testing::Combine(::testing::ValuesIn(test::AllDistributions()),
                       ::testing::Values(size_t{0}, size_t{1}, size_t{100},
                                         size_t{3000}),
                       ::testing::Values(size_t{1}, size_t{4}, size_t{13}),
                       ::testing::Values(size_t{1}, size_t{2}, size_t{5},
                                         size_t{32})),
    [](const auto& info) {
      return std::string(test::DistributionName(std::get<0>(info.param))) +
             "_n" + std::to_string(std::get<1>(info.param)) + "_r" +
             std::to_string(std::get<2>(info.param)) + "_p" +
             std::to_string(std::get<3>(info.param));
    });

// All-equal keys: upper-bound boundaries put every record in the first
// range; later ranges collapse to empty rather than splitting the equal
// group (the degenerate case the contract calls out).
TEST(MergePartitionTest, AllEqualKeysCollapseToOneRange) {
  const size_t n = 2000;
  RecordGenerator gen(kDatamationFormat, 7);
  auto block = gen.Generate(KeyDistribution::kConstant, n);
  PreparedRuns prepared = PrepareRuns(kDatamationFormat, block.data(), n, 8);

  MergePartition part =
      PartitionEntryRuns(kDatamationFormat, prepared.runs, 4);
  CheckPartitionInvariants(kDatamationFormat, prepared.runs, part, n);
  EXPECT_EQ(part.NumRanges(), 1u);
  EXPECT_EQ(part.ranges[0].num_records, n);
}

// Adversarial skew: 95% of records share one tiny key region, the rest
// are uniform. The partition may produce lopsided or deduplicated
// ranges, but never wrong output.
TEST(MergePartitionTest, SkewedDistributionStaysExact) {
  const RecordFormat fmt = kDatamationFormat;
  const size_t n = 4000;
  RecordGenerator hot(fmt, 11);
  RecordGenerator cold(fmt, 13);
  auto hot_block = hot.Generate(KeyDistribution::kFewDistinct, n * 95 / 100);
  auto cold_block = cold.Generate(KeyDistribution::kUniform, n - n * 95 / 100);
  std::vector<char> block(hot_block.begin(), hot_block.end());
  block.insert(block.end(), cold_block.begin(), cold_block.end());

  PreparedRuns prepared = PrepareRuns(fmt, block.data(), n, 6);
  MergePartition part = PartitionEntryRuns(fmt, prepared.runs, 8);
  CheckPartitionInvariants(fmt, prepared.runs, part, n);

  std::vector<const char*> partitioned = MergePartitioned(fmt, part);
  RunMerger<> sequential(fmt, prepared.runs);
  std::vector<const char*> expected;
  while (!sequential.Done()) expected.push_back(sequential.Next());
  ASSERT_EQ(partitioned, expected);
}

// Duplicate-prefix runs: every record shares the same 8-byte prefix but
// full keys differ past it, so splitter comparisons and boundary
// searches must tie-break through the records (EntryKeyLess), not stop
// at the prefix. A prefix-only partition would scatter boundaries inside
// equal-prefix groups and break byte identity.
TEST(MergePartitionTest, BoundariesInsideSharedPrefixRunsTieBreakOnFullKey) {
  const RecordFormat fmt = kDatamationFormat;
  const size_t n = 3000;
  RecordGenerator gen(fmt, 17);
  auto block = gen.Generate(KeyDistribution::kSharedPrefix, n);
  PreparedRuns prepared = PrepareRuns(fmt, block.data(), n, 5);

  MergePartition part = PartitionEntryRuns(fmt, prepared.runs, 6);
  CheckPartitionInvariants(fmt, prepared.runs, part, n);
  // The whole point of the case: the split actually happened even though
  // every prefix is equal.
  EXPECT_GT(part.NumRanges(), 1u);

  std::vector<const char*> partitioned = MergePartitioned(fmt, part);
  RunMerger<> sequential(fmt, prepared.runs);
  std::vector<const char*> expected;
  while (!sequential.Done()) expected.push_back(sequential.Next());
  ASSERT_EQ(partitioned, expected);
}

// Gathered bytes (not just pointers) are identical, with each range
// gathered into its pre-computed slice of the output — the exact layout
// contract the pipeline's AIO writes rely on.
TEST(MergePartitionTest, GatheredOutputSlicesAreByteIdentical) {
  const RecordFormat fmt = kDatamationFormat;
  const size_t n = 2500;
  RecordGenerator gen(fmt, 23);
  auto block = gen.Generate(KeyDistribution::kAlmostSorted, n);
  PreparedRuns prepared = PrepareRuns(fmt, block.data(), n, 7);

  RunMerger<> sequential(fmt, prepared.runs);
  std::vector<const char*> ptrs;
  while (!sequential.Done()) ptrs.push_back(sequential.Next());
  std::vector<char> expected(n * fmt.record_size);
  GatherRecords(fmt, ptrs.data(), n, expected.data());

  MergePartition part = PartitionEntryRuns(fmt, prepared.runs, 4);
  CheckPartitionInvariants(fmt, prepared.runs, part, n);
  std::vector<char> actual(n * fmt.record_size);
  for (const MergeRange& range : part.ranges) {
    RunMerger<> merger(fmt, range.runs);
    std::vector<const char*> range_ptrs;
    while (!merger.Done()) range_ptrs.push_back(merger.Next());
    ASSERT_EQ(range_ptrs.size(), range.num_records);
    GatherRecords(fmt, range_ptrs.data(), range_ptrs.size(),
                  actual.data() + range.first_record * fmt.record_size);
  }
  EXPECT_EQ(std::memcmp(actual.data(), expected.data(), expected.size()), 0);
}

// Each range merged+gathered by its own thread concurrently — the data
// sharing pattern of the partitioned pipeline (read-only entries/records,
// disjoint output slices), here with no locks at all so TSan can vouch
// that the decomposition itself is race-free.
TEST(MergePartitionTest, ConcurrentRangeMergesAreRaceFree) {
  const RecordFormat fmt = kDatamationFormat;
  const size_t n = 6000;
  RecordGenerator gen(fmt, 29);
  auto block = gen.Generate(KeyDistribution::kUniform, n);
  PreparedRuns prepared = PrepareRuns(fmt, block.data(), n, 9);

  MergePartition part = PartitionEntryRuns(fmt, prepared.runs, 4);
  CheckPartitionInvariants(fmt, prepared.runs, part, n);

  std::vector<char> actual(n * fmt.record_size);
  std::vector<std::thread> threads;
  for (const MergeRange& range : part.ranges) {
    threads.emplace_back([&fmt, &range, &actual] {
      RunMerger<> merger(fmt, range.runs);
      std::vector<const char*> ptrs;
      ptrs.reserve(range.num_records);
      while (!merger.Done()) ptrs.push_back(merger.Next());
      GatherRecords(fmt, ptrs.data(), ptrs.size(),
                    actual.data() + range.first_record * fmt.record_size);
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_TRUE(
      ValidateSorted(fmt, block.data(), actual.data(), n).ok());
}

// max_ranges <= 1, a single run, and an empty input all take the
// sequential shortcut: one range covering everything.
TEST(MergePartitionTest, DegenerateInputsYieldSingleRange) {
  const RecordFormat fmt = kDatamationFormat;
  RecordGenerator gen(fmt, 31);
  const size_t n = 300;
  auto block = gen.Generate(KeyDistribution::kUniform, n);

  PreparedRuns many = PrepareRuns(fmt, block.data(), n, 4);
  EXPECT_EQ(PartitionEntryRuns(fmt, many.runs, 1).NumRanges(), 1u);
  EXPECT_EQ(PartitionEntryRuns(fmt, many.runs, 0).NumRanges(), 1u);

  PreparedRuns single = PrepareRuns(fmt, block.data(), n, 1);
  EXPECT_EQ(PartitionEntryRuns(fmt, single.runs, 8).NumRanges(), 1u);

  std::vector<EntryRun> empty;
  EXPECT_EQ(PartitionEntryRuns(fmt, empty, 8).NumRanges(), 1u);
}

// Sorted runs as record arrays (scratch runs, minus the file), each with
// the key of every kSampleStride-th record sampled the way a spill
// samples the run it writes. The runs split one input block in order.
struct SampledRecordRuns {
  std::vector<std::vector<char>> records;
  std::vector<std::string> samples;
  std::vector<SampledRun> runs;
};

SampledRecordRuns MakeSampledRuns(const RecordFormat& fmt, const char* block,
                                  const std::vector<size_t>& lengths) {
  const size_t rec = fmt.record_size;
  SampledRecordRuns out;
  size_t start = 0;
  for (size_t len : lengths) {
    std::vector<PrefixEntry> entries(len);
    if (len > 0) {
      BuildPrefixEntryArray(fmt, block + start * rec, len, entries.data());
      SortPrefixEntryArray(fmt, entries.data(), len);
    }
    std::vector<char> sorted(len * rec);
    std::string samples;
    for (size_t i = 0; i < len; ++i) {
      memcpy(sorted.data() + i * rec, entries[i].record, rec);
      if (i % kSampleStride == 0) {
        samples.append(fmt.KeyPtr(entries[i].record), fmt.key_size);
      }
    }
    out.records.push_back(std::move(sorted));
    out.samples.push_back(std::move(samples));
    start += len;
  }
  for (size_t s = 0; s < lengths.size(); ++s) {
    out.runs.push_back(SampledRun{lengths[s], Slice(out.samples[s])});
  }
  return out;
}

// The scratch-run partition: bounds found from the samples plus one
// bracket read per run and splitter tile every run exactly, keep equal
// keys inside one range, and the per-range merges of the slices
// reproduce one global merge pointer for pointer. Runs shorter than one
// stride, empty runs and runs ending on or just past a stride boundary
// are all in the mix.
TEST(MergePartitionTest, SampledRunBoundsTileRunsAndKeepEqualKeysTogether) {
  const RecordFormat fmt = kDatamationFormat;
  const size_t rec = fmt.record_size;
  const size_t max_ranges = 6;
  const std::vector<size_t> lengths = {3000, 0,    1, 500, 5000,
                                       1024, 1025, 0, 2049, 4096};
  size_t n = 0;
  for (size_t len : lengths) n += len;
  for (KeyDistribution dist :
       {KeyDistribution::kConstant, KeyDistribution::kDupHeavy,
        KeyDistribution::kZipfian}) {
    SCOPED_TRACE(test::DistributionName(dist));
    RecordGenerator gen(fmt, 4242);
    auto block = gen.Generate(dist, n);
    SampledRecordRuns sampled = MakeSampledRuns(fmt, block.data(), lengths);

    size_t reads = 0;
    RunSlices slices;
    ASSERT_TRUE(PartitionSampledRuns(
                    fmt, sampled.runs, max_ranges,
                    [&](size_t run, uint64_t first, uint64_t count,
                        char* dst) {
                      ++reads;
                      EXPECT_LT(count, kSampleStride);
                      EXPECT_LE(first + count, lengths[run]);
                      memcpy(dst, sampled.records[run].data() + first * rec,
                             count * rec);
                      return Status::OK();
                    },
                    &slices)
                    .ok());
    const size_t ranges = slices.NumRanges();
    ASSERT_GE(ranges, 1u);
    EXPECT_LE(ranges, max_ranges);
    EXPECT_LE(reads, (max_ranges - 1) * lengths.size());
    if (dist == KeyDistribution::kConstant) {
      EXPECT_EQ(ranges, 1u);
    } else {
      EXPECT_GT(ranges, 1u);
    }

    // The slices tile every run exactly.
    ASSERT_EQ(slices.bounds.size(), ranges + 1);
    uint64_t covered = 0;
    for (uint64_t records : slices.RangeRecords()) covered += records;
    EXPECT_EQ(covered, n);
    for (size_t s = 0; s < lengths.size(); ++s) {
      EXPECT_EQ(slices.bounds[0][s], 0u);
      EXPECT_EQ(slices.bounds[ranges][s], lengths[s]);
      for (size_t r = 0; r < ranges; ++r) {
        EXPECT_LE(slices.bounds[r][s], slices.bounds[r + 1][s]);
      }
    }

    // Equal keys never straddle a range: every key of range r sorts
    // strictly below every key of range r + 1.
    for (size_t r = 0; r + 1 < ranges; ++r) {
      const char* top = nullptr;
      const char* bottom = nullptr;
      for (size_t s = 0; s < lengths.size(); ++s) {
        const char* base = sampled.records[s].data();
        const uint64_t cut = slices.bounds[r + 1][s];
        if (slices.SliceRecords(r, s) > 0) {
          const char* last = base + (cut - 1) * rec;
          if (top == nullptr || fmt.CompareKeys(last, top) > 0) top = last;
        }
        if (slices.SliceRecords(r + 1, s) > 0) {
          const char* first = base + cut * rec;
          if (bottom == nullptr || fmt.CompareKeys(first, bottom) < 0) {
            bottom = first;
          }
        }
      }
      if (top != nullptr && bottom != nullptr) {
        EXPECT_LT(fmt.CompareKeys(top, bottom), 0)
            << "equal keys straddle ranges " << r << " and " << r + 1;
      }
    }

    // Merging each range's slices, in range order, is one global merge.
    std::vector<std::vector<PrefixEntry>> entries(lengths.size());
    std::vector<EntryRun> whole;
    for (size_t s = 0; s < lengths.size(); ++s) {
      for (size_t i = 0; i < lengths[s]; ++i) {
        entries[s].push_back(
            MakePrefixEntry(fmt, sampled.records[s].data() + i * rec));
      }
      whole.push_back(EntryRun{entries[s].data(),
                               entries[s].data() + entries[s].size()});
    }
    RunMerger<> sequential(fmt, whole);
    std::vector<const char*> expected;
    while (!sequential.Done()) expected.push_back(sequential.Next());
    std::vector<const char*> partitioned;
    for (size_t r = 0; r < ranges; ++r) {
      std::vector<EntryRun> slice_runs;
      for (size_t s = 0; s < lengths.size(); ++s) {
        slice_runs.push_back(
            EntryRun{entries[s].data() + slices.bounds[r][s],
                     entries[s].data() + slices.bounds[r + 1][s]});
      }
      RunMerger<> merger(fmt, slice_runs);
      while (!merger.Done()) partitioned.push_back(merger.Next());
    }
    ASSERT_EQ(partitioned, expected);
  }
}

// Sampled runs take the same one-range shortcuts as entry runs: one run,
// only empty runs, or a single wanted range.
TEST(MergePartitionTest, DegenerateSampledRunsYieldSingleRange) {
  const RecordFormat fmt = kDatamationFormat;
  RecordGenerator gen(fmt, 37);
  auto block = gen.Generate(KeyDistribution::kUniform, 6000);
  auto no_reads = [](size_t, uint64_t, uint64_t, char*) {
    ADD_FAILURE() << "no bracket read expected";
    return Status::OK();
  };
  for (const std::vector<size_t>& lengths :
       {std::vector<size_t>{6000}, std::vector<size_t>{0, 0},
        std::vector<size_t>{}}) {
    SampledRecordRuns sampled = MakeSampledRuns(fmt, block.data(), lengths);
    RunSlices slices;
    ASSERT_TRUE(
        PartitionSampledRuns(fmt, sampled.runs, 8, no_reads, &slices).ok());
    ASSERT_EQ(slices.NumRanges(), 1u);
    for (size_t s = 0; s < lengths.size(); ++s) {
      EXPECT_EQ(slices.SliceRecords(0, s), lengths[s]);
    }
  }
  SampledRecordRuns two = MakeSampledRuns(fmt, block.data(), {3000, 3000});
  RunSlices slices;
  ASSERT_TRUE(PartitionSampledRuns(fmt, two.runs, 1, no_reads, &slices).ok());
  EXPECT_EQ(slices.NumRanges(), 1u);
}

}  // namespace
}  // namespace alphasort
