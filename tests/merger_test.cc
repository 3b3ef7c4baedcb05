#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "record/generator.h"
#include "record/validator.h"
#include "sort/compact_entry.h"
#include "sort/merger.h"
#include "sort/quicksort.h"
#include "tests/test_util.h"

namespace alphasort {
namespace {

// Splits n records into `num_runs` QuickSorted prefix-entry runs, like the
// AlphaSort read phase does, and returns entry storage + run views.
struct PreparedRuns {
  std::vector<PrefixEntry> entries;
  std::vector<EntryRun> runs;
};

PreparedRuns PrepareRuns(const RecordFormat& fmt, const char* block, size_t n,
                         size_t num_runs) {
  PreparedRuns out;
  out.entries.resize(n);
  BuildPrefixEntryArray(fmt, block, n, out.entries.data());
  const size_t per_run = num_runs == 0 ? n : (n + num_runs - 1) / num_runs;
  for (size_t start = 0; start < n; start += per_run) {
    const size_t len = std::min(per_run, n - start);
    SortPrefixEntryArray(fmt, out.entries.data() + start, len);
    out.runs.push_back(EntryRun{out.entries.data() + start,
                                out.entries.data() + start + len});
  }
  return out;
}

class MergerSweep : public ::testing::TestWithParam<
                        std::tuple<KeyDistribution, size_t, size_t>> {};

// Property: QuickSort runs + tournament merge + gather = a correct sort,
// for every distribution, size, and run count. This is the in-memory heart
// of the AlphaSort pipeline.
TEST_P(MergerSweep, MergeGatherSortsCorrectly) {
  const auto [dist, n, num_runs] = GetParam();
  RecordGenerator gen(kDatamationFormat, 31337 + n * 7 + num_runs);
  auto block = gen.Generate(dist, n);

  PreparedRuns prepared =
      PrepareRuns(kDatamationFormat, block.data(), n, num_runs);
  RunMerger<> merger(kDatamationFormat, prepared.runs);

  std::vector<const char*> ptrs;
  ptrs.reserve(n);
  while (!merger.Done()) ptrs.push_back(merger.Next());
  ASSERT_EQ(ptrs.size(), n);
  EXPECT_TRUE(test::PointersAreSorted(kDatamationFormat, ptrs));

  std::vector<char> output(n * 100);
  GatherRecords(kDatamationFormat, ptrs.data(), n, output.data());
  EXPECT_TRUE(
      ValidateSorted(kDatamationFormat, block.data(), output.data(), n).ok());
}

INSTANTIATE_TEST_SUITE_P(
    DistributionsSizesRuns, MergerSweep,
    ::testing::Combine(::testing::ValuesIn(test::AllDistributions()),
                       ::testing::Values(size_t{0}, size_t{1}, size_t{100},
                                         size_t{2000}),
                       ::testing::Values(size_t{1}, size_t{2}, size_t{10},
                                         size_t{37})),
    [](const auto& info) {
      return std::string(test::DistributionName(std::get<0>(info.param))) +
             "_n" + std::to_string(std::get<1>(info.param)) + "_r" +
             std::to_string(std::get<2>(info.param));
    });

TEST(MergerTest, BatchInterfaceMatchesSingleSteps) {
  RecordGenerator gen(kDatamationFormat, 5);
  const size_t n = 500;
  auto block = gen.Generate(KeyDistribution::kUniform, n);
  PreparedRuns a = PrepareRuns(kDatamationFormat, block.data(), n, 8);
  PreparedRuns b = PrepareRuns(kDatamationFormat, block.data(), n, 8);

  RunMerger<> one(kDatamationFormat, a.runs);
  RunMerger<> batch(kDatamationFormat, b.runs);

  std::vector<const char*> singles;
  while (!one.Done()) singles.push_back(one.Next());

  std::vector<const char*> batched(n);
  size_t got = 0;
  while (got < n) {
    got += batch.NextBatch(batched.data() + got, 97);  // ragged batch size
  }
  EXPECT_TRUE(batch.Done());
  EXPECT_EQ(singles, batched);
}

TEST(MergerTest, TieFallbackTouchesRecordsOnlyOnPrefixCollision) {
  RecordGenerator gen(kDatamationFormat, 6);
  const size_t n = 1000;
  auto block = gen.Generate(KeyDistribution::kSharedPrefix, n);
  PreparedRuns prepared = PrepareRuns(kDatamationFormat, block.data(), n, 4);
  SortStats stats;
  RunMerger<> merger(kDatamationFormat, prepared.runs, TreeLayout::kFlat,
                     nullptr, &stats);
  while (!merger.Done()) merger.Next();
  EXPECT_GT(stats.tie_breaks, 0u);

  // Uniform keys: essentially no prefix collisions.
  RecordGenerator gen2(kDatamationFormat, 7);
  auto block2 = gen2.Generate(KeyDistribution::kUniform, n);
  PreparedRuns prepared2 =
      PrepareRuns(kDatamationFormat, block2.data(), n, 4);
  SortStats stats2;
  RunMerger<> merger2(kDatamationFormat, prepared2.runs, TreeLayout::kFlat,
                      nullptr, &stats2);
  while (!merger2.Done()) merger2.Next();
  EXPECT_EQ(stats2.tie_breaks, 0u);
}

TEST(MergerTest, MergeStepIsStableAcrossRuns) {
  // The merge itself breaks ties by run index, so records with equal keys
  // come out in run order when each run preserves arrival order. (The full
  // AlphaSort is not stable — QuickSort inside a run is not — which the
  // paper concedes in §4; this test isolates the merge step.)
  RecordGenerator gen(kDatamationFormat, 8);
  const size_t n = 400;
  auto block = gen.Generate(KeyDistribution::kConstant, n);
  // Constant keys: entries in arrival order are already sorted runs.
  std::vector<PrefixEntry> entries(n);
  BuildPrefixEntryArray(kDatamationFormat, block.data(), n, entries.data());
  std::vector<EntryRun> runs;
  const size_t per_run = 80;
  for (size_t start = 0; start < n; start += per_run) {
    runs.push_back(
        EntryRun{entries.data() + start, entries.data() + start + per_run});
  }
  RunMerger<> merger(kDatamationFormat, runs);
  size_t i = 0;
  while (!merger.Done()) {
    const char* rec = merger.Next();
    EXPECT_EQ(DecodeFixed64(rec + 10), i) << "equal keys out of run order";
    ++i;
  }
  EXPECT_EQ(i, n);
}

TEST(MergerTest, GatherCopiesExactBytes) {
  RecordGenerator gen(kDatamationFormat, 9);
  const size_t n = 64;
  auto block = gen.Generate(KeyDistribution::kUniform, n);
  std::vector<const char*> ptrs(n);
  for (size_t i = 0; i < n; ++i) ptrs[i] = block.data() + (n - 1 - i) * 100;
  std::vector<char> out(n * 100);
  GatherRecords(kDatamationFormat, ptrs.data(), n, out.data());
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(memcmp(out.data() + i * 100, ptrs[i], 100), 0);
  }
}

// The prefetch distance is a pure hint: the entry builds and the gather
// write the same entries and bytes at every distance, 0 (no hints, as the
// benches run them) and one past the end of the input included.
TEST(MergerTest, PrefetchDistanceDoesNotChangeKernelOutput) {
  const RecordFormat& fmt = kDatamationFormat;
  const size_t n = 1000;
  RecordGenerator gen(fmt, 21);
  const std::vector<char> block = gen.Generate(KeyDistribution::kUniform, n);
  // A scattered gather order: 7919 is prime, so i * 7919 mod n visits
  // every record once.
  std::vector<const char*> ptrs(n);
  for (size_t i = 0; i < n; ++i) {
    ptrs[i] = block.data() + (i * 7919 % n) * fmt.record_size;
  }

  std::vector<PrefixEntry> want_prefix(n);
  std::vector<CompactEntry> want_compact(n);
  std::vector<char> want_out(n * fmt.record_size);
  BuildPrefixEntryArray(fmt, block.data(), n, want_prefix.data(), 0);
  BuildCompactEntryArray(fmt, block.data(), n, want_compact.data(), 0);
  GatherRecords(fmt, ptrs.data(), n, want_out.data(), 0);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(memcmp(want_out.data() + i * fmt.record_size, ptrs[i],
                     fmt.record_size),
              0);
  }

  for (size_t distance : {size_t{8}, size_t{64}, n + 1}) {
    SCOPED_TRACE("distance " + std::to_string(distance));
    std::vector<PrefixEntry> prefix(n);
    std::vector<CompactEntry> compact(n);
    std::vector<char> out(n * fmt.record_size);
    BuildPrefixEntryArray(fmt, block.data(), n, prefix.data(), distance);
    BuildCompactEntryArray(fmt, block.data(), n, compact.data(), distance);
    GatherRecords(fmt, ptrs.data(), n, out.data(), distance);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(prefix[i].prefix, want_prefix[i].prefix) << i;
      EXPECT_EQ(prefix[i].record, want_prefix[i].record) << i;
      EXPECT_EQ(compact[i].prefix, want_compact[i].prefix) << i;
      EXPECT_EQ(compact[i].index, want_compact[i].index) << i;
    }
    EXPECT_TRUE(out == want_out);
  }
}

}  // namespace
}  // namespace alphasort
