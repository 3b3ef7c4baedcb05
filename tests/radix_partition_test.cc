#include "sort/radix_partition.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "benchlib/datamation.h"
#include "common/checksum.h"
#include "common/simd.h"
#include "core/alphasort.h"
#include "io/env.h"
#include "record/generator.h"
#include "tests/test_util.h"

// The radix hybrid's contract: same strict total order as the introsort,
// therefore pointer-identical entry arrays and byte-identical pipeline
// output — which kernel ran must be unobservable except in speed.

namespace alphasort {
namespace {

std::vector<char> MakeBlock(const RecordFormat& fmt, KeyDistribution dist,
                            uint64_t n, uint64_t seed) {
  RecordGenerator gen(fmt, seed);
  return gen.Generate(dist, n);
}

// --- entry-level pointer-identity sweeps (mirrors merge_partition_test's
// distribution sweep shape).

class RadixSweep : public ::testing::TestWithParam<KeyDistribution> {};

// Sizes straddling the bucket budget: a single introsort bucket
// (budget - 1, budget), one scatter (budget + 1), a second scatter level
// in every bucket of a uniform run (256 * budget + 1), and the
// pipeline's run lengths (36,158 under a 32 MiB budget, 100,000 in one
// pass).
std::vector<uint64_t> SweepSizes() {
  const uint64_t b = radix_internal::kBucketBudget;
  return {b - 1, b, b + 1, 256 * b + 1, 36158, 100000};
}

TEST_P(RadixSweep, PrefixEntriesMatchIntrosortExactly) {
  const RecordFormat fmt = kDatamationFormat;
  const KeyDistribution dist = GetParam();
  for (uint64_t n : SweepSizes()) {
    std::vector<char> block =
        MakeBlock(fmt, dist, n, 1000 + n + static_cast<uint64_t>(dist));
    for (bool simd_on : {true, false}) {
      simd::ScopedForceScalar force(!simd_on);
      std::vector<PrefixEntry> quick(n), radix(n);
      BuildPrefixEntryArray(fmt, block.data(), n, quick.data());
      radix = quick;

      SortStats qstats, rstats;
      SortPrefixEntryArray(fmt, quick.data(), n, &qstats);
      RadixStats shape;
      RadixSortPrefixEntryArray(fmt, radix.data(), n, &rstats, &shape);

      ASSERT_EQ(memcmp(quick.data(), radix.data(), n * sizeof(PrefixEntry)),
                0)
          << test::DistributionName(dist) << " n=" << n
          << " simd=" << simd_on;
      if (n > radix_internal::kBucketBudget) {
        // Over-budget inputs must actually exercise the radix layer (or
        // its duplicate shortcut) rather than falling straight to
        // introsort.
        EXPECT_GT(shape.partition_passes + shape.tie_shortcuts, 0u)
            << test::DistributionName(dist) << " n=" << n;
      } else {
        EXPECT_EQ(shape.partition_passes, 0u);
      }
      EXPECT_GT(shape.buckets_sorted, 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllDistributions, RadixSweep,
    ::testing::ValuesIn(test::AllDistributions()),
    [](const ::testing::TestParamInfo<KeyDistribution>& info) {
      return test::DistributionName(info.param);
    });

// --- skew and duplicate shape: the stats must show the safety valves
// firing where the input demands them.

TEST(RadixPartitionTest, AllEqualPrefixesTakeTheTieShortcut) {
  const RecordFormat fmt = kDatamationFormat;
  const uint64_t n = 10000;
  // kSharedPrefix shares the first 8 key bytes — every 64-bit prefix is
  // identical, so no number of radix passes can split the range.
  std::vector<char> block =
      MakeBlock(fmt, KeyDistribution::kSharedPrefix, n, 31);
  std::vector<PrefixEntry> entries(n);
  BuildPrefixEntryArray(fmt, block.data(), n, entries.data());
  RadixStats shape;
  SortStats stats;
  RadixSortPrefixEntryArray(fmt, entries.data(), n, &stats, &shape);
  EXPECT_EQ(shape.partition_passes, 0u);
  EXPECT_EQ(shape.tie_shortcuts, 1u);
  EXPECT_GT(stats.tie_breaks, 0u);
  for (size_t i = 1; i < n; ++i) {
    ASSERT_LE(fmt.CompareKeys(entries[i - 1].record, entries[i].record), 0);
  }
}

TEST(RadixPartitionTest, SkewedBucketsRecurseOnTheNextByte) {
  const RecordFormat fmt = kDatamationFormat;
  const uint64_t n = 12000;
  // Uniform keys, then pin the first byte to one of two values: two
  // buckets of ~6000 entries, both far over the bucket budget, so the
  // hybrid must recurse on byte 1.
  std::vector<char> block = MakeBlock(fmt, KeyDistribution::kUniform, n, 77);
  for (uint64_t i = 0; i < n; ++i) {
    block[i * fmt.record_size + fmt.key_offset] = (i % 2) ? 'A' : 'Q';
  }
  std::vector<PrefixEntry> quick(n), radix(n);
  BuildPrefixEntryArray(fmt, block.data(), n, quick.data());
  radix = quick;
  SortPrefixEntryArray(fmt, quick.data(), n);
  RadixStats shape;
  RadixSortPrefixEntryArray(fmt, radix.data(), n, nullptr, &shape);
  EXPECT_EQ(memcmp(quick.data(), radix.data(), n * sizeof(PrefixEntry)), 0);
  EXPECT_GE(shape.buckets_recursed, 2u);
  EXPECT_GE(shape.partition_passes, 3u);  // top pass + both fat buckets
}

TEST(RadixPartitionTest, CommonPrefixAdvancesBytesWithoutScatter) {
  const RecordFormat fmt = kDatamationFormat;
  const uint64_t n = 12000;
  // First 3 key bytes constant, rest uniform: the hybrid should skip 3
  // bytes without paying a scatter, then split on byte 3. Its ~47-entry
  // buckets take one more scatter each if over budget, and their
  // ~0.2-entry buckets all fit: passes = the byte-3 pass + one per
  // over-budget byte-3 bucket. A scatter on a constant byte would add a
  // pass and a recursed 12,000-entry bucket per byte.
  std::vector<char> block = MakeBlock(fmt, KeyDistribution::kUniform, n, 78);
  for (uint64_t i = 0; i < n; ++i) {
    memset(block.data() + i * fmt.record_size + fmt.key_offset, 'z', 3);
  }
  std::vector<PrefixEntry> quick(n), radix(n);
  BuildPrefixEntryArray(fmt, block.data(), n, quick.data());
  radix = quick;
  size_t over_budget = 0;
  {
    std::array<size_t, 256> byte3{};
    for (const PrefixEntry& e : quick) ++byte3[(e.prefix >> 32) & 0xFF];
    for (size_t count : byte3) {
      over_budget += count > radix_internal::kBucketBudget;
    }
  }
  SortPrefixEntryArray(fmt, quick.data(), n);
  RadixStats shape;
  RadixSortPrefixEntryArray(fmt, radix.data(), n, nullptr, &shape);
  EXPECT_EQ(memcmp(quick.data(), radix.data(), n * sizeof(PrefixEntry)), 0);
  EXPECT_GT(over_budget, 0u);
  EXPECT_EQ(shape.buckets_recursed, over_budget);
  EXPECT_EQ(shape.partition_passes, 1 + over_budget);
}

TEST(RadixPartitionTest, StatsAccountScatterMoves) {
  const RecordFormat fmt = kDatamationFormat;
  const uint64_t n = 20000;
  std::vector<char> block = MakeBlock(fmt, KeyDistribution::kUniform, n, 79);
  std::vector<PrefixEntry> entries(n);
  BuildPrefixEntryArray(fmt, block.data(), n, entries.data());
  // Uniform keys put ~78 entries in each top-byte bucket, so every
  // over-budget bucket takes exactly one more scatter, whose ~0.3-entry
  // buckets all fit: passes = the top pass + one per recursed bucket.
  size_t over_budget = 0;
  {
    std::array<size_t, 256> top{};
    for (const PrefixEntry& e : entries) ++top[e.prefix >> 56];
    for (size_t count : top) {
      over_budget += count > radix_internal::kBucketBudget;
    }
  }
  SortStats stats;
  RadixStats shape;
  RadixSortPrefixEntryArray(fmt, entries.data(), n, &stats, &shape);
  EXPECT_EQ(shape.buckets_recursed, over_budget);
  EXPECT_EQ(shape.partition_passes, 1 + shape.buckets_recursed);
  // The scatters moved every entry at least once, on top of the bucket
  // introsorts' own swaps.
  EXPECT_GE(stats.exchanges, n);
  EXPECT_GE(stats.bytes_moved, n * sizeof(PrefixEntry));
  EXPECT_GT(stats.compares, 0u);
}

TEST(RadixPartitionTest, KernelDispatchRespectsSelection) {
  const RecordFormat fmt = kDatamationFormat;
  const uint64_t n = 30000;  // over the bucket budget
  std::vector<char> block = MakeBlock(fmt, KeyDistribution::kUniform, n, 80);
  std::vector<PrefixEntry> entries(n);

  BuildPrefixEntryArray(fmt, block.data(), n, entries.data());
  RadixStats shape;
  SortPrefixEntryArrayWithKernel(fmt, entries.data(), n,
                                 SortKernel::kQuickSort, nullptr, &shape);
  EXPECT_EQ(shape.partition_passes, 0u);
  EXPECT_EQ(shape.buckets_sorted, 0u);

  BuildPrefixEntryArray(fmt, block.data(), n, entries.data());
  SortPrefixEntryArrayWithKernel(fmt, entries.data(), n, SortKernel::kAuto,
                                 nullptr, &shape);
  EXPECT_GE(shape.partition_passes, 1u);
}

// --- pipeline level: the sort writes its input ordered by full key, ties
// in input order. That is the strict order both kernels share, so which
// kernel sorted the runs cannot show in the output; std::stable_sort by
// full key gives it without either kernel, and pins the tie order, which
// the validator does not check.

std::string StableSortByKey(const RecordFormat& fmt,
                            const std::string& input) {
  const size_t rec = fmt.record_size;
  std::vector<const char*> records(input.size() / rec);
  for (size_t i = 0; i < records.size(); ++i) {
    records[i] = input.data() + i * rec;
  }
  std::stable_sort(records.begin(), records.end(),
                   [&fmt](const char* a, const char* b) {
                     return fmt.CompareKeys(a, b) < 0;
                   });
  std::string out;
  out.reserve(input.size());
  for (const char* r : records) out.append(r, rec);
  return out;
}

TEST(RadixPartitionTest, PipelineOutputMatchesStableSortByKey) {
  for (KeyDistribution dist : test::AllDistributions()) {
    for (int passes : {1, 2}) {
      SCOPED_TRACE(std::string(test::DistributionName(dist)) +
                   " passes=" + std::to_string(passes));
      auto env = NewMemEnv();
      InputSpec spec;
      spec.path = "in.dat";
      spec.num_records = 12000;
      spec.distribution = dist;
      spec.seed = 4242;
      ASSERT_TRUE(CreateInputFile(env.get(), spec).ok());
      SortOptions opts;
      opts.input_path = spec.path;
      opts.output_path = "out.dat";
      opts.num_workers = 2;
      opts.run_size_records = 5000;  // several runs, all over budget
      opts.io_chunk_bytes = 16 * 1024;
      opts.force_passes = passes;
      SortMetrics metrics;
      Status s = AlphaSort::Run(env.get(), opts, &metrics);
      ASSERT_TRUE(s.ok()) << s.ToString();
      EXPECT_EQ(metrics.passes, passes);

      const std::string expected = StableSortByKey(
          spec.format, env->ReadFileToString(spec.path).value());
      const std::string output = env->ReadFileToString("out.dat").value();
      EXPECT_TRUE(output == expected);
      EXPECT_EQ(metrics.output_crc32c,
                Crc32c(expected.data(), expected.size()));
    }
  }
}

}  // namespace
}  // namespace alphasort
