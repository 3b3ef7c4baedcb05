#include <fstream>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "benchlib/datamation.h"
#include "common/huge_pages.h"
#include "core/alphasort.h"
#include "core/record_source.h"
#include "core/vms_sort.h"
#include "io/fault_env.h"
#include "io/stripe.h"
#include "tests/test_util.h"

namespace alphasort {
namespace {

// Builds input/output paths and runs one full sort against a MemEnv.
struct EndToEnd {
  std::unique_ptr<Env> env = NewMemEnv();
  SortOptions opts;
  SortMetrics metrics;

  Status Prepare(uint64_t records, KeyDistribution dist, bool striped,
                 size_t width = 4) {
    InputSpec spec;
    spec.path = striped ? "in.str" : "in.dat";
    spec.num_records = records;
    spec.distribution = dist;
    spec.seed = 42 + records;
    spec.stripe_width = width;
    spec.stride_bytes = 8 * 1024;
    ALPHASORT_RETURN_IF_ERROR(CreateInputFile(env.get(), spec));
    opts.input_path = spec.path;
    opts.output_path = striped ? "out.str" : "out.dat";
    if (striped) {
      ALPHASORT_RETURN_IF_ERROR(
          CreateOutputDefinition(env.get(), "out.str", width, 8 * 1024));
    }
    return Status::OK();
  }

  Status Sort() { return AlphaSort::Run(env.get(), opts, &metrics); }

  Status Validate() {
    return ValidateSortedFile(env.get(), opts.input_path, opts.output_path,
                              opts.format);
  }
};

using E2eParam = std::tuple<KeyDistribution, uint64_t, int, bool>;

class AlphaSortE2E : public ::testing::TestWithParam<E2eParam> {};

// The headline property: a full pipeline run produces a sorted permutation
// for every distribution × size × worker count × striping choice.
TEST_P(AlphaSortE2E, SortsToASortedPermutation) {
  const auto [dist, records, workers, striped] = GetParam();
  EndToEnd e2e;
  ASSERT_TRUE(e2e.Prepare(records, dist, striped).ok());
  e2e.opts.num_workers = workers;
  e2e.opts.run_size_records = 1000;  // several runs at test sizes
  e2e.opts.io_chunk_bytes = 16 * 1024;
  Status s = e2e.Sort();
  ASSERT_TRUE(s.ok()) << s.ToString();
  Status v = e2e.Validate();
  EXPECT_TRUE(v.ok()) << v.ToString();
  EXPECT_EQ(e2e.metrics.num_records, records);
  EXPECT_EQ(e2e.metrics.passes, 1);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AlphaSortE2E,
    ::testing::Combine(::testing::ValuesIn(test::AllDistributions()),
                       ::testing::Values(uint64_t{0}, uint64_t{1},
                                         uint64_t{999}, uint64_t{10000}),
                       ::testing::Values(0, 3),
                       ::testing::Values(false, true)),
    [](const ::testing::TestParamInfo<E2eParam>& info) {
      return std::string(test::DistributionName(std::get<0>(info.param))) +
             "_n" + std::to_string(std::get<1>(info.param)) + "_w" +
             std::to_string(std::get<2>(info.param)) +
             (std::get<3>(info.param) ? "_striped" : "_plain");
    });

// The partitioned parallel merge must be invisible in the output: every
// worker count (two key ranges per worker) writes the same CRC-32C as the
// serial sort's single global tournament, for benign and adversarial key
// distributions alike. Each run uses its own MemEnv but the same
// generator seed, so the inputs are identical.
TEST(AlphaSortTest, PartitionedMergeOutputMatchesSequentialCrc) {
  // One-pass merges over four key distributions, then a forced two-pass
  // sort (11 spilled runs) and a cascade (fan-in 2): every merge of them
  // goes through the key-range partitioned merge.
  struct Case {
    KeyDistribution dist;
    int force_passes;
    uint64_t memory_budget;
    size_t max_merge_fanin;
  };
  const SortOptions defaults;
  const Case cases[] = {
      {KeyDistribution::kUniform, 0, defaults.memory_budget, 128},
      {KeyDistribution::kConstant, 0, defaults.memory_budget, 128},
      {KeyDistribution::kFewDistinct, 0, defaults.memory_budget, 128},
      {KeyDistribution::kSharedPrefix, 0, defaults.memory_budget, 128},
      {KeyDistribution::kUniform, 2, 256 * 1024, 128},
      {KeyDistribution::kUniform, 2, 256 * 1024, 2},
  };
  for (const Case& c : cases) {
    // The serial sort (one range) first, then 1, 2 and 3 workers.
    const int workers[4] = {0, 1, 2, 3};
    SortMetrics metrics[4];
    for (int i = 0; i < 4; ++i) {
      EndToEnd e2e;
      ASSERT_TRUE(e2e.Prepare(12000, c.dist, /*striped=*/false).ok());
      e2e.opts.num_workers = workers[i];
      e2e.opts.run_size_records = 700;
      e2e.opts.io_chunk_bytes = 16 * 1024;
      e2e.opts.force_passes = c.force_passes;
      e2e.opts.memory_budget = c.memory_budget;
      e2e.opts.max_merge_fanin = c.max_merge_fanin;
      e2e.opts.scratch_path = "scratch";
      Status s = e2e.Sort();
      ASSERT_TRUE(s.ok()) << s.ToString();
      ASSERT_TRUE(e2e.Validate().ok());
      metrics[i] = e2e.metrics;
    }
    const SortMetrics& serial = metrics[0];
    const std::string where =
        "distribution " + std::to_string(static_cast<int>(c.dist)) +
        ", passes " + std::to_string(serial.passes) + ", fan-in " +
        std::to_string(c.max_merge_fanin);
    if (c.force_passes == 2) {
      EXPECT_EQ(serial.passes, 2) << where;
      EXPECT_GE(serial.num_runs, 8u) << where;
    }
    EXPECT_EQ(serial.merge_ranges, 1u) << where;
    for (int i = 1; i < 4; ++i) {
      const std::string cell =
          where + ", workers " + std::to_string(workers[i]);
      EXPECT_EQ(metrics[i].output_crc32c, serial.output_crc32c) << cell;
      // All-equal keys legitimately collapse to one range; the others
      // must actually split, into at most 2 × num_workers key ranges.
      if (c.dist == KeyDistribution::kConstant) {
        EXPECT_EQ(metrics[i].merge_ranges, 1u) << cell;
      } else {
        EXPECT_GT(metrics[i].merge_ranges, 1u) << cell;
        EXPECT_LE(metrics[i].merge_ranges, 2u * workers[i]) << cell;
      }
    }
  }
}

TEST(AlphaSortTest, TwoPassSortsLargeInput) {
  EndToEnd e2e;
  ASSERT_TRUE(
      e2e.Prepare(20000, KeyDistribution::kUniform, /*striped=*/true).ok());
  e2e.opts.memory_budget = 256 * 1024;  // force a spill: input is 2 MB
  e2e.opts.run_size_records = 500;
  e2e.opts.io_chunk_bytes = 16 * 1024;
  e2e.opts.num_workers = 2;
  e2e.opts.scratch_path = "scratch";
  Status s = e2e.Sort();
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(e2e.metrics.passes, 2);
  EXPECT_GT(e2e.metrics.num_runs, 1u);
  EXPECT_GT(e2e.metrics.scratch_bytes_written, 0u);
  Status v = e2e.Validate();
  EXPECT_TRUE(v.ok()) << v.ToString();
  // Scratch files are cleaned up.
  EXPECT_FALSE(e2e.env->FileExists("scratch.l0_run0000"));
}

TEST(AlphaSortTest, TwoPassCascadesWithTinyFanin) {
  EndToEnd e2e;
  ASSERT_TRUE(
      e2e.Prepare(20000, KeyDistribution::kUniform, /*striped=*/false).ok());
  e2e.opts.memory_budget = 150 * 1024;  // ~700-record chunks -> ~29 runs
  e2e.opts.run_size_records = 200;
  e2e.opts.io_chunk_bytes = 8 * 1024;
  e2e.opts.max_merge_fanin = 4;  // forces two cascade levels
  e2e.opts.scratch_path = "cascade";
  Status s = e2e.Sort();
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(e2e.metrics.passes, 2);
  EXPECT_GT(e2e.metrics.num_runs, 4u);
  // Cascade levels re-write the data: scratch traffic exceeds one copy.
  EXPECT_GT(e2e.metrics.scratch_bytes_written, e2e.metrics.bytes_in);
  Status v = e2e.Validate();
  EXPECT_TRUE(v.ok()) << v.ToString();
  // All scratch levels cleaned up.
  EXPECT_FALSE(e2e.env->FileExists("cascade.l0_run0000"));
  EXPECT_FALSE(e2e.env->FileExists("cascade.l1_run0000"));
  EXPECT_FALSE(e2e.env->FileExists("cascade.l2_run0000"));
}

TEST(AlphaSortTest, StripedScratchRunsWorkAndCleanUp) {
  EndToEnd e2e;
  ASSERT_TRUE(
      e2e.Prepare(10000, KeyDistribution::kUniform, /*striped=*/false).ok());
  e2e.opts.memory_budget = 200 * 1024;  // several spill runs
  e2e.opts.run_size_records = 300;
  e2e.opts.io_chunk_bytes = 8 * 1024;
  e2e.opts.scratch_path = "sscratch";
  e2e.opts.scratch_stripe_width = 3;  // §6's dedicated scratch disks
  Status s = e2e.Sort();
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(e2e.metrics.passes, 2);
  EXPECT_TRUE(e2e.Validate().ok());
  // Striped run members and definitions are all gone.
  EXPECT_FALSE(e2e.env->FileExists("sscratch.l0_run0000.str"));
  EXPECT_FALSE(e2e.env->FileExists("sscratch.l0_run0000.s00"));
  EXPECT_FALSE(e2e.env->FileExists("sscratch.l0_run0000.s02"));
}

TEST(AlphaSortTest, ForcedTwoPassMatchesOnePassOutput) {
  EndToEnd one, two;
  ASSERT_TRUE(
      one.Prepare(5000, KeyDistribution::kUniform, /*striped=*/false).ok());
  ASSERT_TRUE(
      two.Prepare(5000, KeyDistribution::kUniform, /*striped=*/false).ok());
  one.opts.force_passes = 1;
  two.opts.force_passes = 2;
  two.opts.run_size_records = 700;
  ASSERT_TRUE(one.Sort().ok());
  ASSERT_TRUE(two.Sort().ok());
  EXPECT_EQ(one.metrics.passes, 1);
  EXPECT_EQ(two.metrics.passes, 2);
  // Same input seed -> byte-identical sorted output (uniform keys are
  // unique with overwhelming probability, so order is unambiguous).
  auto a = one.env->ReadFileToString("out.dat");
  auto b = two.env->ReadFileToString("out.dat");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(a.value() == b.value());
}

TEST(AlphaSortTest, SurvivesExtremeIoGeometry) {
  // Chunks smaller than a record, depth 1, run size of one record.
  EndToEnd e2e;
  ASSERT_TRUE(
      e2e.Prepare(500, KeyDistribution::kUniform, /*striped=*/true, 3).ok());
  e2e.opts.io_chunk_bytes = 64;  // < 100-byte records
  e2e.opts.io_depth = 1;
  e2e.opts.run_size_records = 1;
  Status s = e2e.Sort();
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(e2e.metrics.num_runs, 500u);
  EXPECT_TRUE(e2e.Validate().ok());
}

TEST(AlphaSortTest, RunSizeLargerThanInputIsOneRun) {
  EndToEnd e2e;
  ASSERT_TRUE(
      e2e.Prepare(800, KeyDistribution::kUniform, /*striped=*/false).ok());
  e2e.opts.run_size_records = 1000000;
  ASSERT_TRUE(e2e.Sort().ok());
  EXPECT_EQ(e2e.metrics.num_runs, 1u);
  EXPECT_TRUE(e2e.Validate().ok());
}

TEST(AlphaSortTest, AffinityOptionIsHarmless) {
  EndToEnd e2e;
  ASSERT_TRUE(
      e2e.Prepare(2000, KeyDistribution::kUniform, /*striped=*/false).ok());
  e2e.opts.use_affinity = true;
  e2e.opts.num_workers = 2;
  ASSERT_TRUE(e2e.Sort().ok());
  EXPECT_TRUE(e2e.Validate().ok());
}

constexpr const char* kAdvisedCounter = "memory.huge_page_advised_bytes";

// True when the kernel grants transparent huge pages to an madvise()d
// range and reports them through PAGEMAP_SCAN.
bool HugePagesObservable() {
  std::ifstream f("/sys/kernel/mm/transparent_hugepage/enabled");
  std::string mode;
  std::getline(f, mode);
  if (mode.find("[always]") == std::string::npos &&
      mode.find("[madvise]") == std::string::npos) {
    return false;
  }
  const char probe = 0;
  return HugePageBytes(&probe, 1).has_value();
}

// A known-size one-pass sort advises its record block's 2 MiB-aligned
// interior before the prefault touches it, and the kernel backs the block
// with huge pages (paper §4: the gather's random reads; §5: the sweep).
TEST(AlphaSortTest, KnownSizeRecordBlockGetsHugePages) {
  if (!HugePagesObservable()) {
    GTEST_SKIP() << "transparent huge pages off or PAGEMAP_SCAN missing";
  }
  EndToEnd e2e;
  const uint64_t records = (64u << 20) / 100;  // 64 MB
  ASSERT_TRUE(
      e2e.Prepare(records, KeyDistribution::kUniform, /*striped=*/false)
          .ok());
  e2e.opts.num_workers = 2;
  ASSERT_TRUE(e2e.Sort().ok());
  EXPECT_EQ(e2e.metrics.passes, 1);
  EXPECT_GE(e2e.metrics.registry_delta.counters[kAdvisedCounter],
            60u << 20);
  ASSERT_TRUE(e2e.metrics.record_block_huge_page_bytes.has_value());
  EXPECT_GT(*e2e.metrics.record_block_huge_page_bytes, 0u);
  EXPECT_LE(*e2e.metrics.record_block_huge_page_bytes, records * 100);
  EXPECT_TRUE(e2e.Validate().ok());
}

// A stream's size is unknown and its optimistic first block mostly stays
// untouched, so it is never advised.
TEST(AlphaSortTest, StreamSourceRecordBlockIsNotAdvised) {
  EndToEnd e2e;
  ASSERT_TRUE(
      e2e.Prepare(20000, KeyDistribution::kUniform, /*striped=*/false)
          .ok());
  Result<std::string> input = e2e.env->ReadFileToString(e2e.opts.input_path);
  ASSERT_TRUE(input.ok());
  auto stream = std::make_shared<StreamRecordSource>(input.value().size());
  ASSERT_TRUE(stream->Append(input.value().data(), input.value().size()));
  stream->CloseWrite();
  const std::string input_path = e2e.opts.input_path;
  e2e.opts.input_path.clear();
  e2e.opts.source = [stream] { return stream; };
  // A first block of ~32 MB: plenty of whole huge pages to advise.
  e2e.opts.memory_budget = 32u << 20;
  const Status s = e2e.Sort();
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(e2e.metrics.passes, 1);
  EXPECT_EQ(e2e.metrics.registry_delta.counters[kAdvisedCounter], 0u);
  e2e.opts.input_path = input_path;
  EXPECT_TRUE(e2e.Validate().ok());
}

TEST(AlphaSortTest, MemoryBudgetBoundaryPicksPassesCorrectly) {
  const uint64_t records = 1000;
  const uint64_t bytes = records * 100;
  const uint64_t entries = records * SortOptions::kEntryOverheadBytes;
  // Exactly enough: one pass.
  {
    EndToEnd e2e;
    ASSERT_TRUE(
        e2e.Prepare(records, KeyDistribution::kUniform, false).ok());
    e2e.opts.memory_budget = bytes + entries;
    e2e.opts.io_chunk_bytes = 16 * 1024;  // keep budget >= 4 io chunks
    ASSERT_TRUE(e2e.Sort().ok());
    EXPECT_EQ(e2e.metrics.passes, 1);
  }
  // One byte short: two passes.
  {
    EndToEnd e2e;
    ASSERT_TRUE(
        e2e.Prepare(records, KeyDistribution::kUniform, false).ok());
    e2e.opts.memory_budget = bytes + entries - 1;
    e2e.opts.io_chunk_bytes = 16 * 1024;  // keep budget >= 4 io chunks
    ASSERT_TRUE(e2e.Sort().ok());
    EXPECT_EQ(e2e.metrics.passes, 2);
    EXPECT_TRUE(e2e.Validate().ok());
  }
}

TEST(AlphaSortTest, ReportsPhaseMetrics) {
  EndToEnd e2e;
  ASSERT_TRUE(
      e2e.Prepare(5000, KeyDistribution::kUniform, /*striped=*/true).ok());
  e2e.opts.run_size_records = 500;
  ASSERT_TRUE(e2e.Sort().ok());
  const SortMetrics& m = e2e.metrics;
  EXPECT_EQ(m.num_runs, 10u);
  EXPECT_EQ(m.bytes_in, 5000u * 100);
  EXPECT_EQ(m.bytes_out, 5000u * 100);
  EXPECT_GT(m.total_s, 0.0);
  EXPECT_GT(m.quicksort_stats.compares, 0u);
  EXPECT_GT(m.merge_stats.compares, 0u);
  EXPECT_FALSE(m.ToString().empty());

  // total_s must equal the sum of the phase laps (within timer noise).
  EXPECT_GT(m.PhaseSum(), 0.0);
  EXPECT_NEAR(m.total_s, m.PhaseSum(), 0.05 * m.total_s + 1e-4);

  const SortThroughput t = m.Throughput();
  EXPECT_GT(t.mb_per_s, 0.0);
  EXPECT_GT(t.records_per_s, 0.0);
  EXPECT_NEAR(t.records_per_s * 100, t.mb_per_s * 1e6, 1.0);

  // IO latency stats come from the built-in MetricsEnv wrap.
  ASSERT_TRUE(m.read_io.Valid());
  ASSERT_TRUE(m.write_io.Valid());
  EXPECT_GE(m.read_io.bytes, m.bytes_in);
  EXPECT_GE(m.write_io.bytes, m.bytes_out);
  EXPECT_LE(m.read_io.p50_us, m.read_io.p95_us);
  EXPECT_LE(m.read_io.p95_us, m.read_io.p99_us);
  EXPECT_LE(m.read_io.p99_us, m.read_io.max_us);
  EXPECT_NE(m.ToString().find("throughput:"), std::string::npos);
  EXPECT_NE(m.ToString().find("io reads:"), std::string::npos);
}

TEST(AlphaSortTest, RejectsBadOptions) {
  auto env = NewMemEnv();
  SortOptions opts;
  EXPECT_TRUE(AlphaSort::Run(env.get(), opts).IsInvalidArgument());
  opts.input_path = "a";
  opts.output_path = "a";
  EXPECT_TRUE(AlphaSort::Run(env.get(), opts).IsInvalidArgument());
  opts.output_path = "b";
  opts.run_size_records = 0;
  EXPECT_TRUE(AlphaSort::Run(env.get(), opts).IsInvalidArgument());
  opts.run_size_records = 100;
  opts.num_workers = -1;
  EXPECT_TRUE(AlphaSort::Run(env.get(), opts).IsInvalidArgument());
}

TEST(AlphaSortTest, MissingInputIsNotFound) {
  auto env = NewMemEnv();
  SortOptions opts;
  opts.input_path = "nope.dat";
  opts.output_path = "out.dat";
  EXPECT_TRUE(AlphaSort::Run(env.get(), opts).IsNotFound());
}

TEST(AlphaSortTest, RejectsTornInput) {
  auto env = NewMemEnv();
  ASSERT_TRUE(env->WriteStringToFile("in.dat", std::string(150, 'x')).ok());
  SortOptions opts;
  opts.input_path = "in.dat";
  opts.output_path = "out.dat";
  Status s = AlphaSort::Run(env.get(), opts);
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find("multiple of the record size"),
            std::string::npos);
}

TEST(AlphaSortTest, SurfacesInjectedReadFaults) {
  EndToEnd e2e;
  ASSERT_TRUE(
      e2e.Prepare(5000, KeyDistribution::kUniform, /*striped=*/true).ok());
  FaultInjectionEnv fenv(e2e.env.get());
  // Let the opens and early reads succeed, then fail mid-pipeline.
  fenv.FailAfter(10);
  e2e.opts.io_chunk_bytes = 16 * 1024;
  Status s = AlphaSort::Run(&fenv, e2e.opts, &e2e.metrics);
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
}

TEST(AlphaSortTest, SurfacesFaultsAtManyInjectionPoints) {
  // Sweep the fault point across the whole pipeline: every failure must
  // surface as an error status, never a silently wrong output. The sweep
  // range comes from an instrumented clean run, so every point lands on a
  // real IO operation.
  EndToEnd probe;
  ASSERT_TRUE(
      probe.Prepare(3000, KeyDistribution::kUniform, /*striped=*/true).ok());
  FaultInjectionEnv probe_env(probe.env.get());
  probe.opts.io_chunk_bytes = 8 * 1024;
  const uint64_t ops_before = probe_env.ops_seen();
  ASSERT_TRUE(AlphaSort::Run(&probe_env, probe.opts, &probe.metrics).ok());
  const int64_t total_ops =
      static_cast<int64_t>(probe_env.ops_seen() - ops_before);
  ASSERT_GT(total_ops, 10);

  for (int64_t fail_at :
       {int64_t{1}, int64_t{2}, total_ops / 4, total_ops / 2,
        3 * total_ops / 4, total_ops - 1}) {
    EndToEnd e2e;
    ASSERT_TRUE(
        e2e.Prepare(3000, KeyDistribution::kUniform, /*striped=*/true).ok());
    FaultInjectionEnv fenv(e2e.env.get());
    e2e.opts.io_chunk_bytes = 8 * 1024;
    fenv.FailAfter(fail_at);
    Status s = AlphaSort::Run(&fenv, e2e.opts, &e2e.metrics);
    EXPECT_FALSE(s.ok()) << "fault at op " << fail_at << " of " << total_ops
                         << " was swallowed";
    fenv.Disarm();
  }
}

TEST(AlphaSortTest, TwoPassSurfacesScratchFaults) {
  EndToEnd e2e;
  ASSERT_TRUE(
      e2e.Prepare(5000, KeyDistribution::kUniform, /*striped=*/false).ok());
  FaultInjectionEnv fenv(e2e.env.get());
  e2e.opts.force_passes = 2;
  e2e.opts.run_size_records = 500;
  e2e.opts.io_chunk_bytes = 8 * 1024;
  fenv.FailAfter(40);  // lands in the spill/merge machinery
  Status s = AlphaSort::Run(&fenv, e2e.opts, &e2e.metrics);
  EXPECT_FALSE(s.ok());
}

// A two-pass sort's scratch runs are merged in key-range slices; each
// run's slice CRCs, folded in range order, must still catch a byte
// flipped on a scratch write.
TEST(AlphaSortTest, PartitionedScratchMergeCatchesCorruptRuns) {
  EndToEnd e2e;
  ASSERT_TRUE(
      e2e.Prepare(12000, KeyDistribution::kUniform, /*striped=*/false).ok());
  FaultInjectionEnv fenv(e2e.env.get());
  e2e.opts.force_passes = 2;
  e2e.opts.memory_budget = 256 * 1024;
  e2e.opts.run_size_records = 700;
  e2e.opts.io_chunk_bytes = 16 * 1024;
  e2e.opts.num_workers = 3;
  e2e.opts.scratch_path = "scratch";

  SortMetrics clean;
  ASSERT_TRUE(AlphaSort::Run(&fenv, e2e.opts, &clean).ok());
  EXPECT_GT(clean.merge_ranges, 1u);
  EXPECT_GE(clean.runs_checksum_verified, clean.num_runs);

  FaultPlan plan;
  plan.seed = 3141;
  FaultSpec corrupting;
  corrupting.corrupt_write_prob = 1;  // every scratch write flips a byte
  plan.overrides.emplace_back("scratch.l", corrupting);
  fenv.SetPlan(plan);
  Status s = AlphaSort::Run(&fenv, e2e.opts, &e2e.metrics);
  fenv.SetPlan(FaultPlan{});
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_GT(fenv.corrupt_writes_injected(), 0u);

  std::vector<std::string> stray;
  ASSERT_TRUE(e2e.env->ListFiles("scratch", &stray).ok());
  EXPECT_TRUE(stray.empty()) << stray[0];
}

// An empty input forced into two passes spills nothing and still writes
// an empty output.
TEST(AlphaSortTest, TwoPassSortsEmptyInput) {
  EndToEnd e2e;
  ASSERT_TRUE(
      e2e.Prepare(0, KeyDistribution::kUniform, /*striped=*/false).ok());
  e2e.opts.force_passes = 2;
  e2e.opts.num_workers = 3;
  e2e.opts.scratch_path = "scratch";
  Status s = e2e.Sort();
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(e2e.metrics.passes, 2);
  EXPECT_EQ(e2e.metrics.num_records, 0u);
  EXPECT_EQ(e2e.metrics.num_runs, 0u);
  Status v = e2e.Validate();
  EXPECT_TRUE(v.ok()) << v.ToString();
}

// The VMS-sort baseline's replacement-selection runs carry the output
// ring's CRC-32C as well, so a byte flipped on a scratch write surfaces
// as Status::Corruption when the merge reads the run back.
TEST(AlphaSortTest, VmsScratchRunsAreChecksummed) {
  auto mem = NewMemEnv();
  FaultInjectionEnv fenv(mem.get());
  InputSpec spec;
  spec.path = "in.dat";
  spec.num_records = 5000;
  spec.seed = 1618;
  ASSERT_TRUE(CreateInputFile(&fenv, spec).ok());
  SortOptions opts;
  opts.input_path = "in.dat";
  opts.output_path = "out.dat";
  opts.scratch_path = "vscratch";
  opts.memory_budget = 64 * 1024;  // a 327-record tournament: many runs
  opts.io_chunk_bytes = 8 * 1024;

  SortMetrics clean;
  ASSERT_TRUE(VmsSort::Run(&fenv, opts, &clean).ok());
  EXPECT_EQ(clean.passes, 2);
  EXPECT_GT(clean.num_runs, 1u);
  EXPECT_GE(clean.runs_checksum_verified, clean.num_runs);

  FaultPlan plan;
  plan.seed = 2718;
  FaultSpec corrupting;
  corrupting.corrupt_write_prob = 1;  // every scratch write flips a byte
  plan.overrides.emplace_back("vscratch.l", corrupting);
  fenv.SetPlan(plan);
  SortMetrics metrics;
  Status s = VmsSort::Run(&fenv, opts, &metrics);
  fenv.SetPlan(FaultPlan{});
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_GT(fenv.corrupt_writes_injected(), 0u);

  std::vector<std::string> stray;
  ASSERT_TRUE(mem->ListFiles("vscratch", &stray).ok());
  EXPECT_TRUE(stray.empty()) << stray[0];
}

TEST(AlphaSortTest, CustomRecordFormats) {
  // 64-byte records with an 8-byte key at offset 4.
  const RecordFormat fmt(64, 8, 4);
  auto env = NewMemEnv();
  InputSpec spec;
  spec.path = "in.dat";
  spec.format = fmt;
  spec.num_records = 3000;
  spec.seed = 7;
  ASSERT_TRUE(CreateInputFile(env.get(), spec).ok());
  SortOptions opts;
  opts.input_path = "in.dat";
  opts.output_path = "out.dat";
  opts.format = fmt;
  opts.run_size_records = 500;
  SortMetrics metrics;
  Status s = AlphaSort::Run(env.get(), opts, &metrics);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_TRUE(ValidateSortedFile(env.get(), "in.dat", "out.dat", fmt).ok());
}

TEST(AlphaSortTest, WorksOnRealFilesystem) {
  // Same pipeline against the Posix env in TempDir.
  Env* env = GetPosixEnv();
  const std::string dir = ::testing::TempDir();
  InputSpec spec;
  spec.path = dir + "alphasort_posix_in.str";
  spec.num_records = 5000;
  spec.seed = 11;
  spec.stripe_width = 3;
  spec.stride_bytes = 16 * 1024;
  ASSERT_TRUE(CreateInputFile(env, spec).ok());
  SortOptions opts;
  opts.input_path = spec.path;
  opts.output_path = dir + "alphasort_posix_out.str";
  opts.num_workers = 2;
  ASSERT_TRUE(
      CreateOutputDefinition(env, opts.output_path, 3, 16 * 1024).ok());
  SortMetrics metrics;
  Status s = AlphaSort::Run(env, opts, &metrics);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_TRUE(ValidateSortedFile(env, opts.input_path, opts.output_path,
                                 opts.format)
                  .ok());
  StripeFile::Remove(env, opts.input_path);
  StripeFile::Remove(env, opts.output_path);
}

}  // namespace
}  // namespace alphasort
