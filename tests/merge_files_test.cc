#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "benchlib/datamation.h"
#include "common/checksum.h"
#include "common/table.h"
#include "core/alphasort.h"
#include "core/merge_files.h"
#include "core/record_io.h"
#include "record/validator.h"
#include "sort/merge_partition.h"
#include "tests/test_util.h"

namespace alphasort {
namespace {

// Writes a sorted record file of n records at `path`.
Status MakeSortedFile(Env* env, const std::string& path, uint64_t n,
                      uint64_t seed) {
  InputSpec spec;
  spec.path = "tmp_unsorted.dat";
  spec.num_records = n;
  spec.seed = seed;
  ALPHASORT_RETURN_IF_ERROR(CreateInputFile(env, spec));
  SortOptions opts;
  opts.input_path = "tmp_unsorted.dat";
  opts.output_path = path;
  ALPHASORT_RETURN_IF_ERROR(AlphaSort::Run(env, opts));
  return env->DeleteFile("tmp_unsorted.dat");
}

TEST(MergeFilesTest, MergesSortedFilesIntoOne) {
  auto env = NewMemEnv();
  std::vector<std::string> inputs;
  SortValidator validator(kDatamationFormat);
  std::vector<char> buf;
  for (int i = 0; i < 4; ++i) {
    const std::string path = StrFormat("sorted%d.dat", i);
    ASSERT_TRUE(MakeSortedFile(env.get(), path, 500 + 100 * i, i).ok());
    inputs.push_back(path);
    auto data = env->ReadFileToString(path).value();
    validator.AddInput(data.data(), data.size() / 100);
  }

  SortOptions opts;
  SortMetrics m;
  ASSERT_TRUE(
      MergeSortedFiles(env.get(), inputs, "merged.dat", opts, &m).ok());
  EXPECT_EQ(m.num_records, 500u + 600 + 700 + 800);
  EXPECT_EQ(m.num_runs, 4u);

  auto merged = env->ReadFileToString("merged.dat").value();
  validator.AddOutput(merged.data(), merged.size() / 100);
  EXPECT_TRUE(validator.Finish().ok());
}

TEST(MergeFilesTest, RejectsUnsortedInput) {
  auto env = NewMemEnv();
  ASSERT_TRUE(MakeSortedFile(env.get(), "good.dat", 300, 1).ok());
  InputSpec spec;
  spec.path = "bad.dat";  // random order: not sorted
  spec.num_records = 300;
  spec.seed = 2;
  ASSERT_TRUE(CreateInputFile(env.get(), spec).ok());

  SortOptions opts;
  Status s = MergeSortedFiles(env.get(), {"good.dat", "bad.dat"},
                              "merged.dat", opts);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_NE(s.message().find("not sorted"), std::string::npos);
}

// Without an IO thread no read would ever complete; the merge refuses
// the options, with the error SortOptions::Validate gives, before it
// touches a file.
TEST(MergeFilesTest, RejectsZeroIoThreads) {
  auto env = NewMemEnv();
  ASSERT_TRUE(MakeSortedFile(env.get(), "one.dat", 200, 3).ok());
  SortOptions opts;
  opts.io_threads = 0;
  Status s = MergeSortedFiles(env.get(), {"one.dat"}, "merged.dat", opts);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_NE(s.message().find("io_threads"), std::string::npos);
  EXPECT_FALSE(env->FileExists("merged.dat"));
}

TEST(MergeFilesTest, SingleAndZeroInputs) {
  auto env = NewMemEnv();
  ASSERT_TRUE(MakeSortedFile(env.get(), "one.dat", 200, 3).ok());
  SortOptions opts;
  ASSERT_TRUE(
      MergeSortedFiles(env.get(), {"one.dat"}, "copy.dat", opts).ok());
  EXPECT_EQ(env->ReadFileToString("copy.dat").value(),
            env->ReadFileToString("one.dat").value());

  ASSERT_TRUE(MergeSortedFiles(env.get(), {}, "empty.dat", opts).ok());
  EXPECT_EQ(env->GetFileSize("empty.dat").value(), 0u);
}

TEST(MergeFilesTest, StableAcrossInputsForEqualKeys) {
  auto env = NewMemEnv();
  // Two files of constant keys: merged output must drain file 0 first.
  for (int i = 0; i < 2; ++i) {
    InputSpec spec;
    spec.path = StrFormat("const%d.dat", i);
    spec.num_records = 50;
    spec.distribution = KeyDistribution::kConstant;
    spec.seed = 10 + i;
    ASSERT_TRUE(CreateInputFile(env.get(), spec).ok());
  }
  SortOptions opts;
  ASSERT_TRUE(MergeSortedFiles(env.get(), {"const0.dat", "const1.dat"},
                               "merged.dat", opts)
                  .ok());
  const std::string merged = env->ReadFileToString("merged.dat").value();
  const std::string first = env->ReadFileToString("const0.dat").value();
  EXPECT_EQ(merged.substr(0, first.size()), first);
}

// Sorts `raw` into `sorted`.
Status SortFile(Env* env, const std::string& raw, const std::string& sorted) {
  SortOptions opts;
  opts.input_path = raw;
  opts.output_path = sorted;
  return AlphaSort::Run(env, opts);
}

// Merging sorted files writes exactly what one sort of their
// concatenation writes: the sort breaks key ties by record position, so
// equal keys keep input-list order, as the merge's stream tie-break
// does. Three inputs of 21k-60k records hold 21+ samples each, so with
// workers the merge splits into several key ranges.
TEST(MergeFilesTest, MatchesSortOfConcatenation) {
  const uint64_t kRecords[] = {21000, 40000, 60000};
  for (KeyDistribution dist :
       {KeyDistribution::kUniform, KeyDistribution::kZipfian,
        KeyDistribution::kDupHeavy, KeyDistribution::kConstant}) {
    SCOPED_TRACE(test::DistributionName(dist));
    auto env = NewMemEnv();
    std::vector<std::string> inputs;
    std::string concatenated;
    for (size_t i = 0; i < 3; ++i) {
      InputSpec spec;
      spec.path = StrFormat("raw%zu.dat", i);
      spec.num_records = kRecords[i];
      spec.distribution = dist;
      spec.seed = 30 + i;
      ASSERT_TRUE(CreateInputFile(env.get(), spec).ok());
      concatenated += env->ReadFileToString(spec.path).value();
      inputs.push_back(StrFormat("sorted%zu.dat", i));
      ASSERT_TRUE(SortFile(env.get(), spec.path, inputs.back()).ok());
    }
    ASSERT_TRUE(env->WriteStringToFile("cat.dat", concatenated).ok());
    ASSERT_TRUE(SortFile(env.get(), "cat.dat", "expected.dat").ok());
    const std::string expected = env->ReadFileToString("expected.dat").value();

    for (int workers : {0, 1, 3}) {
      SCOPED_TRACE(StrFormat("workers=%d", workers));
      SortOptions opts;
      opts.num_workers = workers;
      SortMetrics m;
      Status s = MergeSortedFiles(env.get(), inputs, "merged.dat", opts, &m);
      ASSERT_TRUE(s.ok()) << s.ToString();
      const std::string merged = env->ReadFileToString("merged.dat").value();
      EXPECT_TRUE(merged == expected);
      EXPECT_EQ(m.output_crc32c, Crc32c(merged.data(), merged.size()));
      EXPECT_EQ(m.num_records, expected.size() / 100);
      EXPECT_EQ(m.bytes_out, expected.size());
      EXPECT_LE(m.merge_ranges, workers == 0 ? 1u : 2u * workers);
      if (workers > 0 && dist == KeyDistribution::kUniform) {
        EXPECT_GT(m.merge_ranges, 1u);
      }
      EXPECT_NEAR(m.PhaseSum(), m.total_s, 1e-3 + 0.01 * m.total_s);
    }
  }
}

// A sorted file rotated at record p is two sorted pieces, with one
// decrease where the old last record meets the old first. The merge must
// refuse it wherever p falls: on a boundary of the key ranges the merge
// of the sorted files cuts (each piece then holds whole ranges) or inside
// one, and on or off the stride at which keys are sampled.
TEST(MergeFilesTest, RejectsUnsortedInputAcrossRanges) {
  const RecordFormat fmt = kDatamationFormat;
  const uint64_t n = 40000;
  auto env = NewMemEnv();
  ASSERT_TRUE(MakeSortedFile(env.get(), "sorted.dat", n, 41).ok());
  ASSERT_TRUE(MakeSortedFile(env.get(), "other.dat", n, 42).ok());
  const std::string sorted = env->ReadFileToString("sorted.dat").value();

  SortOptions opts;
  opts.num_workers = 3;  // 2 × 3 key ranges
  SortMetrics m;
  ASSERT_TRUE(MergeSortedFiles(env.get(), {"sorted.dat", "other.dat"},
                               "merged.dat", opts, &m)
                  .ok());
  ASSERT_EQ(m.merge_ranges, 6u);

  // Where the merge's key ranges cut sorted.dat: the first record of
  // each range but the first, found as the merge finds it, from the keys
  // sampled every kSampleStride records.
  std::vector<std::string> keys(2);
  std::vector<SampledRun> runs(2);
  const std::string files[] = {sorted,
                               env->ReadFileToString("other.dat").value()};
  for (size_t f = 0; f < 2; ++f) {
    for (uint64_t i = 0; i < n; i += kSampleStride) {
      keys[f].append(fmt.KeyPtr(files[f].data() + i * fmt.record_size),
                     fmt.key_size);
    }
    runs[f] = SampledRun{n, Slice(keys[f])};
  }
  RunSlices slices;
  ASSERT_TRUE(PartitionSampledRuns(
                  fmt, runs, 6,
                  [&](size_t f, uint64_t first, uint64_t count, char* dst) {
                    memcpy(dst, files[f].data() + first * fmt.record_size,
                           count * fmt.record_size);
                    return Status::OK();
                  },
                  &slices)
                  .ok());
  ASSERT_EQ(slices.NumRanges(), 6u);

  std::vector<uint64_t> rotations;
  for (size_t r = 1; r < slices.NumRanges(); ++r) {
    const uint64_t boundary = slices.bounds[r][0];
    rotations.push_back(boundary);  // on a range boundary
    // Inside the range that starts there.
    rotations.push_back((boundary + slices.bounds[r + 1][0]) / 2);
  }
  // On the sampling stride, and one record past it.
  rotations.push_back(8 * kSampleStride);
  rotations.push_back(8 * kSampleStride + 1);
  for (uint64_t rotate : rotations) {
    SCOPED_TRACE(StrFormat("rotated at record %llu",
                           static_cast<unsigned long long>(rotate)));
    ASSERT_GT(rotate, 0u);
    ASSERT_LT(rotate, n);
    ASSERT_TRUE(env->WriteStringToFile(
                       "rotated.dat",
                       sorted.substr(rotate * fmt.record_size) +
                           sorted.substr(0, rotate * fmt.record_size))
                    .ok());
    Status s = MergeSortedFiles(env.get(), {"rotated.dat", "other.dat"},
                                "merged.dat", opts);
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();
    EXPECT_NE(s.message().find("not sorted"), std::string::npos)
        << s.ToString();
  }
}

TEST(RecordIoTest, WriterReaderRoundTrip) {
  auto env = NewMemEnv();
  RecordGenerator gen(kDatamationFormat, 5);
  const uint64_t n = 3000;
  auto block = gen.Generate(KeyDistribution::kUniform, n);

  auto writer = RecordFileWriter::Create(env.get(), "records.dat",
                                         kDatamationFormat);
  ASSERT_TRUE(writer.ok());
  // Ragged appends.
  uint64_t written = 0;
  Random rng(6);
  while (written < n) {
    const uint64_t chunk = std::min<uint64_t>(1 + rng.Uniform(700),
                                              n - written);
    ASSERT_TRUE(writer.value()
                    ->Append(block.data() + written * 100, chunk)
                    .ok());
    written += chunk;
  }
  ASSERT_TRUE(writer.value()->Finish().ok());
  EXPECT_EQ(writer.value()->records_written(), n);

  auto reader = RecordFileReader::Open(env.get(), "records.dat",
                                       kDatamationFormat, 128);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader.value()->num_records(), n);
  uint64_t i = 0;
  while (const char* rec = reader.value()->Current()) {
    ASSERT_EQ(memcmp(rec, block.data() + i * 100, 100), 0) << "record " << i;
    ASSERT_TRUE(reader.value()->Advance().ok());
    ++i;
  }
  EXPECT_EQ(i, n);
}

TEST(RecordIoTest, ReadBatchDeliversAllRecords) {
  auto env = NewMemEnv();
  RecordGenerator gen(kDatamationFormat, 8);
  const uint64_t n = 1000;
  auto block = gen.Generate(KeyDistribution::kUniform, n);
  {
    auto writer = RecordFileWriter::Create(env.get(), "batch.dat",
                                           kDatamationFormat);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value()->Append(block.data(), n).ok());
    ASSERT_TRUE(writer.value()->Finish().ok());
  }
  auto reader =
      RecordFileReader::Open(env.get(), "batch.dat", kDatamationFormat);
  ASSERT_TRUE(reader.ok());
  std::vector<char> out(n * 100);
  uint64_t total = 0;
  while (true) {
    auto got = reader.value()->ReadBatch(out.data() + total * 100, 333);
    ASSERT_TRUE(got.ok());
    if (got.value() == 0) break;
    total += got.value();
  }
  EXPECT_EQ(total, n);
  EXPECT_EQ(memcmp(out.data(), block.data(), n * 100), 0);
}

TEST(RecordIoTest, WriterRejectsAppendAfterFinish) {
  auto env = NewMemEnv();
  auto writer =
      RecordFileWriter::Create(env.get(), "w.dat", kDatamationFormat);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer.value()->Finish().ok());
  char rec[100] = {};
  EXPECT_TRUE(writer.value()->Append(rec, 1).IsInvalidArgument());
}

TEST(RecordIoTest, StripedRoundTrip) {
  auto env = NewMemEnv();
  ASSERT_TRUE(WriteStripeDefinition(
                  env.get(), "recs.str",
                  MakeUniformStripe("recs", 3, 4096))
                  .ok());
  RecordGenerator gen(kDatamationFormat, 9);
  const uint64_t n = 2000;
  auto block = gen.Generate(KeyDistribution::kUniform, n);
  {
    auto writer = RecordFileWriter::Create(env.get(), "recs.str",
                                           kDatamationFormat);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value()->Append(block.data(), n).ok());
    ASSERT_TRUE(writer.value()->Finish().ok());
  }
  auto reader =
      RecordFileReader::Open(env.get(), "recs.str", kDatamationFormat);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader.value()->num_records(), n);
}

}  // namespace
}  // namespace alphasort
