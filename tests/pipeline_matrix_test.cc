// The whole pipeline across every input source × pass structure × worker
// count. Each cell sorts the same records and must write the same bytes,
// report the same output CRC-32C, pass the streaming SortValidator, and
// account its run-sort and merge compares. Covers the zero-copy resident
// path (mmap, memory, generated) and a spilling stream, neither of which
// the file-driven suites reach.

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/checksum.h"
#include "core/alphasort.h"
#include "core/record_source.h"
#include "io/env.h"
#include "record/generator.h"
#include "record/validator.h"

namespace alphasort {
namespace {

enum class SourceKind { kFile, kMmap, kMemory, kGenerated, kStream };

const char* SourceName(SourceKind k) {
  switch (k) {
    case SourceKind::kFile:
      return "File";
    case SourceKind::kMmap:
      return "Mmap";
    case SourceKind::kMemory:
      return "Memory";
    case SourceKind::kGenerated:
      return "Generated";
    case SourceKind::kStream:
      return "Stream";
  }
  return "Unknown";
}

constexpr uint64_t kRecords = 6000;
constexpr uint64_t kSeed = 91;
const RecordFormat kFormat;

// The shared input and its sorted image. Uniform 10-byte keys are unique
// with overwhelming probability, so the sorted order is unambiguous.
struct Reference {
  std::string input;
  std::string sorted;
  uint32_t crc = 0;

  Reference() {
    std::vector<char> bytes =
        RecordGenerator(kFormat, kSeed)
            .Generate(KeyDistribution::kUniform, kRecords);
    input.assign(bytes.begin(), bytes.end());
    std::vector<const char*> recs(kRecords);
    for (uint64_t i = 0; i < kRecords; ++i) {
      recs[i] = input.data() + i * kFormat.record_size;
    }
    std::sort(recs.begin(), recs.end(), [](const char* a, const char* b) {
      return kFormat.CompareKeys(a, b) < 0;
    });
    for (const char* r : recs) sorted.append(r, kFormat.record_size);
    crc = Crc32c(sorted.data(), sorted.size());
  }
};

const Reference& Ref() {
  static const Reference* ref = new Reference();
  return *ref;
}

using MatrixParam = std::tuple<SourceKind, bool /*spill*/, int /*workers*/>;

class PipelineMatrix : public ::testing::TestWithParam<MatrixParam> {};

TEST_P(PipelineMatrix, SameBytesEverywhere) {
  const auto [kind, spill, workers] = GetParam();
  const Reference& ref = Ref();
  auto env = NewMemEnv();

  SortOptions opts;
  opts.output_path = "out.dat";
  opts.scratch_path = "scratch";
  opts.num_workers = workers;
  opts.run_size_records = 700;
  opts.io_chunk_bytes = 8 * 1024;
  if (spill) {
    // A 256 KiB budget holds about a third of the input, so the sort
    // spills several runs. Known totals are also told to spill outright;
    // a stream only finds out when its first block overflows.
    opts.memory_budget = 256 * 1024;
    if (kind != SourceKind::kStream) opts.force_passes = 2;
  }

  const std::string mmap_path =
      ::testing::TempDir() + "pipeline_matrix_" + SourceName(kind) +
      (spill ? "_spill_w" : "_w") + std::to_string(workers) + "_in.dat";
  std::thread producer;
  switch (kind) {
    case SourceKind::kFile:
      ASSERT_TRUE(env->WriteStringToFile("in.dat", ref.input).ok());
      opts.input_path = "in.dat";
      break;
    case SourceKind::kMmap:
      ASSERT_TRUE(GetPosixEnv()->WriteStringToFile(mmap_path, ref.input).ok());
      opts.source = [mmap_path] {
        return std::make_shared<MmapRecordSource>(mmap_path);
      };
      break;
    case SourceKind::kMemory:
      opts.source = [&ref] {
        return std::make_shared<MemoryRecordSource>(ref.input.data(),
                                                    ref.input.size());
      };
      break;
    case SourceKind::kGenerated:
      opts.source = [] {
        return std::make_shared<GeneratedRecordSource>(
            kFormat, kRecords, KeyDistribution::kUniform, kSeed);
      };
      break;
    case SourceKind::kStream:
      opts.source = [&ref, &producer] {
        auto stream = std::make_shared<StreamRecordSource>(64 * 1024);
        producer = std::thread([stream, &ref] {
          // Odd-sized chunks, so record boundaries straddle appends.
          constexpr size_t kChunk = 10007;
          for (size_t off = 0; off < ref.input.size(); off += kChunk) {
            const size_t n = std::min(kChunk, ref.input.size() - off);
            if (!stream->Append(ref.input.data() + off, n)) return;
          }
          stream->CloseWrite();
        });
        return stream;
      };
      break;
  }

  SortMetrics metrics;
  Status s = AlphaSort::Run(env.get(), opts, &metrics);
  if (producer.joinable()) producer.join();
  if (kind == SourceKind::kMmap) GetPosixEnv()->DeleteFile(mmap_path);
  ASSERT_TRUE(s.ok()) << s.ToString();

  Result<std::string> out = env->ReadFileToString("out.dat");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_TRUE(out.value() == ref.sorted) << "output bytes differ";
  EXPECT_EQ(metrics.output_crc32c, ref.crc);

  SortValidator validator(kFormat);
  validator.AddInput(ref.input.data(), kRecords);
  validator.AddOutput(out.value().data(),
                      out.value().size() / kFormat.record_size);
  Status v = validator.Finish();
  EXPECT_TRUE(v.ok()) << v.ToString();

  EXPECT_EQ(metrics.num_records, kRecords);
  EXPECT_EQ(metrics.passes, spill ? 2 : 1);
  EXPECT_GT(metrics.quicksort_stats.compares, 0u);
  EXPECT_GT(metrics.merge_stats.compares, 0u);

  // Nothing is left behind in the scratch namespace.
  std::vector<std::string> stray;
  ASSERT_TRUE(env->ListFiles("scratch", &stray).ok());
  EXPECT_TRUE(stray.empty()) << stray[0];
}

INSTANTIATE_TEST_SUITE_P(
    Cells, PipelineMatrix,
    ::testing::Combine(
        ::testing::Values(SourceKind::kFile, SourceKind::kMmap,
                          SourceKind::kMemory, SourceKind::kGenerated,
                          SourceKind::kStream),
        ::testing::Bool(), ::testing::Values(0, 3)),
    [](const ::testing::TestParamInfo<MatrixParam>& info) {
      return std::string(SourceName(std::get<0>(info.param))) +
             (std::get<1>(info.param) ? "_spill" : "_onepass") + "_w" +
             std::to_string(std::get<2>(info.param));
    });

// A source whose Close() fails after delivering every byte.
class FailingCloseSource : public MemoryRecordSource {
 public:
  using MemoryRecordSource::MemoryRecordSource;
  Status Close() override { return Status::IOError("source close failed"); }
};

// A failing source Close() is the sort's error, but the harness still
// closes the output and fills the metrics it owes every exit.
TEST(PipelineCloseTest, FailingSourceCloseStillClosesAndReports) {
  const Reference& ref = Ref();
  auto env = NewMemEnv();
  SortOptions opts;
  opts.output_path = "out.dat";
  opts.run_size_records = 700;
  opts.io_chunk_bytes = 8 * 1024;
  opts.source = [&ref] {
    return std::make_shared<FailingCloseSource>(ref.input.data(),
                                                ref.input.size());
  };
  SortMetrics metrics;
  Status s = AlphaSort::Run(env.get(), opts, &metrics);
  ASSERT_TRUE(s.IsIOError()) << s.ToString();
  EXPECT_NE(s.message().find("source close failed"), std::string::npos);

  // The output was written in full and its IO was summarized.
  Result<std::string> out = env->ReadFileToString("out.dat");
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out.value() == ref.sorted);
  EXPECT_TRUE(metrics.write_io.Valid());
  EXPECT_GE(metrics.write_io.bytes, ref.sorted.size());
  EXPECT_GT(metrics.total_s, 0.0);
  EXPECT_FALSE(metrics.registry_delta.counters.empty());
}

}  // namespace
}  // namespace alphasort
