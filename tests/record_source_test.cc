// Conformance suite for every RecordSource implementation: the contract
// in core/record_source.h, exercised the way the pipeline exercises it —
// Open once, strictly sequential Reads of arbitrary sizes, Close once.
// File-backed sources must be byte-identical to reading the file
// directly; the stream source additionally covers its producer side
// (backpressure, mid-stream failure, consumer abandonment). The block
// read (ReadInto) is checked on its own: progress order, the bytes
// behind each report, and that an error returns only once no read still
// writes into the caller's block.

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "benchlib/datamation.h"
#include "core/record_source.h"
#include "io/async_io.h"
#include "io/env.h"
#include "io/fault_env.h"
#include "io/stripe.h"

namespace alphasort {
namespace {

// Pulls the whole source in `chunk`-byte requests, honouring the
// contract: *got < chunk only at end of input, then a final read with
// *got == 0.
Status Drain(RecordSource* source, size_t chunk, std::string* out) {
  std::vector<char> buf(chunk);
  for (;;) {
    size_t got = 0;
    ALPHASORT_RETURN_IF_ERROR(source->Read(buf.data(), chunk, &got));
    out->append(buf.data(), got);
    if (got < chunk) {
      size_t again = 0;
      ALPHASORT_RETURN_IF_ERROR(source->Read(buf.data(), chunk, &again));
      EXPECT_EQ(size_t{0}, again) << "reads past EOF must stay at EOF";
      return Status::OK();
    }
  }
}

std::string MakeBytes(size_t n, uint64_t seed = 7) {
  std::string s(n, '\0');
  uint64_t x = seed;
  for (size_t i = 0; i < n; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    s[i] = static_cast<char>(x >> 56);
  }
  return s;
}

// --- shared conformance over (source, expected bytes, known total) -----

void ExpectConformance(Env* env, AsyncIO* aio, RecordSource* source,
                       const std::string& expect, bool total_known,
                       size_t chunk) {
  ASSERT_TRUE(source->Open(env, aio).ok());
  uint64_t total = 0;
  EXPECT_EQ(total_known, source->TotalBytes(&total));
  if (total_known) {
    EXPECT_EQ(expect.size(), total);
  }

  uint64_t len = 0;
  const char* resident = source->ContiguousBytes(&len);
  if (resident != nullptr) {
    // The zero-copy promise: the whole input, already there.
    ASSERT_EQ(expect.size(), len);
    EXPECT_EQ(0, memcmp(resident, expect.data(), len));
  }

  std::string got;
  ASSERT_TRUE(Drain(source, chunk, &got).ok());
  EXPECT_EQ(expect.size(), got.size());
  EXPECT_EQ(expect, got);
  EXPECT_TRUE(source->Close().ok());
}

class RecordSourceTest : public ::testing::Test {
 protected:
  std::unique_ptr<Env> env_ = NewMemEnv();
  AsyncIO aio_{2};
};

// --- FileRecordSource --------------------------------------------------

TEST_F(RecordSourceTest, FileSourceMatchesFileBytes) {
  const std::string expect = MakeBytes(99900);  // not a chunk multiple
  ASSERT_TRUE(env_->WriteStringToFile("in.dat", expect).ok());
  // Chunk/depth far below the file size: the read-ahead ring wraps many
  // times and the EOF edge lands mid-ring.
  for (size_t chunk : {512u, 4096u, 16384u}) {
    FileRecordSource source("in.dat", /*chunk_bytes=*/16 * 1024,
                            /*depth=*/3);
    ExpectConformance(env_.get(), &aio_, &source, expect,
                      /*total_known=*/true, chunk);
  }
}

TEST_F(RecordSourceTest, FileSourceReadsStripedInput) {
  InputSpec spec;
  spec.path = "in.str";
  spec.num_records = 777;
  spec.stripe_width = 4;
  spec.stride_bytes = 8 * 1024;
  ASSERT_TRUE(CreateInputFile(env_.get(), spec).ok());

  // Reference bytes via the StripeFile view of the same input.
  Result<std::unique_ptr<StripeFile>> ref =
      StripeFile::Open(env_.get(), "in.str", OpenMode::kReadOnly);
  ASSERT_TRUE(ref.ok());
  Result<uint64_t> size = ref.value()->Size();
  ASSERT_TRUE(size.ok());
  std::string expect(size.value(), '\0');
  size_t n = 0;
  ASSERT_TRUE(
      ref.value()->Read(0, expect.size(), expect.data(), &n).ok());
  ASSERT_EQ(expect.size(), n);

  FileRecordSource source("in.str", /*chunk_bytes=*/4096, /*depth=*/2);
  ExpectConformance(env_.get(), &aio_, &source, expect,
                    /*total_known=*/true, /*chunk=*/1000);
}

TEST_F(RecordSourceTest, FileSourceEmptyFileIsImmediateEof) {
  ASSERT_TRUE(env_->WriteStringToFile("empty.dat", "").ok());
  FileRecordSource source("empty.dat");
  ExpectConformance(env_.get(), &aio_, &source, "", /*total_known=*/true,
                    /*chunk=*/64);
}

TEST_F(RecordSourceTest, FileSourceMissingFileFailsAtOpen) {
  FileRecordSource source("no-such-file.dat");
  EXPECT_TRUE(source.Open(env_.get(), &aio_).IsNotFound());
}

// --- MemoryRecordSource ------------------------------------------------

TEST_F(RecordSourceTest, MemorySourceBorrowedAndOwned) {
  const std::string expect = MakeBytes(5000);
  {
    MemoryRecordSource source(expect.data(), expect.size());
    ExpectConformance(env_.get(), &aio_, &source, expect,
                      /*total_known=*/true, /*chunk=*/333);
  }
  {
    std::string owned = expect;
    MemoryRecordSource source(std::move(owned));
    ExpectConformance(env_.get(), &aio_, &source, expect,
                      /*total_known=*/true, /*chunk=*/5000);
  }
}

TEST_F(RecordSourceTest, MemorySourceEmpty) {
  std::string empty;
  MemoryRecordSource source(std::move(empty));
  ExpectConformance(env_.get(), &aio_, &source, "", /*total_known=*/true,
                    /*chunk=*/8);
}

// --- MmapRecordSource --------------------------------------------------
// Needs a real filesystem; uses the test's tmpdir, not the MemEnv.

TEST_F(RecordSourceTest, MmapSourceMatchesFileBytes) {
  const std::string expect = MakeBytes(70000);
  const std::string path =
      ::testing::TempDir() + "record_source_mmap_test.dat";
  FILE* f = fopen(path.c_str(), "wb");
  ASSERT_NE(nullptr, f);
  ASSERT_EQ(expect.size(), fwrite(expect.data(), 1, expect.size(), f));
  fclose(f);

  MmapRecordSource source(path);
  ExpectConformance(env_.get(), &aio_, &source, expect,
                    /*total_known=*/true, /*chunk=*/4096);
  remove(path.c_str());
}

TEST_F(RecordSourceTest, MmapSourceMissingFileFailsAtOpen) {
  MmapRecordSource source("/nonexistent/dir/input.dat");
  EXPECT_TRUE(source.Open(env_.get(), &aio_).IsIOError());
}

// --- GeneratedRecordSource ---------------------------------------------

TEST_F(RecordSourceTest, GeneratedSourceMatchesGeneratorOutput) {
  RecordGenerator gen(kDatamationFormat, /*seed=*/42);
  const std::vector<char> ref =
      gen.Generate(KeyDistribution::kUniform, 321);
  const std::string expect(ref.data(), ref.size());

  GeneratedRecordSource source(kDatamationFormat, 321,
                               KeyDistribution::kUniform, /*seed=*/42);
  ExpectConformance(env_.get(), &aio_, &source, expect,
                    /*total_known=*/true, /*chunk=*/1024);
}

// --- StreamRecordSource ------------------------------------------------

TEST_F(RecordSourceTest, StreamSourceDeliversProducedBytesInOrder) {
  const std::string expect = MakeBytes(64 * 1024);
  StreamRecordSource source(/*capacity_bytes=*/4096);  // forces waits
  EXPECT_FALSE(source.TotalBytes(nullptr));

  std::thread producer([&] {
    size_t off = 0;
    while (off < expect.size()) {
      const size_t n = std::min<size_t>(1000, expect.size() - off);
      ASSERT_TRUE(source.Append(expect.data() + off, n));
      off += n;
    }
    source.CloseWrite();
  });

  ASSERT_TRUE(source.Open(env_.get(), &aio_).ok());
  std::string got;
  ASSERT_TRUE(Drain(&source, 777, &got).ok());
  producer.join();
  EXPECT_EQ(expect, got);
  EXPECT_TRUE(source.Close().ok());
}

TEST_F(RecordSourceTest, StreamSourceFailPoisonsReaders) {
  StreamRecordSource source;
  ASSERT_TRUE(source.Append("abcd", 4));
  source.Fail(Status::IOError("connection lost mid-upload"));

  char buf[16];
  size_t got = 0;
  Status s = source.Read(buf, sizeof(buf), &got);
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  // The producer side is dead too.
  EXPECT_FALSE(source.Append("more", 4));
  bool accepted = true;
  EXPECT_FALSE(source.TryAppend("more", 4, 0, &accepted).ok());
  EXPECT_FALSE(accepted);
}

TEST_F(RecordSourceTest, StreamSourceAppendAfterCloseWriteRejected) {
  StreamRecordSource source;
  ASSERT_TRUE(source.Append("abcd", 4));
  source.CloseWrite();
  EXPECT_FALSE(source.Append("more", 4));

  // Buffered bytes still drain, then clean EOF.
  char buf[16];
  size_t got = 0;
  ASSERT_TRUE(source.Read(buf, sizeof(buf), &got).ok());
  EXPECT_EQ(size_t{4}, got);
  ASSERT_TRUE(source.Read(buf, sizeof(buf), &got).ok());
  EXPECT_EQ(size_t{0}, got);
}

TEST_F(RecordSourceTest, StreamSourceConsumerCloseAbandonsProducer) {
  // The cancellation-mid-ingest shape: the pipeline gives up (Close)
  // while the producer is still uploading. The producer must fail fast,
  // not block against a reader that will never come back.
  StreamRecordSource source(/*capacity_bytes=*/64);
  ASSERT_TRUE(source.Append("0123456789", 10));
  ASSERT_TRUE(source.Close().ok());

  EXPECT_FALSE(source.Append("more", 4));
  bool accepted = true;
  Status s = source.TryAppend("more", 4, /*timeout_ms=*/0, &accepted);
  EXPECT_TRUE(s.IsAborted()) << s.ToString();
  EXPECT_FALSE(accepted);
  EXPECT_EQ(size_t{0}, source.buffered()) << "abandoned backlog is freed";
}

TEST_F(RecordSourceTest, StreamSourceTryAppendTimesOutWhenFull) {
  StreamRecordSource source(/*capacity_bytes=*/8);
  ASSERT_TRUE(source.Append("12345678", 8));  // fills the buffer
  bool accepted = true;
  Status s = source.TryAppend("9", 1, /*timeout_ms=*/10, &accepted);
  EXPECT_TRUE(s.ok()) << s.ToString();  // stream is healthy, just full
  EXPECT_FALSE(accepted);

  // Draining makes room; the retry lands.
  char buf[8];
  size_t got = 0;
  ASSERT_TRUE(source.Read(buf, sizeof(buf), &got).ok());
  ASSERT_TRUE(source.TryAppend("9", 1, /*timeout_ms=*/10, &accepted).ok());
  EXPECT_TRUE(accepted);
}

TEST_F(RecordSourceTest, StreamSourceTracksItsHighWaterMark) {
  StreamRecordSource source(/*capacity_bytes=*/8);
  EXPECT_EQ(size_t{0}, source.peak_buffered());
  ASSERT_TRUE(source.Append("12345", 5));
  char buf[8];
  size_t got = 0;
  ASSERT_TRUE(source.Read(buf, 5, &got).ok());
  EXPECT_EQ(size_t{0}, source.buffered());
  EXPECT_EQ(size_t{5}, source.peak_buffered()) << "the mark outlives reads";
  ASSERT_TRUE(source.Append("1234", 4));
  ASSERT_TRUE(source.Append("5678", 4));
  bool accepted = true;
  ASSERT_TRUE(source.TryAppend("9", 1, /*timeout_ms=*/0, &accepted).ok());
  EXPECT_FALSE(accepted);
  EXPECT_EQ(size_t{8}, source.peak_buffered()) << "capped by the capacity";
}

TEST_F(RecordSourceTest, StreamSourceOversizedChunkAccepted) {
  // One chunk larger than the whole buffer must be accepted when the
  // buffer is empty (rather than deadlocking producer against capacity).
  StreamRecordSource source(/*capacity_bytes=*/16);
  const std::string big = MakeBytes(1000);
  std::thread producer([&] {
    ASSERT_TRUE(source.Append(big.data(), big.size()));
    source.CloseWrite();
  });
  std::string got;
  ASSERT_TRUE(Drain(&source, 64, &got).ok());
  producer.join();
  EXPECT_EQ(big, got);
}

// --- ReadInto: the block read with progress -----------------------------

// Counts file reads started and finished, and holds each one a little
// so several are in flight when the reader gives up.
class CountingEnv : public Env {
 public:
  explicit CountingEnv(Env* base) : base_(base) {}

  std::atomic<int> started{0};
  std::atomic<int> finished{0};

  Result<std::unique_ptr<File>> OpenFile(const std::string& path,
                                         OpenMode mode) override;
  Status DeleteFile(const std::string& path) override {
    return base_->DeleteFile(path);
  }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  Result<uint64_t> GetFileSize(const std::string& path) override {
    return base_->GetFileSize(path);
  }

 private:
  Env* base_;
};

class CountingFile : public File {
 public:
  CountingFile(CountingEnv* env, std::unique_ptr<File> base)
      : env_(env), base_(std::move(base)) {}

  Status Read(uint64_t offset, size_t n, char* scratch,
              size_t* bytes_read) override {
    env_->started.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    Status s = base_->Read(offset, n, scratch, bytes_read);
    env_->finished.fetch_add(1);
    return s;
  }
  Status Write(uint64_t offset, const char* data, size_t n) override {
    return base_->Write(offset, data, n);
  }
  Result<uint64_t> Size() override { return base_->Size(); }
  Status Truncate(uint64_t size) override { return base_->Truncate(size); }
  Status Sync() override { return base_->Sync(); }
  Status Close() override { return base_->Close(); }

 private:
  CountingEnv* env_;
  std::unique_ptr<File> base_;
};

Result<std::unique_ptr<File>> CountingEnv::OpenFile(const std::string& path,
                                                    OpenMode mode) {
  Result<std::unique_ptr<File>> base = base_->OpenFile(path, mode);
  ALPHASORT_RETURN_IF_ERROR(base.status());
  return {std::unique_ptr<File>(
      new CountingFile(this, std::move(base).value()))};
}

constexpr size_t kChunk = 4096;
constexpr char kSentinel = '\x5a';

TEST_F(RecordSourceTest, FileReadIntoReportsAGrowingPrefixOfFileBytes) {
  const std::string expect = MakeBytes(10 * kChunk + 1234);
  ASSERT_TRUE(env_->WriteStringToFile("in.dat", expect).ok());
  FileRecordSource source("in.dat", kChunk, /*depth=*/3);
  ASSERT_TRUE(source.Open(env_.get(), &aio_).ok());

  std::vector<char> dst(expect.size() + kChunk, kSentinel);
  std::vector<size_t> reports;
  size_t got = 0;
  Status s = source.ReadInto(
      dst.data(), dst.size(), /*piece=*/1000,
      [&](size_t ready) {
        // Everything below `ready` has landed, and nothing past the file.
        EXPECT_EQ(0, memcmp(dst.data(), expect.data(), ready));
        reports.push_back(ready);
        return Status::OK();
      },
      &got);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(expect.size(), got);
  ASSERT_EQ(size_t{11}, reports.size()) << "one report per chunk";
  for (size_t i = 1; i < reports.size(); ++i) {
    EXPECT_LT(reports[i - 1], reports[i]);
  }
  EXPECT_EQ(expect.size(), reports.back());
  EXPECT_EQ(kSentinel, dst[expect.size()]) << "wrote past end of input";

  size_t again = 0;
  ASSERT_TRUE(source.Read(dst.data(), dst.size(), &again).ok());
  EXPECT_EQ(size_t{0}, again) << "reads past EOF must stay at EOF";
  EXPECT_TRUE(source.Close().ok());
}

TEST_F(RecordSourceTest, FileReadIntoStopsOnCallbackErrorAfterDraining) {
  const std::string expect = MakeBytes(12 * kChunk);
  ASSERT_TRUE(env_->WriteStringToFile("in.dat", expect).ok());
  CountingEnv counting(env_.get());
  AsyncIO aio(3);
  FileRecordSource source("in.dat", kChunk, /*depth=*/3);
  ASSERT_TRUE(source.Open(&counting, &aio).ok());

  std::vector<char> dst(expect.size(), kSentinel);
  int calls = 0;
  size_t got = 0;
  Status s = source.ReadInto(
      dst.data(), dst.size(), kChunk,
      [&](size_t) {
        ++calls;
        return Status::Aborted("stop at the first chunk");
      },
      &got);
  EXPECT_TRUE(s.IsAborted()) << s.ToString();
  EXPECT_EQ(1, calls);
  EXPECT_EQ(kChunk, got);
  // Every read that started has finished: nothing writes into dst now.
  EXPECT_EQ(counting.started.load(), counting.finished.load());
  EXPECT_LE(counting.started.load(), 3) << "no read submitted after the error";
  EXPECT_EQ(0, memcmp(dst.data(), expect.data(), kChunk));
  for (size_t i = 3 * kChunk; i < dst.size(); ++i) {
    ASSERT_EQ(kSentinel, dst[i]) << "byte " << i << " past the last chunk";
  }
  EXPECT_TRUE(source.Close().ok());
}

TEST_F(RecordSourceTest, FileReadIntoShortReadIsCorruption) {
  const std::string expect = MakeBytes(5 * kChunk);
  ASSERT_TRUE(env_->WriteStringToFile("in.dat", expect).ok());
  FaultInjectionEnv faulty(env_.get());
  FaultPlan plan;
  plan.defaults.short_read_prob = 1;
  faulty.SetPlan(plan);
  FileRecordSource source("in.dat", kChunk, /*depth=*/3);
  ASSERT_TRUE(source.Open(&faulty, &aio_).ok());

  std::vector<char> dst(expect.size());
  size_t got = 0;
  Status s = source.ReadInto(
      dst.data(), dst.size(), kChunk,
      [](size_t) { return Status::OK(); }, &got);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_NE(std::string::npos, s.ToString().find("short read at offset"))
      << s.ToString();
  EXPECT_GT(faulty.short_reads_injected(), 0u);
  EXPECT_TRUE(source.Close().ok());
}

TEST_F(RecordSourceTest, StreamReadIntoReportsOncePerPiece) {
  const std::string expect = MakeBytes(10000);
  StreamRecordSource source(/*capacity_bytes=*/4096);
  std::thread producer([&] {
    for (size_t off = 0; off < expect.size(); off += 1000) {
      ASSERT_TRUE(source.Append(expect.data() + off, 1000));
    }
    source.CloseWrite();
  });

  ASSERT_TRUE(source.Open(env_.get(), &aio_).ok());
  constexpr size_t kPiece = 777;
  std::vector<char> dst(16384, kSentinel);
  std::vector<size_t> reports;
  size_t got = 0;
  Status s = source.ReadInto(
      dst.data(), dst.size(), kPiece,
      [&](size_t ready) {
        reports.push_back(ready);
        return Status::OK();
      },
      &got);
  producer.join();
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_EQ(expect.size(), got) << "a short block means end of input";
  EXPECT_EQ(expect, std::string(dst.data(), got));
  ASSERT_EQ((expect.size() + kPiece - 1) / kPiece, reports.size());
  for (size_t i = 0; i + 1 < reports.size(); ++i) {
    EXPECT_EQ((i + 1) * kPiece, reports[i]);
  }
  EXPECT_EQ(expect.size(), reports.back());
  EXPECT_TRUE(source.Close().ok());
}

}  // namespace
}  // namespace alphasort
