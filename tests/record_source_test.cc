// Conformance suite for every RecordSource implementation: the contract
// in core/record_source.h, exercised the way the pipeline exercises it —
// Open once, strictly sequential Reads of arbitrary sizes, Close once.
// File-backed sources must be byte-identical to reading the file
// directly; the stream source additionally covers its producer side
// (backpressure, mid-stream failure, consumer abandonment).

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

}  // namespace
}  // namespace alphasort
