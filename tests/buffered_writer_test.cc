#include <string>

#include <gtest/gtest.h>

#include "common/checksum.h"
#include "common/random.h"
#include "io/buffered_writer.h"
#include "io/fault_env.h"

namespace alphasort {
namespace {

TEST(BufferedWriterTest, WritesExactBytes) {
  auto env = NewMemEnv();
  auto file = env->OpenFile("f", OpenMode::kCreateReadWrite);
  ASSERT_TRUE(file.ok());
  AsyncIO aio(2);
  BufferedWriter writer(file.value().get(), &aio, 64);

  Random rng(1);
  std::string expected;
  for (int i = 0; i < 100; ++i) {
    std::string chunk(1 + rng.Uniform(150), 0);  // crosses buffers often
    for (auto& c : chunk) c = static_cast<char>(rng.Next32() & 0xff);
    ASSERT_TRUE(writer.Append(chunk.data(), chunk.size()).ok());
    expected += chunk;
  }
  ASSERT_TRUE(writer.Finish().ok());
  EXPECT_EQ(writer.bytes_written(), expected.size());
  EXPECT_EQ(env->ReadFileToString("f").value(), expected);
  EXPECT_EQ(writer.crc32c(), Crc32c(expected.data(), expected.size()));
}

TEST(BufferedWriterTest, EmptyFinishWritesNothing) {
  auto env = NewMemEnv();
  auto file = env->OpenFile("f", OpenMode::kCreateReadWrite);
  ASSERT_TRUE(file.ok());
  AsyncIO aio(1);
  BufferedWriter writer(file.value().get(), &aio, 1024);
  ASSERT_TRUE(writer.Finish().ok());
  EXPECT_EQ(writer.bytes_written(), 0u);
  EXPECT_EQ(env->GetFileSize("f").value(), 0u);
}

TEST(BufferedWriterTest, FinishIsIdempotent) {
  auto env = NewMemEnv();
  auto file = env->OpenFile("f", OpenMode::kCreateReadWrite);
  ASSERT_TRUE(file.ok());
  AsyncIO aio(1);
  BufferedWriter writer(file.value().get(), &aio, 16);
  ASSERT_TRUE(writer.Append("hello", 5).ok());
  ASSERT_TRUE(writer.Finish().ok());
  ASSERT_TRUE(writer.Finish().ok());
  EXPECT_EQ(env->ReadFileToString("f").value(), "hello");
}

TEST(BufferedWriterTest, SingleAppendLargerThanBuffer) {
  auto env = NewMemEnv();
  auto file = env->OpenFile("f", OpenMode::kCreateReadWrite);
  ASSERT_TRUE(file.ok());
  AsyncIO aio(2);
  BufferedWriter writer(file.value().get(), &aio, 8);
  const std::string big(1000, 'x');
  ASSERT_TRUE(writer.Append(big.data(), big.size()).ok());
  ASSERT_TRUE(writer.Finish().ok());
  EXPECT_EQ(env->ReadFileToString("f").value(), big);
}

TEST(BufferedWriterTest, SurfacesWriteErrors) {
  auto mem = NewMemEnv();
  FaultInjectionEnv fenv(mem.get());
  auto file = fenv.OpenFile("f", OpenMode::kCreateReadWrite);
  ASSERT_TRUE(file.ok());
  AsyncIO aio(1);
  BufferedWriter writer(file.value().get(), &aio, 8);
  fenv.FailAfter(1);
  // The failure surfaces on a later Append (when the buffer recycles) or
  // at Finish.
  Status s = Status::OK();
  for (int i = 0; i < 10 && s.ok(); ++i) {
    s = writer.Append("0123456789abcdef", 16);
  }
  if (s.ok()) s = writer.Finish();
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
}

}  // namespace
}  // namespace alphasort
