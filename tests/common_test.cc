#include <algorithm>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#if defined(__linux__)
#include <sys/mman.h>
#endif

#include "common/bytes.h"
#include "common/checksum.h"
#include "common/huge_pages.h"
#include "common/random.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/table.h"

namespace alphasort {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, CarriesCodeAndMessage) {
  Status s = Status::IOError("disk on fire");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsIOError());
  EXPECT_FALSE(s.IsCorruption());
  EXPECT_EQ(s.message(), "disk on fire");
  EXPECT_EQ(s.ToString(), "IOError: disk on fire");
}

TEST(StatusTest, AllConstructorsProduceMatchingPredicates) {
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::NotSupported("x").IsNotSupported());
  EXPECT_TRUE(Status::ResourceExhausted("x").IsResourceExhausted());
  EXPECT_TRUE(Status::Aborted("x").IsAborted());
}

TEST(StatusTest, ReturnIfErrorMacroPropagates) {
  auto inner = []() -> Status { return Status::NotFound("gone"); };
  auto outer = [&]() -> Status {
    ALPHASORT_RETURN_IF_ERROR(inner());
    return Status::OK();
  };
  EXPECT_TRUE(outer().IsNotFound());
}

TEST(ResultTest, HoldsValueOrStatus) {
  Result<int> good(42);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 42);

  Result<int> bad(Status::InvalidArgument("nope"));
  EXPECT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsInvalidArgument());
}

TEST(SliceTest, BasicAccessors) {
  Slice s("hello");
  EXPECT_EQ(s.size(), 5u);
  EXPECT_EQ(s[1], 'e');
  EXPECT_FALSE(s.empty());
  s.remove_prefix(2);
  EXPECT_EQ(s.ToString(), "llo");
}

TEST(SliceTest, CompareMatchesLexicographicOrder) {
  EXPECT_LT(Slice("abc").compare(Slice("abd")), 0);
  EXPECT_GT(Slice("abd").compare(Slice("abc")), 0);
  EXPECT_EQ(Slice("abc").compare(Slice("abc")), 0);
  // Shorter string that is a prefix sorts first.
  EXPECT_LT(Slice("ab").compare(Slice("abc")), 0);
  EXPECT_TRUE(Slice("abc").starts_with(Slice("ab")));
  EXPECT_FALSE(Slice("abc").starts_with(Slice("b")));
}

TEST(SliceTest, EqualityAndLessOperators) {
  EXPECT_TRUE(Slice("x") == Slice("x"));
  EXPECT_TRUE(Slice("x") != Slice("y"));
  EXPECT_TRUE(Slice("x") < Slice("y"));
}

TEST(RandomTest, DeterministicForSeed) {
  Random a(7);
  Random b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next64(), b.Next64());
}

TEST(RandomTest, DifferentSeedsDiverge) {
  Random a(1);
  Random b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next64() == b.Next64());
  EXPECT_LT(same, 2);
}

TEST(RandomTest, UniformStaysInRange) {
  Random r(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.Uniform(17), 17u);
    const double d = r.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, ZeroSeedStillGenerates) {
  Random r(0);
  EXPECT_NE(r.Next64() | r.Next64(), 0u);
}

// Property: integer order of LoadKeyPrefix equals lexicographic byte order
// of the key bytes — the correctness condition for key-prefix sorting.
TEST(BytesTest, PrefixOrderMatchesByteOrderProperty) {
  Random r(11);
  for (int trial = 0; trial < 2000; ++trial) {
    unsigned char a[10], b[10];
    for (auto& c : a) c = static_cast<unsigned char>(r.Uniform(4));  // ties
    for (auto& c : b) c = static_cast<unsigned char>(r.Uniform(4));
    const uint64_t pa = LoadKeyPrefix(a, 8);
    const uint64_t pb = LoadKeyPrefix(b, 8);
    const int byte_order = memcmp(a, b, 8);
    if (byte_order < 0) {
      EXPECT_LT(pa, pb);
    } else if (byte_order > 0) {
      EXPECT_GT(pa, pb);
    } else {
      EXPECT_EQ(pa, pb);
    }
  }
}

TEST(BytesTest, LoadKeyPrefix8MatchesGenericLoader) {
  Random r(13);
  for (int trial = 0; trial < 1000; ++trial) {
    char key[8];
    for (auto& c : key) c = static_cast<char>(r.Next32() & 0xff);
    EXPECT_EQ(LoadKeyPrefix(key, 8), LoadKeyPrefix8(key));
  }
}

TEST(BytesTest, ShortKeysZeroPad) {
  const char k3[] = {'a', 'b', 'c'};
  const char k4[] = {'a', 'b', 'c', '\0'};
  // "abc" (len 3) == "abc\0" (len 4) after zero padding: prefix can't
  // distinguish them, which matches byte order for NUL-padded keys.
  EXPECT_EQ(LoadKeyPrefix(k3, 3), LoadKeyPrefix(k4, 4));
  const char k1[] = {'a', 'b', 'd'};
  EXPECT_LT(LoadKeyPrefix(k3, 3), LoadKeyPrefix(k1, 3));
}

TEST(BytesTest, FixedEncodingRoundTrips) {
  char buf[8];
  EncodeFixed32(buf, 0xdeadbeefu);
  EXPECT_EQ(DecodeFixed32(buf), 0xdeadbeefu);
  EncodeFixed64(buf, 0x0123456789abcdefULL);
  EXPECT_EQ(DecodeFixed64(buf), 0x0123456789abcdefULL);
}

TEST(ChecksumTest, Crc32cKnownVector) {
  // Standard CRC-32C test vector: "123456789" -> 0xe3069283.
  EXPECT_EQ(Crc32c("123456789", 9), 0xe3069283u);
}

TEST(ChecksumTest, Crc32cDetectsCorruption) {
  std::string data(1024, 'x');
  const uint32_t before = Crc32c(data.data(), data.size());
  data[512] ^= 1;
  EXPECT_NE(before, Crc32c(data.data(), data.size()));
}

TEST(ChecksumTest, Crc32cCombineMatchesDirectComputation) {
  // Combine(CRC(a), CRC(b), |b|) must equal CRC(a||b) for every split of
  // the stream, including empty halves — the property the partitioned
  // merge relies on to checksum output ranges independently.
  std::string data(3000, '\0');
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<char>(i * 131 + 7);
  }
  const uint32_t whole = Crc32c(data.data(), data.size());
  for (const size_t split : {size_t{0}, size_t{1}, size_t{255}, size_t{256},
                             size_t{1024}, size_t{2999}, data.size()}) {
    const uint32_t a = Crc32c(data.data(), split);
    const uint32_t b = Crc32c(data.data() + split, data.size() - split);
    EXPECT_EQ(Crc32cCombine(a, b, data.size() - split), whole)
        << "split at " << split;
  }
}

TEST(ChecksumTest, Crc32cCombineFoldsManyRanges) {
  // Fold a multi-range split left to right, like the partitioned merge
  // folds per-range CRCs in key order.
  std::string data(4096, '\0');
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<char>(i ^ (i >> 3));
  }
  const size_t cuts[] = {0, 700, 701, 2048, 4096};
  uint32_t folded = 0;
  for (size_t r = 0; r + 1 < sizeof(cuts) / sizeof(cuts[0]); ++r) {
    const size_t len = cuts[r + 1] - cuts[r];
    folded = Crc32cCombine(folded, Crc32c(data.data() + cuts[r], len), len);
  }
  EXPECT_EQ(folded, Crc32c(data.data(), data.size()));
}

TEST(FingerprintTest, OrderIndependent) {
  MultisetFingerprint a, b;
  a.Add("one", 3);
  a.Add("two", 3);
  a.Add("three", 5);
  b.Add("three", 5);
  b.Add("one", 3);
  b.Add("two", 3);
  EXPECT_TRUE(a == b);
  EXPECT_EQ(a.count(), 3u);
}

TEST(FingerprintTest, DetectsSubstitution) {
  MultisetFingerprint a, b;
  a.Add("one", 3);
  a.Add("two", 3);
  b.Add("one", 3);
  b.Add("twx", 3);
  EXPECT_FALSE(a == b);
}

TEST(FingerprintTest, DetectsDuplicateSwap) {
  // {x, x, y} vs {x, y, y} must differ even though XOR alone would agree.
  MultisetFingerprint a, b;
  a.Add("x", 1);
  a.Add("x", 1);
  a.Add("y", 1);
  b.Add("x", 1);
  b.Add("y", 1);
  b.Add("y", 1);
  EXPECT_FALSE(a == b);
}

TEST(FingerprintTest, MergeEqualsSequentialAdds) {
  MultisetFingerprint whole, part1, part2;
  whole.Add("a", 1);
  whole.Add("b", 1);
  whole.Add("c", 1);
  part1.Add("b", 1);
  part2.Add("a", 1);
  part2.Add("c", 1);
  part1.Merge(part2);
  EXPECT_TRUE(whole == part1);
}

TEST(TextTableTest, AlignsColumns) {
  TextTable t({"name", "n"});
  t.AddRow({"a", "100"});
  t.AddRow({"longer", "1"});
  const std::string s = t.ToString();
  EXPECT_NE(s.find("name   | n"), std::string::npos);
  EXPECT_NE(s.find("-------+----"), std::string::npos) << s;
  EXPECT_NE(s.find("longer | 1"), std::string::npos);
}

TEST(TextTableTest, StrFormatFormats) {
  EXPECT_EQ(StrFormat("%d-%s-%.2f", 7, "x", 1.5), "7-x-1.50");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

// Huge-page advice covers exactly the whole 2 MiB pages inside a block.
const void* At(uintptr_t addr) { return reinterpret_cast<const void*>(addr); }
constexpr uintptr_t kMiB = uintptr_t{1} << 20;
constexpr uintptr_t kBase = uintptr_t{1} << 30;  // 2 MiB-aligned

TEST(HugePagesTest, BlockUnderTwoMiBHasNoInterior) {
  EXPECT_EQ(HugePageInterior(At(kBase), 2 * kMiB - 1).bytes(), 0u);
  EXPECT_EQ(HugePageInterior(At(kBase + 4096), kMiB).bytes(), 0u);
  EXPECT_EQ(HugePageInterior(At(kBase), 0).bytes(), 0u);
  // Two MiB that straddle a boundary still cover no whole huge page.
  EXPECT_EQ(HugePageInterior(At(kBase + kMiB), 2 * kMiB).bytes(), 0u);
  std::vector<char> small(kMiB);
  EXPECT_EQ(AdviseHugePages(small.data(), small.size()), 0u);
}

TEST(HugePagesTest, UnalignedEndsAreTrimmedToWholePages) {
  const AddressRange r = HugePageInterior(At(kBase + 4096), 10 * kMiB);
  EXPECT_EQ(r.begin, kBase + 2 * kMiB);
  EXPECT_EQ(r.end, kBase + 10 * kMiB);
  EXPECT_EQ(r.bytes(), 8 * kMiB);
  // Unaligned start, aligned end; aligned start, unaligned end.
  EXPECT_EQ(HugePageInterior(At(kBase + 100), 6 * kMiB - 100).bytes(),
            4 * kMiB);
  EXPECT_EQ(HugePageInterior(At(kBase), 6 * kMiB + 100).bytes(), 6 * kMiB);
}

TEST(HugePagesTest, ExactMultiplesAreCoveredWhole) {
  for (uintptr_t pages : {1, 2, 3, 100}) {
    const AddressRange r = HugePageInterior(At(kBase), pages * 2 * kMiB);
    EXPECT_EQ(r.begin, kBase);
    EXPECT_EQ(r.end, kBase + pages * 2 * kMiB);
  }
}

TEST(HugePagesTest, AdviceOnAHeapBlockIsTheInteriorOrNothing) {
  std::vector<char> block(9 * kMiB);
  const size_t advised = AdviseHugePages(block.data(), block.size());
  const size_t interior = HugePageInterior(block.data(), block.size()).bytes();
  EXPECT_GE(interior, 6 * kMiB);
  // Nothing when the kernel refuses (no THP support); never a partial
  // range.
  EXPECT_TRUE(advised == 0 || advised == interior) << advised;
}

#if defined(__linux__)
// madvise on a range with nothing mapped fails with ENOMEM; the helper
// reports nothing advised instead of an error.
TEST(HugePagesTest, RefusedAdviceIsTolerated) {
  const size_t len = 8 * kMiB;
  void* p = mmap(nullptr, len, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(p, MAP_FAILED);
  ASSERT_EQ(munmap(p, len), 0);
  EXPECT_EQ(AdviseHugePages(p, len), 0u);
}
// Every other 2 MiB page touched: more separate huge stretches than one
// PAGEMAP_SCAN call returns, so the scan must resume where it stopped.
// The whole-range count must equal the sum of per-page counts.
TEST(HugePagesTest, GrantedBytesSurviveAFragmentedScan) {
  constexpr size_t kPages = 80;
  const size_t len = (kPages + 1) * kHugePageBytes;
  void* map = mmap(nullptr, len, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(map, MAP_FAILED);
  char* base = reinterpret_cast<char*>(
      HugePageInterior(map, len).begin);
  AdviseHugePages(base, kPages * kHugePageBytes);
  for (size_t page = 0; page < kPages; page += 2) {
    memset(base + page * kHugePageBytes, 1, kHugePageBytes);
  }
  const std::optional<uint64_t> whole =
      HugePageBytes(base, kPages * kHugePageBytes);
  if (whole) {
    uint64_t sum = 0;
    for (size_t page = 0; page < kPages; ++page) {
      const std::optional<uint64_t> one =
          HugePageBytes(base + page * kHugePageBytes, kHugePageBytes);
      ASSERT_TRUE(one.has_value());
      if (page % 2 == 1) {
        EXPECT_EQ(*one, 0u) << "untouched page " << page;
      }
      sum += *one;
    }
    EXPECT_EQ(*whole, sum);
  }
  ASSERT_EQ(munmap(map, len), 0);
}
#endif

TEST(HugePagesTest, GrantedBytesAreKnownOrUnknownNeverGuessed) {
  const std::optional<uint64_t> empty = HugePageBytes(nullptr, 0);
  ASSERT_TRUE(empty.has_value());
  EXPECT_EQ(*empty, 0u);
  // Whatever backs the block, the count is clipped to its pages.
  std::vector<char> block(4 * kMiB, 1);
  const std::optional<uint64_t> huge =
      HugePageBytes(block.data(), block.size());
  if (huge) {
    EXPECT_LE(*huge, block.size() + 4096);
  }
}

}  // namespace
}  // namespace alphasort
