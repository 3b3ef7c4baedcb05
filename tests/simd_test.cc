#include "common/simd.h"

#include <array>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/checksum.h"
#include "common/random.h"
#include "record/generator.h"
#include "record/record.h"
#include "sort/compact_entry.h"
#include "sort/quicksort.h"
#include "tests/test_util.h"

// simd-vs-scalar parity: every kernel that consults simd::VectorActive()
// must produce bit-identical results with the vector path on and off, over
// random and adversarial corpora, unaligned record bases, and tails
// shorter than the vector width. On a forced-scalar build
// (ALPHASORT_SIMD_FORCE_SCALAR) both sides run the scalar code and the
// suite degenerates to self-consistency — which is exactly what CI's
// tier-1 scalar configuration is for.

namespace alphasort {
namespace {

TEST(SimdShimTest, BackendReportIsConsistent) {
#if defined(ALPHASORT_SIMD_VECTOR)
  EXPECT_TRUE(simd::kVectorCompiled);
  EXPECT_STRNE(simd::kBackendName, "scalar");
#else
  EXPECT_FALSE(simd::kVectorCompiled);
  EXPECT_STREQ(simd::kBackendName, "scalar");
#endif
}

TEST(SimdShimTest, ForceScalarFlagControlsVectorActive) {
  EXPECT_EQ(simd::VectorActive(), simd::kVectorCompiled);
  {
    simd::ScopedForceScalar force;
    EXPECT_FALSE(simd::VectorActive());
    {
      simd::ScopedForceScalar unforce(false);
      EXPECT_EQ(simd::VectorActive(), simd::kVectorCompiled);
    }
    EXPECT_FALSE(simd::VectorActive());
  }
  EXPECT_EQ(simd::VectorActive(), simd::kVectorCompiled);
}

#if defined(ALPHASORT_SIMD_VECTOR)
// Direct checks of the compare-mask helpers against scalar arithmetic,
// including the sign-bias boundary values the SSE path must get right.
TEST(SimdShimTest, U32MasksMatchScalarCompares) {
  Random rng(7);
  const uint32_t edge[] = {0u, 1u, 0x7fffffffu, 0x80000000u, 0x80000001u,
                           0xffffffffu};
  for (int iter = 0; iter < 2000; ++iter) {
    uint32_t a[4], b[4];
    for (int l = 0; l < 4; ++l) {
      a[l] = rng.OneIn(3) ? edge[rng.Uniform(6)] : rng.Next32();
      b[l] = rng.OneIn(3) ? (rng.OneIn(2) ? a[l] : edge[rng.Uniform(6)])
                          : rng.Next32();
    }
    const simd::V128 va = simd::SetU32(a[0], a[1], a[2], a[3]);
    const simd::V128 vb = simd::SetU32(b[0], b[1], b[2], b[3]);
    unsigned want_lt = 0, want_gt = 0;
    for (int l = 0; l < 4; ++l) {
      if (a[l] < b[l]) want_lt |= 1u << l;
      if (a[l] > b[l]) want_gt |= 1u << l;
    }
    EXPECT_EQ(simd::LessU32Mask(va, vb), want_lt);
    EXPECT_EQ(simd::GreaterU32Mask(va, vb), want_gt);
  }
}

TEST(SimdShimTest, Bswap32x4MatchesScalar) {
  Random rng(11);
  for (int iter = 0; iter < 500; ++iter) {
    uint32_t in[4], out[4];
    for (auto& v : in) v = rng.Next32();
    simd::StoreU128(out, simd::Bswap32x4(
                             simd::SetU32(in[0], in[1], in[2], in[3])));
    for (int l = 0; l < 4; ++l) {
      EXPECT_EQ(out[l], __builtin_bswap32(in[l]));
    }
  }
}
#endif  // ALPHASORT_SIMD_VECTOR

#if defined(ALPHASORT_SIMD_CMP64)
TEST(SimdShimTest, U64MasksMatchScalarCompares) {
  Random rng(13);
  const uint64_t edge[] = {0ull, 1ull, 0x7fffffffffffffffull,
                           0x8000000000000000ull, 0xffffffffffffffffull};
  for (int iter = 0; iter < 2000; ++iter) {
    uint64_t a[2], b[2];
    for (int l = 0; l < 2; ++l) {
      a[l] = rng.OneIn(3) ? edge[rng.Uniform(5)] : rng.Next64();
      b[l] = rng.OneIn(3) ? (rng.OneIn(2) ? a[l] : edge[rng.Uniform(5)])
                          : rng.Next64();
    }
    const simd::V128 va = simd::SetU64(a[0], a[1]);
    const simd::V128 vb = simd::SetU64(b[0], b[1]);
    unsigned want_lt = 0, want_gt = 0;
    for (int l = 0; l < 2; ++l) {
      if (a[l] < b[l]) want_lt |= 1u << l;
      if (a[l] > b[l]) want_gt |= 1u << l;
    }
    EXPECT_EQ(simd::LessU64Mask(va, vb), want_lt);
    EXPECT_EQ(simd::GreaterU64Mask(va, vb), want_gt);
  }
}

TEST(SimdShimTest, Bswap64x2MatchesScalar) {
  Random rng(17);
  for (int iter = 0; iter < 500; ++iter) {
    uint64_t in[2], out[2];
    for (auto& v : in) v = rng.Next64();
    simd::StoreU128(out, simd::Bswap64x2(simd::SetU64(in[0], in[1])));
    EXPECT_EQ(out[0], __builtin_bswap64(in[0]));
    EXPECT_EQ(out[1], __builtin_bswap64(in[1]));
  }
}
#endif  // ALPHASORT_SIMD_CMP64

// ---------------------------------------------------------------------------
// Kernel parity fuzz.
// ---------------------------------------------------------------------------

// Generates `n` records at an intentionally misaligned base address.
struct MisalignedBlock {
  std::vector<char> storage;
  char* records = nullptr;

  MisalignedBlock(const RecordFormat& fmt, KeyDistribution dist, uint64_t n,
                  size_t misalign, uint64_t seed)
      : storage(n * fmt.record_size + misalign + 16) {
    records = storage.data() + misalign;
    RecordGenerator gen(fmt, seed);
    gen.Generate(dist, n, records);
  }
};

// Tail sizes below/straddling the 2-entry (prefix) and 4-entry (compact)
// vector widths, plus sizes that leave every possible remainder.
const size_t kParitySizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 15, 64, 129, 1000};

TEST(SimdParityTest, BuildPrefixEntryArrayMatchesScalar) {
  const RecordFormat fmt = kDatamationFormat;
  uint64_t seed = 100;
  for (KeyDistribution dist : test::AllDistributions()) {
    for (size_t n : kParitySizes) {
      for (size_t misalign : {size_t{0}, size_t{1}, size_t{7}}) {
        MisalignedBlock block(fmt, dist, n, misalign, ++seed);
        std::vector<PrefixEntry> vec(n + 1), sca(n + 1);
        for (size_t prefetch : {size_t{0}, size_t{8}}) {
          BuildPrefixEntryArray(fmt, block.records, n, vec.data(), prefetch);
          {
            simd::ScopedForceScalar force;
            BuildPrefixEntryArray(fmt, block.records, n, sca.data(),
                                  prefetch);
          }
          ASSERT_EQ(memcmp(vec.data(), sca.data(), n * sizeof(PrefixEntry)),
                    0)
              << test::DistributionName(dist) << " n=" << n
              << " misalign=" << misalign;
        }
      }
    }
  }
}

TEST(SimdParityTest, BuildCompactEntryArrayMatchesScalar) {
  const RecordFormat fmt = kDatamationFormat;
  uint64_t seed = 200;
  for (KeyDistribution dist : test::AllDistributions()) {
    for (size_t n : kParitySizes) {
      for (size_t misalign : {size_t{0}, size_t{3}}) {
        MisalignedBlock block(fmt, dist, n, misalign, ++seed);
        std::vector<CompactEntry> vec(n + 1), sca(n + 1);
        BuildCompactEntryArray(fmt, block.records, n, vec.data());
        {
          simd::ScopedForceScalar force;
          BuildCompactEntryArray(fmt, block.records, n, sca.data());
        }
        ASSERT_EQ(memcmp(vec.data(), sca.data(), n * sizeof(CompactEntry)),
                  0)
            << test::DistributionName(dist) << " n=" << n
            << " misalign=" << misalign;
      }
    }
  }
}

// Short keys must take the scalar packing on both paths (the vector build
// requires >= 8 / >= 4 key bytes).
TEST(SimdParityTest, ShortKeysBuildIdentically) {
  for (size_t key_size : {size_t{1}, size_t{3}, size_t{4}, size_t{7}}) {
    const RecordFormat fmt{32, 0, key_size};
    MisalignedBlock block(fmt, KeyDistribution::kUniform, 500, 1, 7 + key_size);
    std::vector<PrefixEntry> pv(500), ps(500);
    std::vector<CompactEntry> cv(500), cs(500);
    BuildPrefixEntryArray(fmt, block.records, 500, pv.data());
    BuildCompactEntryArray(fmt, block.records, 500, cv.data());
    {
      simd::ScopedForceScalar force;
      BuildPrefixEntryArray(fmt, block.records, 500, ps.data());
      BuildCompactEntryArray(fmt, block.records, 500, cs.data());
    }
    EXPECT_EQ(memcmp(pv.data(), ps.data(), 500 * sizeof(PrefixEntry)), 0);
    EXPECT_EQ(memcmp(cv.data(), cs.data(), 500 * sizeof(CompactEntry)), 0);
  }
}

// The vectorized Hoare scans must leave the sort's output bit-identical:
// the comparator is a strict total order (full key, then record
// position), so vector and scalar runs must agree exactly, swap-for-swap
// outcomes included.
TEST(SimdParityTest, PrefixSortMatchesScalarSort) {
  const RecordFormat fmt = kDatamationFormat;
  uint64_t seed = 300;
  for (KeyDistribution dist : test::AllDistributions()) {
    for (size_t n : {size_t{17}, size_t{1000}, size_t{20000}}) {
      MisalignedBlock block(fmt, dist, n, 0, ++seed);
      std::vector<PrefixEntry> vec(n), sca(n);
      BuildPrefixEntryArray(fmt, block.records, n, vec.data());
      sca = vec;
      SortStats vstats, sstats;
      SortPrefixEntryArray(fmt, vec.data(), n, &vstats);
      {
        simd::ScopedForceScalar force;
        SortPrefixEntryArray(fmt, sca.data(), n, &sstats);
      }
      ASSERT_EQ(memcmp(vec.data(), sca.data(), n * sizeof(PrefixEntry)), 0)
          << test::DistributionName(dist) << " n=" << n;
      // Both runs resolve the same ties (the vector scan only skips
      // strictly-decided lanes).
      EXPECT_EQ(vstats.tie_breaks, sstats.tie_breaks);
      EXPECT_EQ(vstats.exchanges, sstats.exchanges);
    }
  }
}

TEST(SimdParityTest, CompactSortMatchesScalarSort) {
  const RecordFormat fmt = kDatamationFormat;
  uint64_t seed = 400;
  for (KeyDistribution dist : test::AllDistributions()) {
    for (size_t n : {size_t{17}, size_t{1000}, size_t{20000}}) {
      MisalignedBlock block(fmt, dist, n, 0, ++seed);
      std::vector<CompactEntry> vec(n), sca(n);
      BuildCompactEntryArray(fmt, block.records, n, vec.data());
      sca = vec;
      SortCompactEntryArray(fmt, block.records, vec.data(), n);
      {
        simd::ScopedForceScalar force;
        SortCompactEntryArray(fmt, block.records, sca.data(), n);
      }
      ASSERT_EQ(memcmp(vec.data(), sca.data(), n * sizeof(CompactEntry)), 0)
          << test::DistributionName(dist) << " n=" << n;
    }
  }
}

// The byte-skip tie-break must still order by the full key: with the
// shared-prefix corpus every compare ties on the prefix, so the sorted
// order is decided entirely by the resumed-at-byte-8 compares.
TEST(SimdParityTest, TieBreaksSkipPrefixDecidedBytesAndStillSort) {
  const RecordFormat fmt = kDatamationFormat;
  MisalignedBlock block(fmt, KeyDistribution::kSharedPrefix, 5000, 0, 55);
  std::vector<PrefixEntry> entries(5000);
  BuildPrefixEntryArray(fmt, block.records, 5000, entries.data());
  SortStats stats;
  SortPrefixEntryArray(fmt, entries.data(), 5000, &stats);
  for (size_t i = 1; i < entries.size(); ++i) {
    ASSERT_LE(fmt.CompareKeys(entries[i - 1].record, entries[i].record), 0);
  }
  EXPECT_GT(stats.tie_breaks, 0u);
  EXPECT_EQ(stats.tie_break_bytes_skipped, stats.tie_breaks * 8);
}

// --- Crc32c: the CRC-32C instruction against the slice-by-8 fallback
// (the kill switch) and a byte-at-a-time table written out here, so a
// bug shared by both library paths cannot hide.

uint32_t ReferenceCrc32c(const unsigned char* p, size_t n, uint32_t seed) {
  static const std::array<uint32_t, 256> kTable = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0x82f63b78u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  uint32_t c = ~seed;
  for (size_t i = 0; i < n; ++i) c = kTable[(c ^ p[i]) & 0xff] ^ (c >> 8);
  return ~c;
}

uint32_t ScalarCrc32c(const void* p, size_t n, uint32_t seed = 0) {
  simd::ScopedForceScalar force;
  return Crc32c(p, n, seed);
}

std::vector<unsigned char> RandomBytes(size_t n, uint64_t seed) {
  Random rng(seed);
  std::vector<unsigned char> bytes(n);
  for (auto& b : bytes) b = static_cast<unsigned char>(rng.Next64());
  return bytes;
}

TEST(Crc32cParityTest, HardwareGateMatchesBuild) {
#if defined(__x86_64__) && defined(__SSE4_2__) && \
    !defined(ALPHASORT_SIMD_FORCE_SCALAR)
  EXPECT_TRUE(simd::kHasCrc32c);
#endif
#if defined(ALPHASORT_SIMD_FORCE_SCALAR)
  EXPECT_FALSE(simd::kHasCrc32c);
#endif
}

// Every length 0..4096 at every misalignment 0..15, cycling the seed
// through zero, all-ones and arbitrary values (a seed continues a
// previous CRC, so non-zero seeds are the chained-call case).
TEST(Crc32cParityTest, MatchesReferenceOnEveryLengthAndAlignment) {
  const std::vector<unsigned char> bytes = RandomBytes(4096 + 16, 7);
  const uint32_t kSeeds[] = {0, 0xffffffffu, 0x9e3779b9u, 0x00000001u,
                             0xdeadbeefu};
  size_t case_no = 0;
  for (size_t len = 0; len <= 4096; ++len) {
    for (size_t misalign = 0; misalign < 16; ++misalign, ++case_no) {
      const uint32_t seed = kSeeds[case_no % 5];
      const unsigned char* p = bytes.data() + misalign;
      const uint32_t want = ReferenceCrc32c(p, len, seed);
      const uint32_t hw = Crc32c(p, len, seed);
      const uint32_t sw = ScalarCrc32c(p, len, seed);
      if (hw != want || sw != want) {
        FAIL() << "len=" << len << " misalign=" << misalign << " seed="
               << seed << ": reference " << want << ", default " << hw
               << ", scalar " << sw;
      }
    }
  }
}

// Crc32c(b, Crc32c(a)) == Crc32c(a||b) on each path, and across paths:
// both keep the same register, so a stream may switch mid-way.
TEST(Crc32cParityTest, ChainedCallsMatchOneCall) {
  const std::vector<unsigned char> bytes = RandomBytes(10007, 11);
  const uint32_t whole = ReferenceCrc32c(bytes.data(), bytes.size(), 0);
  for (const size_t split : {size_t{0}, size_t{1}, size_t{7}, size_t{8},
                             size_t{9}, size_t{4096}, size_t{5003},
                             size_t{10006}, size_t{10007}}) {
    const unsigned char* a = bytes.data();
    const unsigned char* b = bytes.data() + split;
    const size_t len_b = bytes.size() - split;
    EXPECT_EQ(whole, Crc32c(b, len_b, Crc32c(a, split))) << split;
    EXPECT_EQ(whole, ScalarCrc32c(b, len_b, ScalarCrc32c(a, split)))
        << split;
    EXPECT_EQ(whole, ScalarCrc32c(b, len_b, Crc32c(a, split))) << split;
    EXPECT_EQ(whole, Crc32c(b, len_b, ScalarCrc32c(a, split))) << split;
  }
}

// Crc32cCombine's laws hold whichever path produced the inputs.
TEST(Crc32cParityTest, CombineLawsHoldOnBothPaths) {
  const std::vector<unsigned char> bytes = RandomBytes(3 * 4099, 13);
  for (const bool force : {false, true}) {
    simd::ScopedForceScalar scope(force);
    const unsigned char* p = bytes.data();
    const uint32_t a = Crc32c(p, 4099);
    const uint32_t b = Crc32c(p + 4099, 4099);
    const uint32_t c = Crc32c(p + 2 * 4099, 4099);
    // Concatenation.
    EXPECT_EQ(Crc32cCombine(a, b, 4099), Crc32c(p, 2 * 4099)) << force;
    // Associativity.
    EXPECT_EQ(Crc32cCombine(Crc32cCombine(a, b, 4099), c, 4099),
              Crc32cCombine(a, Crc32cCombine(b, c, 4099), 2 * 4099))
        << force;
    EXPECT_EQ(Crc32cCombine(Crc32cCombine(a, b, 4099), c, 4099),
              ReferenceCrc32c(p, bytes.size(), 0))
        << force;
    // The empty string is the identity on both sides.
    EXPECT_EQ(Crc32c(p, 0), 0u) << force;
    EXPECT_EQ(Crc32cCombine(a, Crc32c(p, 0), 0), a) << force;
    EXPECT_EQ(Crc32cCombine(0, a, 4099), a) << force;
  }
}

// The instruction path folds three chains over 8 KiB lanes while 24 KiB
// remain, then over 256 B lanes while 768 B remain. Lengths on either
// side of each block size (and of several long blocks), at every
// misalignment and seed, and chained calls split inside a long-lane and
// inside a short-lane block, all match the byte-at-a-time reference.
TEST(Crc32cParityTest, MatchesReferenceAcrossLaneBlocks) {
  constexpr size_t kMiB = size_t{1} << 20;
  const std::vector<unsigned char> bytes = RandomBytes(3 * kMiB + 5 + 16, 17);
  const uint32_t kSeeds[] = {0, 0xffffffffu, 0x9e3779b9u, 0x00000001u,
                             0xdeadbeefu};
  size_t case_no = 0;
  for (const size_t len :
       {size_t{767}, size_t{768}, size_t{769}, size_t{24575}, size_t{24576},
        size_t{24577}, 3 * size_t{24576} - 1, 3 * size_t{24576} + 1,
        kMiB + 7, 3 * kMiB + 5}) {
    for (size_t misalign = 0; misalign < 16; ++misalign, ++case_no) {
      const uint32_t seed = kSeeds[case_no % 5];
      const unsigned char* p = bytes.data() + misalign;
      const uint32_t want = ReferenceCrc32c(p, len, seed);
      const uint32_t hw = Crc32c(p, len, seed);
      const uint32_t sw = ScalarCrc32c(p, len, seed);
      if (hw != want || sw != want) {
        FAIL() << "len=" << len << " misalign=" << misalign << " seed="
               << seed << ": reference " << want << ", default " << hw
               << ", scalar " << sw;
      }
    }
  }

  // Two long blocks, two short blocks and a tail in one call.
  const size_t total = 2 * 24576 + 2 * 768 + 11;
  const uint32_t whole = ReferenceCrc32c(bytes.data(), total, 0);
  for (const size_t split :
       {size_t{5000}, size_t{8192 + 1}, size_t{24576 + 12345},
        2 * size_t{24576} + 300, 2 * size_t{24576} + 768 + 700}) {
    const unsigned char* a = bytes.data();
    const unsigned char* b = bytes.data() + split;
    const size_t len_b = total - split;
    EXPECT_EQ(whole, Crc32c(b, len_b, Crc32c(a, split))) << split;
    EXPECT_EQ(whole, ScalarCrc32c(b, len_b, Crc32c(a, split))) << split;
    EXPECT_EQ(whole, Crc32c(b, len_b, ScalarCrc32c(a, split))) << split;
  }
}

}  // namespace
}  // namespace alphasort
