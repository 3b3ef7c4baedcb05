#include "common/checksum.h"

#include <array>
#include <bit>
#include <cstring>

#include "common/simd.h"

namespace alphasort {

namespace {

constexpr uint32_t kCrc32cPoly = 0x82f63b78u;  // reflected Castagnoli

// Slice-by-8 tables: kSlice[k][b] is the CRC register after byte b
// followed by k zero bytes, so one 8-byte step is eight independent
// lookups instead of eight dependent ones. kSlice[0] is the classic
// byte-at-a-time table.
using SliceTables = std::array<std::array<uint32_t, 256>, 8>;
constexpr SliceTables MakeSliceTables() {
  SliceTables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (kCrc32cPoly ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
    }
  }
  return t;
}
constexpr SliceTables kSlice = MakeSliceTables();

// GF(2) operators on the raw register: a matrix is 32 columns, column i
// the image of bit i. kZeroBytes[k] advances the register through 2^k
// zero bytes (multiplication by x^(8 * 2^k) mod the polynomial).
using Gf2Matrix = std::array<uint32_t, 32>;

constexpr uint32_t Gf2MatrixTimes(const Gf2Matrix& mat, uint32_t vec) {
  uint32_t sum = 0;
  for (size_t i = 0; vec != 0; vec >>= 1, ++i) {
    if (vec & 1) sum ^= mat[i];
  }
  return sum;
}

constexpr Gf2Matrix Gf2MatrixSquare(const Gf2Matrix& mat) {
  Gf2Matrix square{};
  for (size_t i = 0; i < 32; ++i) square[i] = Gf2MatrixTimes(mat, mat[i]);
  return square;
}

constexpr std::array<Gf2Matrix, 64> MakeZeroBytes() {
  std::array<Gf2Matrix, 64> ops{};
  Gf2Matrix bit{};  // one zero bit
  bit[0] = kCrc32cPoly;
  for (size_t i = 1; i < 32; ++i) bit[i] = uint32_t{1} << (i - 1);
  ops[0] = Gf2MatrixSquare(Gf2MatrixSquare(Gf2MatrixSquare(bit)));
  for (size_t k = 1; k < 64; ++k) ops[k] = Gf2MatrixSquare(ops[k - 1]);
  return ops;
}
constexpr std::array<Gf2Matrix, 64> kZeroBytes = MakeZeroBytes();

// The scalar fallback, on the raw (uninverted) register.
uint32_t Crc32cSliceBy8(uint32_t c, const unsigned char* p, size_t n) {
  if constexpr (std::endian::native == std::endian::little) {
    for (; n >= 8; n -= 8, p += 8) {
      uint64_t w;
      memcpy(&w, p, 8);
      w ^= c;
      c = kSlice[7][w & 0xff] ^ kSlice[6][(w >> 8) & 0xff] ^
          kSlice[5][(w >> 16) & 0xff] ^ kSlice[4][(w >> 24) & 0xff] ^
          kSlice[3][(w >> 32) & 0xff] ^ kSlice[2][(w >> 40) & 0xff] ^
          kSlice[1][(w >> 48) & 0xff] ^ kSlice[0][w >> 56];
    }
  }
  for (; n > 0; --n, ++p) c = kSlice[0][(c ^ *p) & 0xff] ^ (c >> 8);
  return c;
}

#if defined(ALPHASORT_SIMD_CRC32C)
// Shift tables: t[j][b] is the zero-byte operator for one lane length
// applied to byte b at register byte j, so shifting a register is four
// independent lookups.
using ShiftTable = std::array<std::array<uint32_t, 256>, 4>;
constexpr ShiftTable MakeShiftTable(const Gf2Matrix& op) {
  ShiftTable t{};
  for (size_t j = 0; j < 4; ++j) {
    for (uint32_t b = 0; b < 256; ++b) {
      t[j][b] = Gf2MatrixTimes(op, b << (8 * j));
    }
  }
  return t;
}

// Applies a shift table to the register in the low half of `c`.
inline uint64_t Shift(const ShiftTable& t, uint64_t c) {
  return t[0][c & 0xff] ^ t[1][(c >> 8) & 0xff] ^ t[2][(c >> 16) & 0xff] ^
         t[3][(c >> 24) & 0xff];
}

// The hardware path's lane lengths (powers of two, so each operator is
// one kZeroBytes entry).
constexpr size_t kLongLane = size_t{1} << 13;  // 8 KiB
constexpr size_t kShortLane = size_t{1} << 8;  // 256 B
constexpr ShiftTable kLongShift = MakeShiftTable(kZeroBytes[13]);
constexpr ShiftTable kShortShift = MakeShiftTable(kZeroBytes[8]);

// Advances the raw register `c` over three adjacent lanes of kLane bytes
// at a time while at least 3 * kLane bytes remain: three independent
// instruction chains, so the loop runs at the CRC instruction's
// throughput (one per cycle) instead of its latency (three cycles).
// `shift` is kLane's zero-byte operator; the raw register is linear, so
// crc(c, A||B) == shift_|B|(crc(c, A)) ^ crc(0, B) folds the lanes.
template <size_t kLane>
void Crc32cThreeLanes(uint64_t& c, const unsigned char*& p, size_t& n,
                      const ShiftTable& shift) {
  for (; n >= 3 * kLane; n -= 3 * kLane, p += 3 * kLane) {
    uint64_t c0 = c;
    uint64_t c1 = 0;
    uint64_t c2 = 0;
    for (size_t i = 0; i < kLane; i += 8) {
      uint64_t w0, w1, w2;
      memcpy(&w0, p + i, 8);
      memcpy(&w1, p + kLane + i, 8);
      memcpy(&w2, p + 2 * kLane + i, 8);
      c0 = simd::Crc32cU64(c0, w0);
      c1 = simd::Crc32cU64(c1, w1);
      c2 = simd::Crc32cU64(c2, w2);
    }
    c = Shift(shift, Shift(shift, c0) ^ c1) ^ c2;
  }
}

// Three chains over 8 KiB lanes, then over 256 B lanes, then one chain
// over the words of the last < 768 bytes, then the byte tail. A single
// chain (~8 bytes per 3 cycles) is slower than the cache the merge's
// output batches sit in; three keep the instruction busy every cycle.
uint32_t Crc32cHardware(uint32_t crc, const unsigned char* p, size_t n) {
  uint64_t c = crc;
  Crc32cThreeLanes<kLongLane>(c, p, n, kLongShift);
  Crc32cThreeLanes<kShortLane>(c, p, n, kShortShift);
  for (; n >= 8; n -= 8, p += 8) {
    uint64_t w;
    memcpy(&w, p, 8);
    c = simd::Crc32cU64(c, w);
  }
  crc = static_cast<uint32_t>(c);
  for (; n > 0; --n, ++p) crc = simd::Crc32cU8(crc, *p);
  return crc;
}
#endif

// 64-bit mix (xxhash-style avalanche) for fingerprint hashing.
uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

}  // namespace

uint32_t Crc32cCombine(uint32_t crc1, uint32_t crc2, uint64_t len2) {
  // zlib's crc32_combine ported to the Castagnoli polynomial: advance
  // crc1 through len2 zero bytes, one power-of-two operator per set bit
  // of len2, then fold in crc2. The pre/post inversion Crc32c applies
  // cancels out of the algebra, so the final conditioned values combine
  // directly.
  for (size_t k = 0; len2 != 0; ++k, len2 >>= 1) {
    if (len2 & 1) crc1 = Gf2MatrixTimes(kZeroBytes[k], crc1);
  }
  return crc1 ^ crc2;
}

uint32_t Crc32c(const void* data, size_t n, uint32_t seed) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  const uint32_t c = seed ^ 0xffffffffu;
#if defined(ALPHASORT_SIMD_CRC32C)
  if (simd::VectorActive()) return Crc32cHardware(c, p, n) ^ 0xffffffffu;
#endif
  return Crc32cSliceBy8(c, p, n) ^ 0xffffffffu;
}

void MultisetFingerprint::Add(const void* data, size_t n) {
  // Two independent byte hashes, combined commutatively across elements.
  const uint32_t crc = Crc32c(data, n);
  const uint64_t h = Mix64((static_cast<uint64_t>(crc) << 32) | n);
  sum_ += h;
  xor_ ^= Mix64(h + 0x9e3779b97f4a7c15ULL);
  ++count_;
}

}  // namespace alphasort
