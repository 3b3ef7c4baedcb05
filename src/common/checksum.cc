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
// One instruction per 8-byte word, then the byte tail. A single
// dependency chain (~8 bytes per 3 cycles) already outruns memory
// bandwidth on the buffers the sort checksums.
uint32_t Crc32cHardware(uint32_t c, const unsigned char* p, size_t n) {
  for (; n >= 8; n -= 8, p += 8) {
    uint64_t w;
    memcpy(&w, p, 8);
    c = simd::Crc32cU64(c, w);
  }
  for (; n > 0; --n, ++p) c = simd::Crc32cU8(c, *p);
  return c;
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

// GF(2) vector-matrix product: each matrix column is the image of one
// bit of `vec` under multiplication by x^k mod the CRC polynomial.
uint32_t Gf2MatrixTimes(const uint32_t* mat, uint32_t vec) {
  uint32_t sum = 0;
  while (vec != 0) {
    if (vec & 1) sum ^= *mat;
    vec >>= 1;
    ++mat;
  }
  return sum;
}

void Gf2MatrixSquare(uint32_t* square, const uint32_t* mat) {
  for (int n = 0; n < 32; ++n) square[n] = Gf2MatrixTimes(mat, mat[n]);
}

}  // namespace

uint32_t Crc32cCombine(uint32_t crc1, uint32_t crc2, uint64_t len2) {
  // zlib's crc32_combine ported to the Castagnoli polynomial: advance
  // crc1 through len2 zero bytes by repeated matrix squaring (the matrix
  // for x^8, squared per bit of len2), then fold in crc2. The pre/post
  // inversion Crc32c applies cancels out of the algebra, so the final
  // conditioned values combine directly.
  if (len2 == 0) return crc1;
  uint32_t even[32];  // operator for 2^k zero bytes, k even
  uint32_t odd[32];   // ... k odd
  odd[0] = kCrc32cPoly;  // operator for one zero bit
  uint32_t row = 1;
  for (int n = 1; n < 32; ++n) {
    odd[n] = row;
    row <<= 1;
  }
  Gf2MatrixSquare(even, odd);   // one zero byte, two bits at a time...
  Gf2MatrixSquare(odd, even);   // ...four bits: even is now 8 bits = 1 byte
  do {
    Gf2MatrixSquare(even, odd);
    if (len2 & 1) crc1 = Gf2MatrixTimes(even, crc1);
    len2 >>= 1;
    if (len2 == 0) break;
    Gf2MatrixSquare(odd, even);
    if (len2 & 1) crc1 = Gf2MatrixTimes(odd, crc1);
    len2 >>= 1;
  } while (len2 != 0);
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
