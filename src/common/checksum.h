#ifndef ALPHASORT_COMMON_CHECKSUM_H_
#define ALPHASORT_COMMON_CHECKSUM_H_

#include <cstddef>
#include <cstdint>

namespace alphasort {

// CRC-32C (Castagnoli) of `n` bytes, continuing from `seed` (a previous
// Crc32c result): Crc32c(b, Crc32c(a)) == Crc32c(a||b). Checksums every
// merged output byte, every spilled-run byte and every byte on the wire,
// so it runs on the CRC-32C instruction where one is compiled in (SSE4.2
// `crc32` on x86-64, the ARMv8 CRC extension on AArch64; common/simd.h),
// three independent chains at a time, and on a slice-by-8 table loop
// otherwise. The forced-scalar build
// (ALPHASORT_SIMD_FORCE_SCALAR) and the run-time kill switch
// (simd::SetForceScalar, read once per call) select the table loop. Both
// paths return identical values.
uint32_t Crc32c(const void* data, size_t n, uint32_t seed = 0);

// CRC of the concatenation A||B from the CRCs of A and B and the length
// of B: Crc32cCombine(Crc32c(a), Crc32c(b), len_b) == Crc32c(a||b).
// O(log len2) GF(2) matrix products. This is what lets the partitioned
// merge checksum each output range independently (ranges complete out of
// order) and still report the byte-stream CRC of the whole sorted output.
uint32_t Crc32cCombine(uint32_t crc1, uint32_t crc2, uint64_t len2);

// Order-independent 64-bit fingerprint of a multiset of byte strings:
// equal multisets of records produce equal fingerprints regardless of
// order. Used to check that a sort output is a permutation of its input
// without materializing either side.
class MultisetFingerprint {
 public:
  void Add(const void* data, size_t n);

  // Commutative combine of two partial fingerprints.
  void Merge(const MultisetFingerprint& other) {
    sum_ += other.sum_;
    xor_ ^= other.xor_;
    count_ += other.count_;
  }

  bool operator==(const MultisetFingerprint& other) const {
    return sum_ == other.sum_ && xor_ == other.xor_ &&
           count_ == other.count_;
  }

  uint64_t count() const { return count_; }

 private:
  uint64_t sum_ = 0;
  uint64_t xor_ = 0;
  uint64_t count_ = 0;
};

}  // namespace alphasort

#endif  // ALPHASORT_COMMON_CHECKSUM_H_
