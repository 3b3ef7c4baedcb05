#ifndef ALPHASORT_COMMON_SIMD_H_
#define ALPHASORT_COMMON_SIMD_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>

// SIMD shim for the hot in-cache kernels (entry-array build and the
// QuickSort prefix-compare scans — docs/perf.md "Kernel speed pass 2")
// and for the CRC-32C instruction behind Crc32c (docs/perf.md "Checksum
// kernel").
//
// Three backends, chosen at compile time:
//   - SSE on x86-64 (SSE2 baseline; the 64-bit compares additionally need
//     SSE4.2's pcmpgtq, see kHasCompare64),
//   - NEON on AArch64,
//   - scalar everywhere else, and always when ALPHASORT_SIMD_FORCE_SCALAR
//     is defined (CMake -DALPHASORT_FORCE_SCALAR=ON — the configuration
//     CI's tier-1 stage builds so the fallback cannot rot).
//
// The scalar fallbacks are not an afterthought: every vector helper here
// has scalar semantics documented against it, every kernel keeps its
// scalar loop compiled in all configurations, and tests flip the runtime
// kill switch (SetForceScalar) to assert bit-identical results from both
// paths in one binary. The kill switch is consulted once per kernel entry
// (never inside a hot loop).
//
// Only 128-bit operations are exposed. The kernels' unit of work is one
// or two cache-line-sized entries (8/16 B — paper §4 sizes entries to
// lines), so wider vectors would only add alignment and tail cases
// without touching the memory-bound bottleneck.

#if !defined(ALPHASORT_SIMD_FORCE_SCALAR)
#if defined(__SSE2__) || defined(_M_X64)
#define ALPHASORT_SIMD_SSE 1
#include <emmintrin.h>
#if defined(__SSSE3__)
#include <tmmintrin.h>
#endif
#if defined(__SSE4_2__)
#include <nmmintrin.h>
#endif
#elif defined(__aarch64__) || defined(__ARM_NEON)
#define ALPHASORT_SIMD_NEON 1
#include <arm_neon.h>
#if defined(__ARM_FEATURE_CRC32)
#include <arm_acle.h>
#endif
#endif
#endif  // !ALPHASORT_SIMD_FORCE_SCALAR

#if defined(ALPHASORT_SIMD_SSE) || defined(ALPHASORT_SIMD_NEON)
#define ALPHASORT_SIMD_VECTOR 1
#endif

// 64-bit lane compares need pcmpgtq (SSE4.2) on x86; NEON has them
// natively. Callers gate 64-bit scan loops on this macro — the 32-bit
// ones need only ALPHASORT_SIMD_VECTOR.
#if (defined(ALPHASORT_SIMD_SSE) && defined(__SSE4_2__)) || \
    defined(ALPHASORT_SIMD_NEON)
#define ALPHASORT_SIMD_CMP64 1
#endif

// The CRC-32C instruction: SSE4.2 `crc32` (64-bit form, so x86-64 only)
// or the ARMv8 CRC extension. Gates the hardware Crc32c in
// common/checksum.cc; without it Crc32c runs slice-by-8.
#if (defined(ALPHASORT_SIMD_SSE) && defined(__SSE4_2__) && \
     defined(__x86_64__)) ||                                 \
    (defined(ALPHASORT_SIMD_NEON) && defined(__ARM_FEATURE_CRC32))
#define ALPHASORT_SIMD_CRC32C 1
#endif

namespace alphasort {
namespace simd {

// ---------------------------------------------------------------------------
// Backend identity and the runtime kill switch.
// ---------------------------------------------------------------------------

#if defined(ALPHASORT_SIMD_SSE)
inline constexpr bool kVectorCompiled = true;
inline constexpr const char* kBackendName = "sse";
#elif defined(ALPHASORT_SIMD_NEON)
inline constexpr bool kVectorCompiled = true;
inline constexpr const char* kBackendName = "neon";
#else
inline constexpr bool kVectorCompiled = false;
inline constexpr const char* kBackendName = "scalar";
#endif

// 64-bit unsigned lane compares need pcmpgtq (SSE4.2) on x86; AArch64
// NEON has them natively. Without them the 64-bit scan helpers fall back
// to scalar while the 32-bit ones stay vectorized.
#if (defined(ALPHASORT_SIMD_SSE) && defined(__SSE4_2__)) || \
    defined(ALPHASORT_SIMD_NEON)
inline constexpr bool kHasCompare64 = true;
#else
inline constexpr bool kHasCompare64 = false;
#endif

// The CRC-32C instruction (see ALPHASORT_SIMD_CRC32C): when false, or
// when the kill switch is on, Crc32c runs its slice-by-8 fallback.
#if defined(ALPHASORT_SIMD_CRC32C)
inline constexpr bool kHasCrc32c = true;
#else
inline constexpr bool kHasCrc32c = false;
#endif

// Process-wide force-scalar flag, for simd-vs-scalar parity tests and the
// bench suite's A/B rows. Kernels read it once at entry via VectorActive().
inline std::atomic<bool>& ForceScalarFlag() {
  static std::atomic<bool> flag{false};
  return flag;
}
inline void SetForceScalar(bool v) {
  ForceScalarFlag().store(v, std::memory_order_relaxed);
}
inline bool VectorActive() {
  return kVectorCompiled &&
         !ForceScalarFlag().load(std::memory_order_relaxed);
}

// RAII toggle for tests: force the scalar path within a scope.
class ScopedForceScalar {
 public:
  explicit ScopedForceScalar(bool force = true)
      : prev_(ForceScalarFlag().load(std::memory_order_relaxed)) {
    SetForceScalar(force);
  }
  ~ScopedForceScalar() { SetForceScalar(prev_); }
  ScopedForceScalar(const ScopedForceScalar&) = delete;
  ScopedForceScalar& operator=(const ScopedForceScalar&) = delete;

 private:
  bool prev_;
};

// ---------------------------------------------------------------------------
// 128-bit vector operations. Compiled only when a vector backend is
// available; callers keep their scalar loop under `if (!VectorActive())`
// (or unconditionally when !kVectorCompiled).
//
// Lane numbering is little-endian throughout: lane 0 is the lowest-
// addressed element of a load and bit 0 of a compare mask.
// ---------------------------------------------------------------------------

#if defined(ALPHASORT_SIMD_SSE)

using V128 = __m128i;

// [u64 at a, u64 at b] (unaligned loads).
inline V128 LoadU64Pair(const void* a, const void* b) {
  return _mm_unpacklo_epi64(_mm_loadl_epi64(static_cast<const __m128i*>(a)),
                            _mm_loadl_epi64(static_cast<const __m128i*>(b)));
}

// [u64 at p, u64 at p + stride] — two prefixes of adjacent 16 B entries.
inline V128 GatherU64Stride(const void* p, size_t stride) {
  const char* c = static_cast<const char*>(p);
  return LoadU64Pair(c, c + stride);
}

// [u32 at p, p+s, p+2s, p+3s] — four prefixes of adjacent 8 B entries.
inline V128 GatherU32Stride(const void* p, size_t stride) {
  const char* c = static_cast<const char*>(p);
  uint32_t a, b, d, e;
  memcpy(&a, c, 4);
  memcpy(&b, c + stride, 4);
  memcpy(&d, c + 2 * stride, 4);
  memcpy(&e, c + 3 * stride, 4);
  return _mm_set_epi32(static_cast<int>(e), static_cast<int>(d),
                       static_cast<int>(b), static_cast<int>(a));
}

inline V128 SetU64(uint64_t lo, uint64_t hi) {
  return _mm_set_epi64x(static_cast<long long>(hi),
                        static_cast<long long>(lo));
}
inline V128 SetU32(uint32_t l0, uint32_t l1, uint32_t l2, uint32_t l3) {
  return _mm_set_epi32(static_cast<int>(l3), static_cast<int>(l2),
                       static_cast<int>(l1), static_cast<int>(l0));
}
inline V128 Broadcast64(uint64_t v) {
  return _mm_set1_epi64x(static_cast<long long>(v));
}
inline V128 Broadcast32(uint32_t v) {
  return _mm_set1_epi32(static_cast<int>(v));
}

// Byte-reverse each 64-bit lane (the big-endian prefix normalization of
// common/bytes.h, two keys at a time).
inline V128 Bswap64x2(V128 v) {
#if defined(__SSSE3__)
  const V128 rev = _mm_set_epi8(8, 9, 10, 11, 12, 13, 14, 15,  //
                                0, 1, 2, 3, 4, 5, 6, 7);
  return _mm_shuffle_epi8(v, rev);
#else
  // SSE2: swap bytes within 16-bit units, then 16-bit units within 32-bit
  // units, then 32-bit halves of each 64-bit lane.
  V128 x = _mm_or_si128(_mm_srli_epi16(v, 8), _mm_slli_epi16(v, 8));
  x = _mm_shufflelo_epi16(x, _MM_SHUFFLE(2, 3, 0, 1));
  x = _mm_shufflehi_epi16(x, _MM_SHUFFLE(2, 3, 0, 1));
  return _mm_shuffle_epi32(x, _MM_SHUFFLE(2, 3, 0, 1));
#endif
}

// Byte-reverse each 32-bit lane (four compact prefixes at a time).
inline V128 Bswap32x4(V128 v) {
#if defined(__SSSE3__)
  const V128 rev = _mm_set_epi8(12, 13, 14, 15, 8, 9, 10, 11,  //
                                4, 5, 6, 7, 0, 1, 2, 3);
  return _mm_shuffle_epi8(v, rev);
#else
  V128 x = _mm_or_si128(_mm_srli_epi16(v, 8), _mm_slli_epi16(v, 8));
  x = _mm_shufflelo_epi16(x, _MM_SHUFFLE(2, 3, 0, 1));
  return _mm_shufflehi_epi16(x, _MM_SHUFFLE(2, 3, 0, 1));
#endif
}

// Interleave 64-bit lanes: [a0, b0] / [a1, b1]. Composes a 16 B
// (prefix, pointer) entry from a prefix vector and a pointer vector.
inline V128 InterleaveLo64(V128 a, V128 b) {
  return _mm_unpacklo_epi64(a, b);
}
inline V128 InterleaveHi64(V128 a, V128 b) {
  return _mm_unpackhi_epi64(a, b);
}

// Interleave 32-bit lanes: [a0, b0, a1, b1] / [a2, b2, a3, b3]. Composes
// two 8 B (prefix, index) compact entries per result.
inline V128 InterleaveLo32(V128 a, V128 b) {
  return _mm_unpacklo_epi32(a, b);
}
inline V128 InterleaveHi32(V128 a, V128 b) {
  return _mm_unpackhi_epi32(a, b);
}

inline void StoreU128(void* p, V128 v) {
  _mm_storeu_si128(static_cast<__m128i*>(p), v);
}

// 2-bit mask of 64-bit lanes where a < b, unsigned. Requires
// kHasCompare64 (pcmpgtq is signed; lanes are sign-bias-flipped first).
#if defined(__SSE4_2__)
inline unsigned LessU64Mask(V128 a, V128 b) {
  const V128 bias = _mm_set1_epi64x(static_cast<long long>(1ull << 63));
  const V128 gt = _mm_cmpgt_epi64(_mm_xor_si128(b, bias),
                                  _mm_xor_si128(a, bias));
  return static_cast<unsigned>(_mm_movemask_pd(_mm_castsi128_pd(gt)));
}
inline unsigned GreaterU64Mask(V128 a, V128 b) { return LessU64Mask(b, a); }
#endif

// 4-bit mask of 32-bit lanes where a < b, unsigned (SSE2).
inline unsigned LessU32Mask(V128 a, V128 b) {
  const V128 bias = _mm_set1_epi32(static_cast<int>(0x80000000u));
  const V128 gt = _mm_cmpgt_epi32(_mm_xor_si128(b, bias),
                                  _mm_xor_si128(a, bias));
  return static_cast<unsigned>(_mm_movemask_ps(_mm_castsi128_ps(gt)));
}
inline unsigned GreaterU32Mask(V128 a, V128 b) { return LessU32Mask(b, a); }

#elif defined(ALPHASORT_SIMD_NEON)

using V128 = uint8x16_t;

inline V128 LoadU64Pair(const void* a, const void* b) {
  uint64x2_t v = vdupq_n_u64(0);
  uint64_t lo, hi;
  memcpy(&lo, a, 8);
  memcpy(&hi, b, 8);
  v = vsetq_lane_u64(lo, v, 0);
  v = vsetq_lane_u64(hi, v, 1);
  return vreinterpretq_u8_u64(v);
}

inline V128 GatherU64Stride(const void* p, size_t stride) {
  const char* c = static_cast<const char*>(p);
  return LoadU64Pair(c, c + stride);
}

inline V128 GatherU32Stride(const void* p, size_t stride) {
  const char* c = static_cast<const char*>(p);
  uint32_t lanes[4];
  memcpy(&lanes[0], c, 4);
  memcpy(&lanes[1], c + stride, 4);
  memcpy(&lanes[2], c + 2 * stride, 4);
  memcpy(&lanes[3], c + 3 * stride, 4);
  return vreinterpretq_u8_u32(vld1q_u32(lanes));
}

inline V128 SetU64(uint64_t lo, uint64_t hi) {
  uint64x2_t v = vdupq_n_u64(lo);
  v = vsetq_lane_u64(hi, v, 1);
  return vreinterpretq_u8_u64(v);
}
inline V128 SetU32(uint32_t l0, uint32_t l1, uint32_t l2, uint32_t l3) {
  const uint32_t lanes[4] = {l0, l1, l2, l3};
  return vreinterpretq_u8_u32(vld1q_u32(lanes));
}
inline V128 Broadcast64(uint64_t v) {
  return vreinterpretq_u8_u64(vdupq_n_u64(v));
}
inline V128 Broadcast32(uint32_t v) {
  return vreinterpretq_u8_u32(vdupq_n_u32(v));
}

inline V128 Bswap64x2(V128 v) { return vrev64q_u8(v); }
inline V128 Bswap32x4(V128 v) { return vrev32q_u8(v); }

inline V128 InterleaveLo64(V128 a, V128 b) {
  return vreinterpretq_u8_u64(vzip1q_u64(vreinterpretq_u64_u8(a),
                                         vreinterpretq_u64_u8(b)));
}
inline V128 InterleaveHi64(V128 a, V128 b) {
  return vreinterpretq_u8_u64(vzip2q_u64(vreinterpretq_u64_u8(a),
                                         vreinterpretq_u64_u8(b)));
}
inline V128 InterleaveLo32(V128 a, V128 b) {
  return vreinterpretq_u8_u32(vzip1q_u32(vreinterpretq_u32_u8(a),
                                         vreinterpretq_u32_u8(b)));
}
inline V128 InterleaveHi32(V128 a, V128 b) {
  return vreinterpretq_u8_u32(vzip2q_u32(vreinterpretq_u32_u8(a),
                                         vreinterpretq_u32_u8(b)));
}

inline void StoreU128(void* p, V128 v) {
  vst1q_u8(static_cast<uint8_t*>(p), v);
}

inline unsigned LessU64Mask(V128 a, V128 b) {
  const uint64x2_t lt =
      vcltq_u64(vreinterpretq_u64_u8(a), vreinterpretq_u64_u8(b));
  return static_cast<unsigned>(vgetq_lane_u64(lt, 0) & 1) |
         (static_cast<unsigned>(vgetq_lane_u64(lt, 1) & 1) << 1);
}
inline unsigned GreaterU64Mask(V128 a, V128 b) { return LessU64Mask(b, a); }

inline unsigned LessU32Mask(V128 a, V128 b) {
  const uint32x4_t lt =
      vcltq_u32(vreinterpretq_u32_u8(a), vreinterpretq_u32_u8(b));
  return static_cast<unsigned>(vgetq_lane_u32(lt, 0) & 1) |
         (static_cast<unsigned>(vgetq_lane_u32(lt, 1) & 1) << 1) |
         (static_cast<unsigned>(vgetq_lane_u32(lt, 2) & 1) << 2) |
         (static_cast<unsigned>(vgetq_lane_u32(lt, 3) & 1) << 3);
}
inline unsigned GreaterU32Mask(V128 a, V128 b) { return LessU32Mask(b, a); }

#endif  // backend

// ---------------------------------------------------------------------------
// CRC-32C steps: the reflected Castagnoli register advanced over 8 bytes
// (little-endian word) or 1 byte, with no pre/post inversion. The 8-byte
// step keeps the register in the low half of a 64-bit value, as x86's
// `crc32` does, so a chain of steps needs no zero-extension between them.
// ---------------------------------------------------------------------------

#if defined(ALPHASORT_SIMD_CRC32C)
inline uint64_t Crc32cU64(uint64_t crc, uint64_t v) {
#if defined(ALPHASORT_SIMD_SSE)
  return _mm_crc32_u64(crc, v);
#else
  return __crc32cd(static_cast<uint32_t>(crc), v);
#endif
}
inline uint32_t Crc32cU8(uint32_t crc, uint8_t v) {
#if defined(ALPHASORT_SIMD_SSE)
  return _mm_crc32_u8(crc, v);
#else
  return __crc32cb(crc, v);
#endif
}
#endif  // ALPHASORT_SIMD_CRC32C

}  // namespace simd
}  // namespace alphasort

#endif  // ALPHASORT_COMMON_SIMD_H_
