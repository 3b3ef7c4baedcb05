#ifndef ALPHASORT_SORT_RADIX_PARTITION_H_
#define ALPHASORT_SORT_RADIX_PARTITION_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/tracer.h"
#include "record/record.h"
#include "sort/compact_entry.h"
#include "sort/entry.h"
#include "sort/quicksort.h"
#include "sort/sort_kernel.h"

namespace alphasort {

// MSB-radix hybrid over the normalized key prefixes (docs/perf.md
// "Kernel pass 2"). The prefix array AlphaSort already builds is the
// ideal radix input: the prefix IS the key's leading bytes as a
// big-endian integer, so byte d of the prefix is byte d of the key, and
// a counting pass + scatter on it is a perfect 256-way partition.
//
// The hybrid keeps scattering, one prefix byte per level, until every
// bucket holds at most kBucketBudget entries, then finishes each bucket
// with the existing introsort — which also owns all tie-breaking, so the
// radix layer never looks at a record. A uniform 100k-entry run takes
// two passes; its buckets average under two entries. Skew safety:
//   - a bucket larger than the budget recurses on the next prefix byte;
//   - a pass whose entries all share the current byte advances a byte
//     without re-scattering (no wasted pass on common-prefix keys);
//   - a bucket whose prefixes are all identical (duplicate-heavy input)
//     goes straight to the introsort tie-break path — more radix passes
//     cannot split it.
//
// Both kernels order by the same strict total order (prefix, full key,
// record position — see PrefixSortOps::LessEntries), so the hybrid's
// output is byte-identical to QuickSort's.

struct RadixStats {
  uint64_t partition_passes = 0;   // counting+scatter passes executed
  uint64_t buckets_sorted = 0;     // bucket ranges finished by introsort
  uint64_t buckets_recursed = 0;   // over-budget buckets sent a byte deeper
  uint64_t tie_shortcuts = 0;      // all-equal-prefix ranges handed straight
                                   // to the introsort tie-break path

  void Merge(const RadixStats& o) {
    partition_passes += o.partition_passes;
    buckets_sorted += o.buckets_sorted;
    buckets_recursed += o.buckets_recursed;
    tie_shortcuts += o.tie_shortcuts;
  }
};

namespace radix_internal {

// Largest bucket the introsort finishes; a bigger one takes another
// scatter on the next byte. Cache fit does not set it: a 2048-entry
// bucket is 32 KB and already sorts in L1/L2. Mispredicted compares do:
// an introsort over random prefixes pays about log2(n) compares per
// entry, half of them mispredicted branches, while a scatter pass is
// branch-free and costs a fixed 256-bucket histogram per call. A sweep
// over run lengths 1 Ki..250 Ki and all nine generator distributions
// (docs/perf.md "The MSB-radix hybrid") put the break-even between 16
// and 24 entries; 64 lost up to 2.6x at 8-14 Ki entries.
inline constexpr size_t kBucketBudget = 16;

template <typename Tracer>
void RadixRangePrefix(const RecordFormat& fmt, PrefixEntry* a, size_t n,
                      int depth, PrefixEntry* scratch, SortStats* stats,
                      Tracer* tracer, RadixStats* rs) {
  Mem<Tracer> mem(tracer);
  // Bytes of prefix that actually discriminate (zero-padded past
  // key_size, so deeper bytes are all equal).
  const int max_depth =
      fmt.key_size < 8 ? static_cast<int>(fmt.key_size) : 8;
  while (true) {
    if (n <= kBucketBudget || depth >= max_depth) {
      ++rs->buckets_sorted;
      QuickSortPrefixEntries(fmt, a, n, stats, tracer);
      return;
    }

    const int shift = 56 - 8 * depth;
    std::array<size_t, 257> offsets{};
    const uint64_t first = a[0].prefix;
    bool all_same_prefix = true;
    for (size_t i = 0; i < n; ++i) {
      mem.TouchRead(&a[i], sizeof(PrefixEntry));
      ++offsets[((a[i].prefix >> shift) & 0xFF) + 1];
      all_same_prefix &= a[i].prefix == first;
    }
    if (all_same_prefix) {
      // Duplicate-heavy range: the prefix cannot split it; only the
      // introsort's full-key tie-break path can order it.
      ++rs->tie_shortcuts;
      ++rs->buckets_sorted;
      QuickSortPrefixEntries(fmt, a, n, stats, tracer);
      return;
    }
    if (offsets[((first >> shift) & 0xFF) + 1] == n) {
      // Everything shares this byte (common key prefix) — advance to the
      // next byte without paying a scatter.
      ++depth;
      continue;
    }

    ++rs->partition_passes;
    for (size_t b = 0; b < 256; ++b) offsets[b + 1] += offsets[b];
    {
      std::array<size_t, 256> cursor{};
      memcpy(cursor.data(), offsets.data(), sizeof(cursor));
      for (size_t i = 0; i < n; ++i) {
        mem.TouchRead(&a[i], sizeof(PrefixEntry));
        const size_t dst = cursor[(a[i].prefix >> shift) & 0xFF]++;
        mem.TouchWrite(&scratch[dst], sizeof(PrefixEntry));
        scratch[dst] = a[i];
        ++stats->exchanges;
        stats->bytes_moved += sizeof(PrefixEntry);
      }
    }
    memcpy(a, scratch, n * sizeof(PrefixEntry));

    for (size_t b = 0; b < 256; ++b) {
      const size_t lo = offsets[b];
      const size_t len = offsets[b + 1] - lo;
      if (len < 2) {
        if (len == 1) ++rs->buckets_sorted;
        continue;
      }
      if (len > kBucketBudget) ++rs->buckets_recursed;
      RadixRangePrefix(fmt, a + lo, len, depth + 1, scratch + lo, stats,
                       tracer, rs);
    }
    return;
  }
}

}  // namespace radix_internal

// Sorts a prefix-entry array with the MSB-radix hybrid. Allocates an
// n-entry scratch array internally (one more entry array). Stats
// account scatter moves as exchanges/bytes_moved and the bucket
// introsorts as usual; per-kernel shape lands in *radix_stats.
template <typename Tracer = NullTracer>
void RadixSortPrefixEntries(const RecordFormat& format, PrefixEntry* entries,
                            size_t n, SortStats* stats, Tracer* tracer,
                            RadixStats* radix_stats = nullptr) {
  RadixStats local_rs;
  if (radix_stats == nullptr) radix_stats = &local_rs;
  if (n < 2) return;
  if (n <= radix_internal::kBucketBudget) {
    ++radix_stats->buckets_sorted;
    QuickSortPrefixEntries(format, entries, n, stats, tracer);
    return;
  }
  std::vector<PrefixEntry> scratch(n);
  radix_internal::RadixRangePrefix(format, entries, n, /*depth=*/0,
                                   scratch.data(), stats, tracer,
                                   radix_stats);
}

// Kernel dispatch used by run generation (core/pipeline.cc): kAuto
// takes the hybrid, which sorts a run of at most kBucketBudget entries
// as one introsort bucket.
template <typename Tracer = NullTracer>
void SortPrefixEntriesWithKernel(const RecordFormat& format,
                                 PrefixEntry* entries, size_t n,
                                 SortKernel kernel, SortStats* stats,
                                 Tracer* tracer,
                                 RadixStats* radix_stats = nullptr) {
  if (kernel == SortKernel::kQuickSort) {
    QuickSortPrefixEntries(format, entries, n, stats, tracer);
  } else {
    RadixSortPrefixEntries(format, entries, n, stats, tracer, radix_stats);
  }
}

// Non-templated conveniences (NullTracer), mirroring SortPrefixEntryArray.
void RadixSortPrefixEntryArray(const RecordFormat& format,
                               PrefixEntry* entries, size_t n,
                               SortStats* stats = nullptr,
                               RadixStats* radix_stats = nullptr);
void SortPrefixEntryArrayWithKernel(const RecordFormat& format,
                                    PrefixEntry* entries, size_t n,
                                    SortKernel kernel,
                                    SortStats* stats = nullptr,
                                    RadixStats* radix_stats = nullptr);

// The paper's 8-byte (prefix32, index) entries get the same hybrid: 4
// discriminating prefix bytes, buckets finished by SortCompactEntryArray
// (which owns the compact tie-break path).
void RadixSortCompactEntryArray(const RecordFormat& format, const char* base,
                                CompactEntry* entries, size_t n,
                                SortStats* stats = nullptr,
                                RadixStats* radix_stats = nullptr);

}  // namespace alphasort

#endif  // ALPHASORT_SORT_RADIX_PARTITION_H_
