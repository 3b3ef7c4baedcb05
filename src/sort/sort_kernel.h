#ifndef ALPHASORT_SORT_SORT_KERNEL_H_
#define ALPHASORT_SORT_SORT_KERNEL_H_

#include <string_view>

namespace alphasort {

// Which in-cache sort runs over the run's prefix-entry array
// (docs/perf.md "Kernel speed pass 2"):
//   kQuickSort   — the paper's key-prefix introsort, always correct.
//   kRadixHybrid — MSB-radix partition passes over the 64-bit prefixes
//                  until buckets hold a few entries, each finished by
//                  the same introsort (src/sort/radix_partition.h).
//   kAuto        — the hybrid; a run no larger than one bucket is a
//                  single introsort call.
// Both kernels sort by the same strict total order (full key, then
// record position), so they produce byte-identical output — which one
// runs is purely a speed decision.
enum class SortKernel {
  kAuto = 0,
  kQuickSort = 1,
  kRadixHybrid = 2,
};

inline const char* SortKernelName(SortKernel k) {
  switch (k) {
    case SortKernel::kAuto:
      return "auto";
    case SortKernel::kQuickSort:
      return "quicksort";
    case SortKernel::kRadixHybrid:
      return "radix_hybrid";
  }
  return "invalid";
}

// Parses the SortOptions::sort_kernel spelling. Returns false (leaving
// *out untouched) on an unknown name.
inline bool ParseSortKernel(std::string_view name, SortKernel* out) {
  if (name == "auto") {
    *out = SortKernel::kAuto;
  } else if (name == "quicksort") {
    *out = SortKernel::kQuickSort;
  } else if (name == "radix_hybrid") {
    *out = SortKernel::kRadixHybrid;
  } else {
    return false;
  }
  return true;
}

inline bool SortKernelIsValid(SortKernel k) {
  return k == SortKernel::kAuto || k == SortKernel::kQuickSort ||
         k == SortKernel::kRadixHybrid;
}

}  // namespace alphasort

#endif  // ALPHASORT_SORT_SORT_KERNEL_H_
