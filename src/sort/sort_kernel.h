#ifndef ALPHASORT_SORT_SORT_KERNEL_H_
#define ALPHASORT_SORT_SORT_KERNEL_H_

#include <string_view>

namespace alphasort {

// Which in-cache sort runs over the run's prefix-entry array
// (docs/perf.md "Kernel speed pass 2"):
//   kQuickSort — the paper's key-prefix introsort, always correct.
//   kAuto      — the MSB-radix hybrid: partition passes over the 64-bit
//                prefixes until buckets hold a few entries, each
//                finished by the same introsort
//                (src/sort/radix_partition.h); a run no larger than one
//                bucket is a single introsort call. "radix_hybrid"
//                parses as an alias for it.
// Both kernels sort by the same strict total order (full key, then
// record position), so they produce byte-identical output — which one
// runs is purely a speed decision.
enum class SortKernel {
  kAuto = 0,
  kQuickSort = 1,
};

inline const char* SortKernelName(SortKernel k) {
  switch (k) {
    case SortKernel::kAuto:
      return "auto";
    case SortKernel::kQuickSort:
      return "quicksort";
  }
  return "invalid";
}

// Parses the SortOptions::sort_kernel spelling; "radix_hybrid" is an
// alias for kAuto. Returns false (leaving *out untouched) on an unknown
// name.
inline bool ParseSortKernel(std::string_view name, SortKernel* out) {
  if (name == "auto" || name == "radix_hybrid") {
    *out = SortKernel::kAuto;
  } else if (name == "quicksort") {
    *out = SortKernel::kQuickSort;
  } else {
    return false;
  }
  return true;
}

inline bool SortKernelIsValid(SortKernel k) {
  return k == SortKernel::kAuto || k == SortKernel::kQuickSort;
}

}  // namespace alphasort

#endif  // ALPHASORT_SORT_SORT_KERNEL_H_
