#ifndef ALPHASORT_SORT_SORT_KERNEL_H_
#define ALPHASORT_SORT_SORT_KERNEL_H_

namespace alphasort {

// Which in-cache sort runs over the run's prefix-entry array
// (docs/perf.md "Kernel speed pass 2"):
//   kQuickSort — the paper's key-prefix introsort, always correct.
//   kAuto      — the MSB-radix hybrid: partition passes over the 64-bit
//                prefixes until buckets hold a few entries, each
//                finished by the same introsort
//                (src/sort/radix_partition.h); a run no larger than one
//                bucket is a single introsort call.
// Both kernels sort by the same strict total order (full key, then
// record position), so they produce byte-identical output. The pipeline
// always runs kAuto; kQuickSort stays as the tests' reference and the
// benches' baseline.
enum class SortKernel {
  kAuto = 0,
  kQuickSort = 1,
};

}  // namespace alphasort

#endif  // ALPHASORT_SORT_SORT_KERNEL_H_
