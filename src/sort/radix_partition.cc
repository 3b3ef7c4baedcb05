#include "sort/radix_partition.h"

namespace alphasort {

void RadixSortPrefixEntryArray(const RecordFormat& format,
                               PrefixEntry* entries, size_t n,
                               SortStats* stats, RadixStats* radix_stats) {
  SortStats local;
  if (stats == nullptr) stats = &local;
  NullTracer tracer;
  RadixSortPrefixEntries(format, entries, n, stats, &tracer, radix_stats);
}

void SortPrefixEntryArrayWithKernel(const RecordFormat& format,
                                    PrefixEntry* entries, size_t n,
                                    SortKernel kernel, SortStats* stats,
                                    RadixStats* radix_stats) {
  SortStats local;
  if (stats == nullptr) stats = &local;
  NullTracer tracer;
  SortPrefixEntriesWithKernel(format, entries, n, kernel, stats, &tracer,
                              radix_stats);
}

}  // namespace alphasort
