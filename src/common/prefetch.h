#ifndef ALPHASORT_COMMON_PREFETCH_H_
#define ALPHASORT_COMMON_PREFETCH_H_

#include <cstddef>

namespace alphasort {

// Software prefetch for the pipeline's three memory-bound loops (entry
// build, tournament leaf replacement, gather). The paper's §4 analysis is
// all about hiding main-memory latency behind useful work; on modern
// cores the same spots stall on demand misses that an explicit prefetch
// issued one batch ahead turns into hits. Hints are advisory: a bad
// address is ignored by the hardware, so callers may prefetch one element
// past a boundary without guarding.
#if defined(__GNUC__) || defined(__clang__)
// Read prefetch into all cache levels (locality 3: the data is consumed
// within the next few iterations).
#define ALPHASORT_PREFETCH_READ(addr) __builtin_prefetch((addr), 0, 3)
// Write prefetch: the line will be fully overwritten (gather output).
#define ALPHASORT_PREFETCH_WRITE(addr) __builtin_prefetch((addr), 1, 3)
#else
#define ALPHASORT_PREFETCH_READ(addr) ((void)(addr))
#define ALPHASORT_PREFETCH_WRITE(addr) ((void)(addr))
#endif

// How many elements ahead the memory-bound loops prefetch by default.
// Far enough that the line arrives before the loop reaches it, near
// enough that it is still resident; 8 records ≈ 800 B ≈ a DRAM access
// worth of loop iterations for Datamation-sized records. The pipeline
// always uses it; the kernels take the distance as an argument so the
// benches can pass 0, which disables the hints entirely.
inline constexpr size_t kDefaultPrefetchDistance = 8;

}  // namespace alphasort

#endif  // ALPHASORT_COMMON_PREFETCH_H_
