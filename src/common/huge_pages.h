#ifndef ALPHASORT_COMMON_HUGE_PAGES_H_
#define ALPHASORT_COMMON_HUGE_PAGES_H_

#include <cstddef>
#include <cstdint>
#include <optional>

namespace alphasort {

// Transparent huge pages for the sort's record block. The paper (§4)
// calls the gather's random reads "terrible cache and TLB behavior", and
// §5 has the workers touch every page up front so faults do not
// serialize the sort. On 4 KiB pages a 200 MB block takes 51,200 faults
// to prefault and costs a DTLB miss on nearly every gathered record; on
// 2 MiB pages it takes ~100 of each.
//
// The advice covers only the 2 MiB-aligned interior of an ordinary
// allocation. The block stays a plain `new char[]`, so heap accounting
// sees exactly the bytes asked for, and its unaligned head and tail
// (under 2 MiB each) stay on 4 KiB pages. docs/perf.md has the numbers.

inline constexpr size_t kHugePageBytes = size_t{2} << 20;

// An address range [begin, end).
struct AddressRange {
  uintptr_t begin = 0;
  uintptr_t end = 0;

  size_t bytes() const { return static_cast<size_t>(end - begin); }
};

// The whole 2 MiB pages inside [p, p + len). Empty (begin == end) when
// the range spans no whole huge page.
AddressRange HugePageInterior(const void* p, size_t len);

// Asks the kernel to back the interior of [p, p + len) with transparent
// huge pages (madvise(MADV_HUGEPAGE)); call it before anything touches
// the block. Returns the bytes advised: 0 when the interior is empty,
// off Linux, or when the kernel refuses. A refusal is never an error —
// the block just stays on 4 KiB pages.
size_t AdviseHugePages(void* p, size_t len);

// Bytes of [p, p + len) that huge pages back right now, read from the
// page tables with the PAGEMAP_SCAN ioctl on /proc/self/pagemap (tens of
// microseconds for 200 MB). std::nullopt when the kernel cannot say:
// kernels before 6.7, no /proc, access denied, or off Linux. Never 0 to
// mean unknown.
std::optional<uint64_t> HugePageBytes(const void* p, size_t len);

}  // namespace alphasort

#endif  // ALPHASORT_COMMON_HUGE_PAGES_H_
