#include "common/huge_pages.h"

#if defined(__linux__)
#include <fcntl.h>
#include <linux/types.h>
#include <sys/ioctl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <linux/fs.h>
#endif

namespace alphasort {

#if defined(__linux__) && !defined(PAGEMAP_SCAN)
// The PAGEMAP_SCAN ioctl (Linux 6.7+, include/uapi/linux/fs.h). Older
// installed headers lack it; the ABI is fixed, so mirror it here.
struct page_region {
  __u64 start;
  __u64 end;
  __u64 categories;
};

struct pm_scan_arg {
  __u64 size;
  __u64 flags;
  __u64 start;
  __u64 end;
  __u64 walk_end;
  __u64 vec;
  __u64 vec_len;
  __u64 max_pages;
  __u64 category_inverted;
  __u64 category_mask;
  __u64 category_anyof_mask;
  __u64 return_mask;
};

#define PAGEMAP_SCAN _IOWR('f', 16, struct pm_scan_arg)
#define PAGE_IS_HUGE (1 << 6)
#endif

namespace {

constexpr uintptr_t kBasePageBytes = 4096;

uintptr_t AlignDown(uintptr_t x, uintptr_t to) { return x & ~(to - 1); }
uintptr_t AlignUp(uintptr_t x, uintptr_t to) {
  return AlignDown(x + to - 1, to);
}

#if defined(__linux__)
// Sums the huge-backed bytes of the page-aligned range [start, end).
// Only huge-backed stretches come back, adjacent pages merged into one
// region each; a full vector means the walk stopped early at walk_end.
std::optional<uint64_t> ScanHugeBytes(int pagemap_fd, uintptr_t start,
                                      uintptr_t end) {
  page_region regions[32] = {};
  uint64_t huge = 0;
  while (start < end) {
    pm_scan_arg arg = {};
    arg.size = sizeof(arg);
    arg.start = start;
    arg.end = end;
    arg.vec = reinterpret_cast<uintptr_t>(regions);
    arg.vec_len = sizeof(regions) / sizeof(regions[0]);
    arg.category_mask = PAGE_IS_HUGE;
    arg.return_mask = PAGE_IS_HUGE;
    const int n = ::ioctl(pagemap_fd, PAGEMAP_SCAN, &arg);
    if (n < 0) return std::nullopt;
    for (int i = 0; i < n; ++i) huge += regions[i].end - regions[i].start;
    if (static_cast<uint64_t>(n) < arg.vec_len || arg.walk_end <= start) {
      break;
    }
    start = arg.walk_end;
  }
  return huge;
}
#endif

}  // namespace

AddressRange HugePageInterior(const void* p, size_t len) {
  const uintptr_t lo = reinterpret_cast<uintptr_t>(p);
  AddressRange r;
  r.begin = AlignUp(lo, kHugePageBytes);
  r.end = AlignDown(lo + len, kHugePageBytes);
  if (r.end <= r.begin) r.begin = r.end = 0;
  return r;
}

size_t AdviseHugePages(void* p, size_t len) {
  const AddressRange r = HugePageInterior(p, len);
  if (r.bytes() == 0) return 0;
#if defined(__linux__) && defined(MADV_HUGEPAGE)
  if (::madvise(reinterpret_cast<void*>(r.begin), r.bytes(),
                MADV_HUGEPAGE) == 0) {
    return r.bytes();
  }
#endif
  return 0;
}

std::optional<uint64_t> HugePageBytes(const void* p, size_t len) {
  if (len == 0) return 0;
#if defined(__linux__)
  const uintptr_t lo = reinterpret_cast<uintptr_t>(p);
  const int fd = ::open("/proc/self/pagemap", O_RDONLY | O_CLOEXEC);
  if (fd < 0) return std::nullopt;
  const std::optional<uint64_t> huge =
      ScanHugeBytes(fd, AlignDown(lo, kBasePageBytes),
                    AlignUp(lo + len, kBasePageBytes));
  ::close(fd);
  return huge;
#else
  (void)p;
  return std::nullopt;
#endif
}

}  // namespace alphasort
