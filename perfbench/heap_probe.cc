// Replaces the global operator new/delete for the benchmark binary so it
// can report how much heap a sort holds at its peak (probes.h, namespace
// heap). Every C++ allocation in the process, the library's included,
// comes through here; the benchmark's own file storage (ram_env.cc) uses
// malloc directly, so the count is the sort's memory, not its files'.
//
// Sizes are malloc_usable_size(), taken at allocation and again at free,
// so sized and unsized deletes balance exactly.

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "probes.h"

namespace {

std::atomic<int64_t> g_live{0};
std::atomic<int64_t> g_peak{0};

void* Counted(void* p) {
  if (p == nullptr) return nullptr;
  const int64_t n = int64_t(malloc_usable_size(p));
  const int64_t live = g_live.fetch_add(n, std::memory_order_relaxed) + n;
  int64_t peak = g_peak.load(std::memory_order_relaxed);
  while (live > peak && !g_peak.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
  return p;
}

void Release(void* p) noexcept {
  if (p == nullptr) return;
  g_live.fetch_sub(int64_t(malloc_usable_size(p)), std::memory_order_relaxed);
  std::free(p);
}

void* TryAllocate(size_t n) noexcept {
  return Counted(std::malloc(n == 0 ? 1 : n));
}

void* TryAllocate(size_t n, std::align_val_t al) noexcept {
  void* p = nullptr;
  const size_t align = std::max(size_t(al), sizeof(void*));
  if (posix_memalign(&p, align, n == 0 ? 1 : n) != 0) return nullptr;
  return Counted(p);
}

template <typename... A>
void* Allocate(A... a) {
  void* p = TryAllocate(a...);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

namespace alphasort {
namespace perfbench {
namespace heap {

int64_t LiveBytes() { return g_live.load(std::memory_order_relaxed); }

int64_t PeakBytes() { return g_peak.load(std::memory_order_relaxed); }

int64_t ResetPeak() {
  const int64_t live = LiveBytes();
  g_peak.store(live, std::memory_order_relaxed);
  return live;
}

}  // namespace heap
}  // namespace perfbench
}  // namespace alphasort

void* operator new(size_t n) { return Allocate(n); }
void* operator new[](size_t n) { return Allocate(n); }
void* operator new(size_t n, std::align_val_t al) { return Allocate(n, al); }
void* operator new[](size_t n, std::align_val_t al) {
  return Allocate(n, al);
}
void* operator new(size_t n, const std::nothrow_t&) noexcept {
  return TryAllocate(n);
}
void* operator new[](size_t n, const std::nothrow_t&) noexcept {
  return TryAllocate(n);
}
void* operator new(size_t n, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  return TryAllocate(n, al);
}
void* operator new[](size_t n, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
  return TryAllocate(n, al);
}

void operator delete(void* p) noexcept { Release(p); }
void operator delete[](void* p) noexcept { Release(p); }
void operator delete(void* p, size_t) noexcept { Release(p); }
void operator delete[](void* p, size_t) noexcept { Release(p); }
void operator delete(void* p, std::align_val_t) noexcept { Release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { Release(p); }
void operator delete(void* p, size_t, std::align_val_t) noexcept {
  Release(p);
}
void operator delete[](void* p, size_t, std::align_val_t) noexcept {
  Release(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { Release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  Release(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  Release(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  Release(p);
}
