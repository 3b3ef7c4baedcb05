#include "obs/perf_counters.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <mutex>

#include "common/table.h"

#if defined(__linux__) && __has_include(<linux/perf_event.h>)
#define ALPHASORT_HAVE_PERF_EVENT 1
#include <linux/perf_event.h>
#include <sys/syscall.h>
#include <unistd.h>
#else
#define ALPHASORT_HAVE_PERF_EVENT 0
#endif

namespace alphasort {
namespace obs {

const char* PerfEventName(PerfEvent e) {
  switch (e) {
    case PerfEvent::kCycles: return "cycles";
    case PerfEvent::kInstructions: return "instructions";
    case PerfEvent::kCacheReferences: return "cache_references";
    case PerfEvent::kCacheMisses: return "cache_misses";
    case PerfEvent::kBranchMisses: return "branch_misses";
  }
  return "unknown";
}

namespace {

// Maps the wrapper's event enum to the kernel's generalized hardware
// event ids. The (type, config) pair is all the open hook sees, so tests
// can fake the syscall without linux headers.
struct EventSpec {
  uint32_t type;
  uint64_t config;
};

#if ALPHASORT_HAVE_PERF_EVENT
EventSpec SpecFor(PerfEvent e) {
  switch (e) {
    case PerfEvent::kCycles:
      return {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES};
    case PerfEvent::kInstructions:
      return {PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS};
    case PerfEvent::kCacheReferences:
      return {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_REFERENCES};
    case PerfEvent::kCacheMisses:
      return {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_MISSES};
    case PerfEvent::kBranchMisses:
      return {PERF_TYPE_HARDWARE, PERF_COUNT_HW_BRANCH_MISSES};
  }
  return {0, 0};
}

// The real syscall: a per-thread (pid=0), any-cpu (-1), user-space-only
// counter that starts enabled. TOTAL_TIME_ENABLED/RUNNING let readers
// scale counts when the PMU multiplexes.
int RealOpen(uint32_t type, uint64_t config) {
  perf_event_attr attr;
  memset(&attr, 0, sizeof(attr));
  attr.size = sizeof(attr);
  attr.type = type;
  attr.config = config;
  attr.disabled = 0;
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  attr.read_format =
      PERF_FORMAT_TOTAL_TIME_ENABLED | PERF_FORMAT_TOTAL_TIME_RUNNING;
  const long fd =
      syscall(SYS_perf_event_open, &attr, /*pid=*/0, /*cpu=*/-1,
              /*group_fd=*/-1, /*flags=*/0UL);
  if (fd < 0) return -errno;
  return static_cast<int>(fd);
}
#else
int RealOpen(uint32_t, uint64_t) { return -ENOSYS; }
#endif

// "EPERM" etc. plus the likely fix, for the report's
// "unavailable_reason" field.
std::string DescribeOpenError(int err) {
  switch (err) {
    case EPERM:
    case EACCES:
      return "perf_event_open denied (EPERM/EACCES): lower "
             "/proc/sys/kernel/perf_event_paranoid or grant "
             "CAP_PERFMON; containers often filter the syscall";
    case ENOSYS:
      return "perf_event_open unsupported by this kernel (ENOSYS)";
    case ENOENT:
      return "hardware event not supported on this CPU/PMU (ENOENT)";
    case ENODEV:
      return "no PMU available, e.g. a VM without PMU virtualization "
             "(ENODEV)";
    default:
      return StrFormat("perf_event_open failed: %s (errno %d)",
                       strerror(err), err);
  }
}

}  // namespace

PerfCounterGroup::PerfCounterGroup(OpenFn open_fn) {
  fds_.fill(-1);
  if (open_fn == nullptr) open_fn = &RealOpen;
  int first_error = 0;
  for (int i = 0; i < kNumPerfEvents; ++i) {
#if ALPHASORT_HAVE_PERF_EVENT
    const EventSpec spec = SpecFor(static_cast<PerfEvent>(i));
#else
    const EventSpec spec = {0, static_cast<uint64_t>(i)};
#endif
    const int fd = open_fn(spec.type, spec.config);
    if (fd >= 0) {
      fds_[i] = fd;
      ++available_count_;
    } else if (first_error == 0) {
      first_error = -fd;
    }
  }
  if (available_count_ == 0) {
    unavailable_reason_ = DescribeOpenError(
        first_error == 0 ? ENOSYS : first_error);
  }
}

PerfCounterGroup::~PerfCounterGroup() {
#if ALPHASORT_HAVE_PERF_EVENT
  for (const int fd : fds_) {
    if (fd >= 0) close(fd);
  }
#endif
}

PerfReadingSet PerfCounterGroup::Read() const {
  PerfReadingSet out{};
#if ALPHASORT_HAVE_PERF_EVENT
  for (int i = 0; i < kNumPerfEvents; ++i) {
    if (fds_[i] < 0) continue;
    // With TOTAL_TIME_ENABLED|TOTAL_TIME_RUNNING the kernel returns
    // three u64s: value, time_enabled, time_running.
    uint64_t buf[3] = {0, 0, 0};
    const ssize_t got = read(fds_[i], buf, sizeof(buf));
    if (got == static_cast<ssize_t>(sizeof(buf))) {
      out[i].value = buf[0];
      out[i].time_enabled = buf[1];
      out[i].time_running = buf[2];
    }
  }
#endif
  return out;
}

void PerfDelta::Merge(const PerfDelta& o) {
  samples += o.samples;
  cycles += o.cycles;
  instructions += o.instructions;
  cache_references += o.cache_references;
  cache_misses += o.cache_misses;
  branch_misses += o.branch_misses;
  if (o.available) {
    running_ratio =
        available ? std::min(running_ratio, o.running_ratio)
                  : o.running_ratio;
    available = true;
    unavailable_reason.clear();
  } else if (!available && unavailable_reason.empty()) {
    unavailable_reason = o.unavailable_reason;
  }
}

double PerfDelta::Ipc() const {
  return cycles > 0 ? instructions / cycles : 0;
}

double PerfDelta::CacheMissRate() const {
  return cache_references > 0 ? cache_misses / cache_references : 0;
}

PerfDelta ComputeDelta(const PerfCounterGroup& group,
                       const PerfReadingSet& before,
                       const PerfReadingSet& after) {
  PerfDelta delta;
  delta.samples = 1;
  if (!group.available()) {
    delta.unavailable_reason = group.unavailable_reason();
    return delta;
  }
  delta.available = true;
  for (int i = 0; i < kNumPerfEvents; ++i) {
    if (!group.event_available(static_cast<PerfEvent>(i))) continue;
    const uint64_t dv = after[i].value - before[i].value;
    const uint64_t de = after[i].time_enabled - before[i].time_enabled;
    const uint64_t dr = after[i].time_running - before[i].time_running;
    // Multiplex scaling: the count observed while running, extrapolated
    // to the full enabled window. dr == 0 with de > 0 means the event
    // never got a PMU slot in this region — report 0, ratio 0.
    double scaled = static_cast<double>(dv);
    double ratio = 1.0;
    if (de > 0) {
      ratio = static_cast<double>(dr) / static_cast<double>(de);
      scaled = dr > 0 ? static_cast<double>(dv) *
                            (static_cast<double>(de) /
                             static_cast<double>(dr))
                      : 0.0;
    }
    delta.running_ratio = std::min(delta.running_ratio, ratio);
    switch (static_cast<PerfEvent>(i)) {
      case PerfEvent::kCycles: delta.cycles = scaled; break;
      case PerfEvent::kInstructions: delta.instructions = scaled; break;
      case PerfEvent::kCacheReferences:
        delta.cache_references = scaled;
        break;
      case PerfEvent::kCacheMisses: delta.cache_misses = scaled; break;
      case PerfEvent::kBranchMisses: delta.branch_misses = scaled; break;
    }
  }
  return delta;
}

void PerfAccumulator::Add(const char* region, const PerfDelta& delta) {
  std::lock_guard<std::mutex> lock(mu_);
  regions_[region].Merge(delta);
}

std::map<std::string, PerfDelta> PerfAccumulator::Regions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return regions_;
}

PerfCounterGroup* ThreadPerfGroup() {
  static thread_local PerfCounterGroup group;
  return &group;
}

Stage::Stage(PerfAccumulator* sink, const char* name, const char* category)
    : span_(name, category),
      sink_(sink),
      name_(name),
      before_(ThreadPerfGroup()->Read()) {}

Stage::~Stage() {
  PerfCounterGroup* group = ThreadPerfGroup();
  sink_->Add(name_, ComputeDelta(*group, before_, group->Read()));
}

bool PerfReport::AnyAvailable() const {
  for (const auto& [name, delta] : regions) {
    if (delta.available) return true;
  }
  return false;
}

std::string PerfReport::UnavailableReason() const {
  for (const auto& [name, delta] : regions) {
    if (!delta.unavailable_reason.empty()) return delta.unavailable_reason;
  }
  return "";
}

std::string PerfReport::ToString() const {
  if (!attempted) return "";
  if (regions.empty()) {
    return "hw counters: attempted, no instrumented regions ran\n";
  }
  if (!AnyAvailable()) {
    const std::string reason = UnavailableReason();
    return StrFormat("hw counters: unavailable (%s)\n",
                     reason.empty() ? "unknown" : reason.c_str());
  }
  std::string out;
  for (const auto& [name, d] : regions) {
    if (!d.available) continue;
    out += StrFormat(
        "hw %-16s cycles %.3g  instr %.3g  ipc %.2f  cache-refs %.3g  "
        "cache-miss %.3g (%.1f%%)  branch-miss %.3g  (%llu samples, "
        "%.0f%% counted)\n",
        name.c_str(), d.cycles, d.instructions, d.Ipc(),
        d.cache_references, d.cache_misses, 100 * d.CacheMissRate(),
        d.branch_misses, static_cast<unsigned long long>(d.samples),
        100 * d.running_ratio);
  }
  return out;
}

}  // namespace obs
}  // namespace alphasort
