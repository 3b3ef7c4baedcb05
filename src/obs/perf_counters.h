#ifndef ALPHASORT_OBS_PERF_COUNTERS_H_
#define ALPHASORT_OBS_PERF_COUNTERS_H_

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "obs/trace.h"

namespace alphasort {
namespace obs {

// Hardware performance counters per scoped region, via perf_event_open.
//
// The paper's Figure 4 argument is stated in hardware-counter terms:
// QuickSort beats replacement-selection *because of D-cache misses per
// compare*, measured with the Alpha's on-chip counters. This wrapper
// gives the pipeline the same instrument: cycles, instructions,
// cache-references/misses, and branch-misses sampled around scoped
// regions (per phase on the root thread, per QuickSort/gather chore on
// the workers) and aggregated by region name.
//
// Counting degrades gracefully everywhere it can be denied: an
// unprivileged container (perf_event_paranoid, seccomp) yields EPERM/
// EACCES, a kernel without the syscall yields ENOSYS, a VM without PMU
// virtualization yields ENOENT per event. In every such case the group
// reports available() == false with a human-readable reason, regions
// still count their samples, and the sort report marks the counters
// "available": false instead of erroring — observability must never be
// the thing that breaks the sort.
//
// Usage: one obs::Stage per pipeline stage, charged to the job's sink.
//
//   obs::PerfAccumulator sink;  // one per job (SortContext::perf)
//   {
//     obs::Stage stage(&sink, "quicksort.run", "cpu");
//     ... hot work ...
//   }
//   std::map<std::string, obs::PerfDelta> regions = sink.Regions();

// The hardware events this wrapper counts, in fixed order.
enum class PerfEvent : int {
  kCycles = 0,
  kInstructions,
  kCacheReferences,
  kCacheMisses,
  kBranchMisses,
};
inline constexpr int kNumPerfEvents = 5;

// Stable lowercase name ("cycles", "cache_misses", ...) used as the JSON
// key in reports.
const char* PerfEventName(PerfEvent e);

// Raw readout of one event fd: the kernel's running count plus the
// enabled/running times that scale it when the PMU was multiplexed.
struct PerfReading {
  uint64_t value = 0;
  uint64_t time_enabled = 0;
  uint64_t time_running = 0;
};
using PerfReadingSet = std::array<PerfReading, kNumPerfEvents>;

// One thread's set of per-thread counters (pid=0, cpu=-1, user-space
// only). Each event is opened as its own fd so partial availability —
// e.g. a PMU exposing cycles but not cache events — degrades per event
// rather than all-or-nothing.
class PerfCounterGroup {
 public:
  // Open hook: returns an fd >= 0 or -errno. The default (nullptr) is
  // the real perf_event_open syscall; tests inject failures (EPERM,
  // ENOSYS) to pin the fallback path without needing a locked-down
  // kernel.
  using OpenFn = int (*)(uint32_t type, uint64_t config);

  explicit PerfCounterGroup(OpenFn open_fn = nullptr);
  ~PerfCounterGroup();

  PerfCounterGroup(const PerfCounterGroup&) = delete;
  PerfCounterGroup& operator=(const PerfCounterGroup&) = delete;

  // True when at least one event opened.
  bool available() const { return available_count_ > 0; }
  int available_events() const { return available_count_; }
  bool event_available(PerfEvent e) const {
    return fds_[static_cast<int>(e)] >= 0;
  }

  // Why nothing opened (empty when available()). The first error wins;
  // EPERM points at /proc/sys/kernel/perf_event_paranoid.
  const std::string& unavailable_reason() const {
    return unavailable_reason_;
  }

  // Reads every available event; unavailable slots stay zeroed.
  PerfReadingSet Read() const;

 private:
  std::array<int, kNumPerfEvents> fds_;
  int available_count_ = 0;
  std::string unavailable_reason_;
};

// Multiplex-scaled counter deltas over one region (or many merged
// samples of it). Values are scaled by time_enabled/time_running, the
// standard correction when the kernel rotates more events than the PMU
// has slots.
struct PerfDelta {
  bool available = false;
  std::string unavailable_reason;  // set when nothing was available
  uint64_t samples = 0;            // scoped regions folded in

  double cycles = 0;
  double instructions = 0;
  double cache_references = 0;
  double cache_misses = 0;
  double branch_misses = 0;

  // Fraction of enabled time the events were actually counting (min
  // across events); 1.0 = never multiplexed, 0 = never scheduled.
  double running_ratio = 1.0;

  void Merge(const PerfDelta& o);

  // Instructions per cycle; 0 when cycles were not counted.
  double Ipc() const;
  // cache_misses / cache_references — Figure 4's y-axis; 0 when
  // references were not counted.
  double CacheMissRate() const;
};

// Scaled difference of two readings taken on `group`'s thread. When the
// group has no available events the delta carries available=false and
// the group's reason.
PerfDelta ComputeDelta(const PerfCounterGroup& group,
                       const PerfReadingSet& before,
                       const PerfReadingSet& after);

// One job's hardware-counter sink: region deltas from every thread the
// job's stages ran on, merged by stage name. Thread-safe; the owner must
// outlive every Stage charged to it.
class PerfAccumulator {
 public:
  PerfAccumulator() = default;

  PerfAccumulator(const PerfAccumulator&) = delete;
  PerfAccumulator& operator=(const PerfAccumulator&) = delete;

  void Add(const char* region, const PerfDelta& delta);

  std::map<std::string, PerfDelta> Regions() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, PerfDelta> regions_;
};

// The one probe per pipeline stage: a trace span and a hardware-counter
// sample of the calling thread under one name, so the trace, the report's
// hardware_counters.regions and the docs share one vocabulary. The sample
// is charged to `sink` at scope exit. `name` and `category` must be
// string literals (the span stores the pointer). Stages may overlap and
// nest freely; each is an independent label, so e.g. "sort.merge_phase"
// on the root contains the same cycles the per-batch "merge.batch"
// stages count.
class Stage {
 public:
  Stage(PerfAccumulator* sink, const char* name,
        const char* category = "sort");
  ~Stage();

  Stage(const Stage&) = delete;
  Stage& operator=(const Stage&) = delete;

 private:
  TraceSpan span_;
  PerfAccumulator* const sink_;
  const char* const name_;
  const PerfReadingSet before_;
};

// The calling thread's lazily-opened counter group (one set of fds per
// thread, closed at thread exit). Exposed for tests and ad-hoc probes.
PerfCounterGroup* ThreadPerfGroup();

// Availability/per-region summary carried in SortMetrics and serialized
// by the sort report.
struct PerfReport {
  // True when the run collected into a sink (every pipeline sort does).
  // regions empty + attempted means no instrumented code ran.
  bool attempted = false;
  std::map<std::string, PerfDelta> regions;

  bool AnyAvailable() const;
  // First unavailable reason across regions (empty when none recorded
  // one).
  std::string UnavailableReason() const;

  // Compact human dump: one line per region, or the unavailability
  // reason.
  std::string ToString() const;
};

}  // namespace obs
}  // namespace alphasort

#endif  // ALPHASORT_OBS_PERF_COUNTERS_H_
