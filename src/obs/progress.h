#ifndef ALPHASORT_OBS_PROGRESS_H_
#define ALPHASORT_OBS_PROGRESS_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

namespace alphasort {
namespace obs {

// Live per-job progress for the sort pipeline.
//
// The pipeline publishes its byte flow (read, sorted, spilled, merged)
// into a JobProgressTracker as it crosses each IO-buffer quantum; a
// snapshot turns that flow into phase / fraction / rate / ETA. The
// fraction follows the paper's overlap model (§7): QuickSort chores ride
// entirely under the read stream, so sorted bytes are tracked for
// display but contribute no work of their own — the job's work is the
// bytes it must move through storage:
//
//   one pass:  work_total = 2 x input  (read it, write it)
//   two pass:  work_total = 3 x input  (read, spill, merge-write; cascade
//              merge levels re-spill on top, so the fraction is clamped
//              below 1 until the job actually finishes)
//
// ETA extrapolates the observed work rate: remaining work / (work done
// per elapsed second). All updates are relaxed atomics — the pipeline
// touches the tracker once per buffer, never per record.

enum class SortPhase : int {
  kQueued = 0,
  kStartup = 1,
  kRead = 2,     // read + overlapped QuickSort (one-pass) or spill pass
  kLastRun = 3,  // the §7 non-overlapped tail sort
  kMerge = 4,    // merge + gather + write
  kClose = 5,
  kDone = 6,
  kFailed = 7,
};

const char* SortPhaseName(SortPhase phase);

// Point-in-time copy handed to callers (SortJob::Progress(), the
// exposition renderer, the flight recorder).
struct JobProgress {
  uint64_t job_id = 0;
  uint64_t trace_id = 0;  // distributed trace id, 0 = none
  SortPhase phase = SortPhase::kQueued;
  // False for jobs whose input size is not known up front (streamed
  // ingest): bytes_total/work_total are then running lower-bound
  // estimates scaled from bytes_read, and fraction/permille are clamped
  // below done until the real plan lands at end of input.
  bool total_known = true;
  uint64_t bytes_total = 0;  // input size (or the estimate, see above)
  uint64_t bytes_read = 0;
  uint64_t bytes_sorted = 0;
  uint64_t bytes_spilled = 0;
  uint64_t bytes_merged = 0;
  uint64_t work_done = 0;
  uint64_t work_total = 0;
  double fraction = 0;     // [0, 1]; 1 only once the job is done
  double elapsed_s = 0;
  double bytes_per_s = 0;  // observed work rate
  double eta_s = 0;        // remaining work / rate; 0 when unknown/done
};

// One tracker per job, embedded in the JobCore and fed by the pipeline
// through SortContext. Thread-safe: phase and byte counters are
// independent atomics, so concurrent QuickSort chores and the root IO
// loop publish without coordination.
class JobProgressTracker {
 public:
  // Resets and stamps the start time. `trace_id` (0 = none) attributes
  // the job to a distributed trace: it rides on snapshots, so the
  // exposition's job_info series and the flight recorder carry it, and
  // ProgressRegistry's kept-job list joins a finished job back to its
  // trace.
  void Start(uint64_t job_id, uint64_t trace_id = 0);

  // Called once the planner has sized the job (input bytes + pass count).
  void SetPlan(uint64_t bytes_total, int passes);

  // For jobs whose input size is unknown up front (streamed ingest): no
  // byte total, but snapshots still move — the work total is estimated
  // as if the bytes read so far were the whole input, scaled by
  // `passes_hint`'s work factor, so the fraction/permille hold a steady
  // ingest plateau and rise through the later phases. The adaptive
  // pipeline calls SetPlan with the real totals at end of input.
  void SetPlanUnknown(int passes_hint);

  void SetPhase(SortPhase phase);

  void AddRead(uint64_t bytes);
  void AddSorted(uint64_t bytes);
  void AddSpilled(uint64_t bytes);
  void AddMerged(uint64_t bytes);

  JobProgress Snapshot() const;

 private:
  std::atomic<uint64_t> job_id_{0};
  std::atomic<uint64_t> trace_id_{0};
  std::atomic<int> phase_{static_cast<int>(SortPhase::kQueued)};
  std::atomic<uint64_t> bytes_total_{0};
  std::atomic<uint64_t> work_total_{0};
  // False between SetPlanUnknown and the real SetPlan: totals are then
  // derived from bytes_read at snapshot time using work_factor_.
  std::atomic<bool> total_known_{true};
  std::atomic<uint64_t> work_factor_{2};
  std::atomic<uint64_t> read_{0};
  std::atomic<uint64_t> sorted_{0};
  std::atomic<uint64_t> spilled_{0};
  std::atomic<uint64_t> merged_{0};
  // Steady-clock nanoseconds; 0 = not started. Atomic because
  // Snapshot() may poll from a connection thread while the service
  // thread is still inside Start() for a just-dequeued job.
  std::atomic<uint64_t> start_ns_{0};
};

// The one publisher of job progress, walked by the exposition renderer
// and the flight recorder. ExecuteJob registers its tracker for the
// duration of the run. When a tracker unregisters, its final snapshot
// joins a kept-job list of the last kKeptJobs jobs to end (failed ones
// included), so a finished job stays visible to a scrape or a
// post-mortem while the registry's size stays fixed however many jobs
// the process serves.
class ProgressRegistry {
 public:
  static constexpr size_t kKeptJobs = 64;

  static ProgressRegistry* Global();

  void Register(const JobProgressTracker* tracker);
  // Drops `tracker` from the live list and keeps its final snapshot
  // (job ids are unique in a process, so a kept job is never live).
  void Unregister(const JobProgressTracker* tracker);

  // Snapshots every live tracker, sorted by job id.
  std::vector<JobProgress> Snapshot() const;

  // What the exposition and the flight record render: every live job
  // and every kept job, sorted by job id.
  std::vector<JobProgress> SnapshotWithFinished() const;

 private:
  mutable std::mutex mu_;
  std::vector<const JobProgressTracker*> trackers_;
  std::deque<JobProgress> finished_;  // oldest first, <= kKeptJobs
};

// RAII registration for ExecuteJob's scope.
class ScopedProgressRegistration {
 public:
  explicit ScopedProgressRegistration(const JobProgressTracker* tracker)
      : tracker_(tracker) {
    ProgressRegistry::Global()->Register(tracker_);
  }
  ~ScopedProgressRegistration() {
    ProgressRegistry::Global()->Unregister(tracker_);
  }

  ScopedProgressRegistration(const ScopedProgressRegistration&) = delete;
  ScopedProgressRegistration& operator=(const ScopedProgressRegistration&) =
      delete;

 private:
  const JobProgressTracker* const tracker_;
};

}  // namespace obs
}  // namespace alphasort

#endif  // ALPHASORT_OBS_PROGRESS_H_
