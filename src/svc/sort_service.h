#ifndef ALPHASORT_SVC_SORT_SERVICE_H_
#define ALPHASORT_SVC_SORT_SERVICE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/sorter.h"

namespace alphasort {
namespace svc {

// SortService: concurrent sort jobs with shared resource arbitration.
//
// A plain Sorter starts every job immediately — fine when the caller
// controls concurrency, pathological when N clients each bring their own
// memory_budget to one machine. SortService is the arbitration layer on
// top (docs/service.md):
//
//  * Global memory budget. A job is admitted only when its effective
//    memory_budget fits in what remains of `memory_budget`; a job asking
//    for more than the whole service budget is down-negotiated — its
//    budget is clamped to the service's, which pushes the §6 planner
//    into a two-pass plan instead of rejecting the job.
//  * Shared pools. All jobs run over one ChorePool and one AsyncIO
//    scheduler, like concurrent sorts sharing one machine's CPUs and
//    disks.
//  * Bounded admission queue. Submit() returns Status::Unavailable once
//    `max_queued` jobs are waiting — backpressure, not unbounded memory.
//  * Deadlines and cancellation. A job's time_limit_s clock starts at
//    Submit (queue wait counts); Cancel() stops a queued job without it
//    ever touching a file and a running job at its next run/merge-batch
//    boundary.
//  * Scratch namespacing. Each job spills under
//    <scratch_path>/job-<id>/, so concurrent two-pass jobs never sweep
//    each other's runs.
//
// Admission is FIFO with head-of-line blocking: the oldest queued job is
// admitted as soon as its ticket fits, and younger jobs never jump over
// it (no starvation of big jobs). Because every ticket is clamped to the
// service budget, the head job always fits eventually.
//
// Submit() hands back the same SortJob handle Sorter::Start returns:
// Wait()/TryWait() for the SortResult, Cancel() to give up, state() to
// observe Queued -> Running -> Done.
struct SortServiceOptions {
  // Total record memory the service lends out to running jobs; the sum
  // of admitted tickets never exceeds this.
  uint64_t memory_budget = 256ull << 20;

  // Jobs running concurrently (runner threads). Queued jobs beyond this
  // wait even when budget remains.
  int max_running = 2;

  // Jobs waiting for admission before Submit() returns Unavailable.
  int max_queued = 16;

  // Shared ChorePool workers and AsyncIO threads, as in
  // Sorter::Resources. Per-job num_workers/io_threads in SortOptions are
  // ignored under a service — the pools are shared. Sizes that fail
  // ValidatePoolSizes (io_threads < 1, num_workers < 0) are not clamped:
  // every Submit() returns their InvalidArgument.
  int num_workers = 0;
  int io_threads = 4;
  bool use_affinity = false;
};

// Point-in-time service state, also exported as svc.* registry gauges
// and counters (docs/observability.md).
struct SortServiceStats {
  uint64_t submitted = 0;         // accepted by Submit()
  uint64_t rejected = 0;          // Unavailable: queue full or shut down
  uint64_t completed = 0;         // ran to a terminal status
  uint64_t cancelled_queued = 0;  // reaped before admission
  uint64_t down_negotiated = 0;   // budget clamped at Submit()
  int queued = 0;
  int running = 0;
  uint64_t admitted_bytes = 0;       // tickets currently lent out
  uint64_t peak_admitted_bytes = 0;  // high-water mark; never > budget
};

class SortService {
 public:
  // `env` must outlive the service and every job submitted to it.
  explicit SortService(Env* env,
                       const SortServiceOptions& options = SortServiceOptions());

  // Drains: stops admissions and waits for every queued and running job.
  ~SortService();

  SortService(const SortService&) = delete;
  SortService& operator=(const SortService&) = delete;

  // Validates and enqueues one sort job. Errors:
  //  * InvalidArgument — the service's pool sizes fail ValidatePoolSizes,
  //    or options fail SortOptions::Validate(), either as given or after
  //    down-negotiation (io_chunk_bytes too large for the service
  //    budget).
  //  * Unavailable — max_queued jobs already waiting, or Shutdown() has
  //    been called. The caller should back off and retry.
  // On success the returned job is queued; its time_limit_s (if any)
  // started counting now.
  Result<SortJob> Submit(const SortOptions& options);

  // Stops accepting new jobs and wakes the runners; queued jobs still
  // run. Idempotent; the destructor calls it.
  void Shutdown();

  SortServiceStats stats() const;

  Env* env() const { return env_; }

 private:
  using JobCorePtr = std::shared_ptr<core_internal::JobCore>;

  void RunnerLoop();
  // Finishes queued jobs whose control already reports cancel/deadline,
  // without charging the budget. Caller holds mu_.
  void ReapQueuedLocked();
  bool HeadAdmittableLocked() const;
  // Runs an admitted job and returns its outcome; the runner publishes
  // it (JobCore::Finish) only after returning the job's ticket.
  Status RunAdmitted(core_internal::JobCore* core);

  Env* const env_;
  const SortServiceOptions options_;
  // ValidatePoolSizes of the options; no AsyncIO is built when it fails.
  const Status pool_status_;
  std::optional<AsyncIO> aio_;
  ChorePool pool_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool shutdown_ = false;
  std::deque<JobCorePtr> queue_;
  SortServiceStats stats_;
  std::vector<std::thread> runners_;
};

}  // namespace svc
}  // namespace alphasort

#endif  // ALPHASORT_SVC_SORT_SERVICE_H_
