#ifndef ALPHASORT_CORE_SORTER_H_
#define ALPHASORT_CORE_SORTER_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "core/chores.h"
#include "core/options.h"
#include "core/pipeline_internal.h"
#include "core/sort_control.h"
#include "io/async_io.h"
#include "io/env.h"
#include "obs/progress.h"
#include "obs/report.h"
#include "obs/sort_metrics.h"

namespace alphasort {

namespace svc {
class SortService;  // src/svc/sort_service.h; befriended below
}  // namespace svc

// The instance-based public sort API.
//
// A Sorter owns the process-wide resources the paper's root/worker model
// shares — one AsyncIO scheduler and one ChorePool — and runs each
// Start()ed sort as a *job* against them. The returned SortJob is a
// cheap shared handle: Wait() for the result, Cancel() to stop the sort
// at its next run/merge-batch boundary, state() to observe progress.
//
//   Sorter sorter(GetPosixEnv());
//   SortJob job = sorter.Start(options);
//   const SortResult& r = job.Wait();
//   if (!r.status.ok()) ...
//
// The historical one-shot entry point is a thin wrapper over this API:
// AlphaSort::Run(env, opts, &metrics) constructs a transient Sorter,
// Start()s the one job, and Wait()s.
//
// A Sorter starts every job immediately on its own thread — it shares
// resources but does not arbitrate them. For admission control (global
// memory budget, bounded queue, backpressure) stack a svc::SortService
// on top: it returns the same SortJob handles.

// The complete outcome of one sort job.
struct SortResult {
  Status status;
  SortMetrics metrics;
  // The versioned machine-readable report for this job (tool "sorter"),
  // ready for SortReport::ToJson()/ToText().
  obs::SortReport report;
};

// Observable lifecycle of a job. Queued covers both "not yet started"
// (Sorter: thread not yet scheduled; SortService: waiting for admission)
// states; Done covers every terminal outcome including cancellation —
// inspect SortResult::status to distinguish.
enum class SortJobState { kQueued, kRunning, kDone };

namespace core_internal {

// Shared state behind a SortJob handle. Owned jointly by the handles and
// the executor (Sorter or SortService) via shared_ptr.
struct JobCore {
  uint64_t id = 0;
  SortOptions options;  // effective options the job runs with
  SortControl control;

  // Custom pass body (null = the planner's choice). The legacy entry
  // points (VmsSort, HypercubeSort) route through here so the whole
  // harness — validation, env wrapping, observability — is shared.
  PipelineBody body;

  // Admission ticket a SortService charged against its global memory
  // budget; 0 for plain Sorter jobs. Informational after admission.
  uint64_t admitted_bytes = 0;
  // True when a SortService shrank the requested memory_budget to fit
  // its global budget (down-negotiation into a two-pass plan).
  bool down_negotiated = false;

  // Invoked (without mu held) on Cancel, so a queueing executor can wake
  // its scheduler and reap the job without waiting for a runner tick.
  std::function<void()> on_cancel;

  // Live progress, fed by the pipeline and snapshotted by
  // SortJob::Progress(). ExecuteJob registers it with
  // obs::ProgressRegistry, the exposition's and the flight recorder's
  // one source of job progress, which keeps its final state once the
  // job ends.
  obs::JobProgressTracker progress;

  mutable std::mutex mu;
  std::condition_variable cv;
  SortJobState state = SortJobState::kQueued;
  SortResult result;
  // SortJob::OnDone callbacks still waiting for Finish (guarded by mu).
  std::vector<std::function<void()>> on_done;

  // Publishes the result, wakes waiters, then runs the on_done callbacks
  // without mu held.
  void Finish(Status status);
};

// A job id no other job in this process holds: every Sorter and
// SortService draws from the one counter, which starts at 1.
uint64_t NextJobId();

// Runs `job` on the calling thread over the shared resources, filling
// job->result (metrics + report), and returns its outcome without
// publishing it. The executor settles its own bookkeeping first (a
// service returns the job's ticket), then calls job->Finish(outcome), so
// a waiter never wakes to stale executor state. Used by Sorter's per-job
// threads and SortService's runner threads.
Status ExecuteJob(Env* env, JobCore* job, AsyncIO* aio, ChorePool* pool);

// Runs one job on a transient Sorter whose pools are sized from
// `options` (num_workers, io_threads, use_affinity), waits for it, and
// copies its metrics to `*metrics` when non-null. `body` null = the
// planner's pass structure. The one-shot entry points (AlphaSort::Run,
// VmsSort::Run, HypercubeSort::Run, SortWithSchema) are this call.
Status RunTransientJob(Env* env, const SortOptions& options,
                       PipelineBody body, SortMetrics* metrics);

}  // namespace core_internal

// Shared handle to one sort job. Copyable and cheap; all copies refer
// to the same job. A default-constructed handle is empty (valid() is
// false) and must not be waited on.
class SortJob {
 public:
  SortJob() = default;

  bool valid() const { return core_ != nullptr; }
  uint64_t id() const { return core_->id; }

  SortJobState state() const;

  // Requests cooperative cancellation: a queued job finishes without
  // running, a running job stops at its next run/merge-batch boundary
  // (Status::Aborted either way, scratch swept). Safe from any thread;
  // a no-op once the job is done.
  void Cancel();

  // Blocks until the job is done and returns its result. The reference
  // stays valid for the life of the job (any handle keeps it alive).
  const SortResult& Wait();

  // Non-blocking: true with `*out` filled (if non-null) when the job is
  // done, false while it is still queued or running.
  bool TryWait(SortResult* out = nullptr);

  // Runs `fn` once the job is done: on the thread that finishes it, or
  // right here if it already is. `fn` must not block, and it may run
  // after the caller has moved on, so it should own what it touches.
  // Lets a caller that multiplexes the job with other events (a
  // connection also serving its socket) wake on completion instead of
  // polling TryWait.
  void OnDone(std::function<void()> fn);

  // Point-in-time progress: phase, completion fraction, observed rate,
  // and ETA (obs/progress.h documents the overlap-model accounting).
  // Lock-free; safe to poll from any thread at any cadence.
  obs::JobProgress Progress() const { return core_->progress.Snapshot(); }

  // True when a SortService shrank this job's memory budget to fit the
  // service-wide budget (always false for plain Sorter jobs).
  bool down_negotiated() const { return core_->down_negotiated; }

 private:
  friend class Sorter;
  friend class svc::SortService;
  explicit SortJob(std::shared_ptr<core_internal::JobCore> core)
      : core_(std::move(core)) {}

  std::shared_ptr<core_internal::JobCore> core_;
};

// Runs sort jobs against one shared AsyncIO scheduler and ChorePool.
// Start() launches each job immediately on its own thread; the
// destructor waits for every outstanding job.
//
// Thread-safe: Start() may be called concurrently; jobs share the pools
// (chores from concurrent jobs interleave across the same workers, as
// concurrent sorts on one machine share its CPUs).
class Sorter {
 public:
  struct Resources {
    int num_workers = 0;    // shared ChorePool width
    int io_threads = 4;     // shared AsyncIO threads
    bool use_affinity = false;
  };

  // `env` must outlive the Sorter and every job started through it.
  explicit Sorter(Env* env) : Sorter(env, Resources()) {}
  Sorter(Env* env, const Resources& resources);
  ~Sorter();

  Sorter(const Sorter&) = delete;
  Sorter& operator=(const Sorter&) = delete;

  // Validates the Resources' pool sizes and `options`, and starts the
  // sort. Never blocks on the sort itself; validation failures return an
  // already-done job carrying the InvalidArgument status.
  // options.time_limit_s (if set) starts counting here.
  SortJob Start(const SortOptions& options);

  // Internal-facing overload: runs `body` as the job's pass structure in
  // place of the planner's one-/two-pass choice, inside the same harness
  // (validation, env wrapping, metrics, observability). The legacy
  // algorithm entry points (VmsSort, HypercubeSort) are thin shims over
  // this; it is public so experiments can be too, but the body contract
  // (core/pipeline_internal.h) is not a stable API.
  SortJob Start(const SortOptions& options,
                core_internal::PipelineBody body);

  Env* env() const { return env_; }

 private:
  struct Running {
    std::shared_ptr<core_internal::JobCore> core;
    std::thread thread;
  };

  void ReapFinishedLocked();

  Env* env_;
  // ValidatePoolSizes of the Resources; when it fails, every Start()
  // returns an already-done job carrying it, and no AsyncIO is built.
  const Status pool_status_;
  std::optional<AsyncIO> aio_;
  ChorePool pool_;
  std::mutex mu_;
  std::vector<Running> jobs_;
};

}  // namespace alphasort

#endif  // ALPHASORT_CORE_SORTER_H_
