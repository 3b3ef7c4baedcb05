#include "svc/sort_service.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/table.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace alphasort {
namespace svc {

namespace {

// Service-level registry instruments (docs/observability.md). Gauges
// mirror the mu_-protected stats so an external scrape sees live levels
// without taking the service lock.
obs::Gauge* JobsQueued() {
  static obs::Gauge* g =
      obs::MetricsRegistry::Global()->GetGauge("svc.jobs_queued");
  return g;
}
obs::Gauge* JobsRunning() {
  static obs::Gauge* g =
      obs::MetricsRegistry::Global()->GetGauge("svc.jobs_running");
  return g;
}
obs::Gauge* AdmittedBytes() {
  static obs::Gauge* g =
      obs::MetricsRegistry::Global()->GetGauge("svc.admitted_bytes");
  return g;
}
obs::Counter* JobsSubmitted() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global()->GetCounter("svc.jobs_submitted");
  return c;
}
obs::Counter* JobsRejected() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global()->GetCounter("svc.jobs_rejected");
  return c;
}
obs::Counter* JobsCompleted() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global()->GetCounter("svc.jobs_completed");
  return c;
}
obs::Counter* JobsCancelledQueued() {
  static obs::Counter* c = obs::MetricsRegistry::Global()->GetCounter(
      "svc.jobs_cancelled_queued");
  return c;
}
obs::Counter* JobsDownNegotiated() {
  static obs::Counter* c = obs::MetricsRegistry::Global()->GetCounter(
      "svc.jobs_down_negotiated");
  return c;
}

// The per-job scratch namespace directory: everything job `id` spills
// lives under <scratch_path>/job-<id>/, so the ScratchSweeper's prefix
// sweep ("<prefix>.l*") stays inside the job's own directory.
std::string JobScratchDir(const std::string& scratch_path, uint64_t id) {
  return StrFormat("%s/job-%llu", scratch_path.c_str(),
                   static_cast<unsigned long long>(id));
}

}  // namespace

SortService::SortService(Env* env, const SortServiceOptions& options)
    : env_(env),
      options_(options),
      pool_status_(
          ValidatePoolSizes(options.num_workers, options.io_threads)),
      pool_(options.num_workers, options.use_affinity) {
  if (pool_status_.ok()) aio_.emplace(options.io_threads);
  const int runners = std::max(1, options_.max_running);
  runners_.reserve(runners);
  for (int i = 0; i < runners; ++i) {
    runners_.emplace_back([this] { RunnerLoop(); });
  }
}

SortService::~SortService() {
  Shutdown();
  for (auto& t : runners_) t.join();
}

void SortService::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
}

Result<SortJob> SortService::Submit(const SortOptions& options) {
  ALPHASORT_RETURN_IF_ERROR(pool_status_);
  ALPHASORT_RETURN_IF_ERROR(options.Validate());

  // Admission-side log events (svc.reject, svc.down_negotiate,
  // svc.submit) carry the submitter's trace id even though the job has
  // not reached ExecuteJob's own trace scope yet — a rejected job's
  // only footprint is here.
  obs::ScopedTraceId trace_scope(options.trace_id);

  auto core = std::make_shared<core_internal::JobCore>();
  core->options = options;

  std::lock_guard<std::mutex> lock(mu_);
  if (shutdown_) {
    ++stats_.rejected;
    JobsRejected()->Add();
    ALPHASORT_LOG(kWarn, "svc.reject").Str("reason", "shutdown");
    return Status::Unavailable("sort service is shut down");
  }
  if (queue_.size() >= static_cast<size_t>(std::max(0, options_.max_queued))) {
    ++stats_.rejected;
    JobsRejected()->Add();
    ALPHASORT_LOG(kWarn, "svc.reject")
        .Str("reason", "queue_full")
        .I64("queued", static_cast<int64_t>(queue_.size()));
    return Status::Unavailable(StrFormat(
        "admission queue full (%d queued, max_queued=%d)",
        static_cast<int>(queue_.size()), options_.max_queued));
  }

  core->id = core_internal::NextJobId();

  // Down-negotiate a budget the service could never admit: clamp it to
  // the whole service budget, which makes the §6 planner choose a
  // two-pass plan for inputs that no longer fit. The clamped options
  // must still be coherent — a job whose io_chunk_bytes needs more than
  // the service has is an InvalidArgument, not a queueable job.
  if (core->options.memory_budget > options_.memory_budget) {
    core->options.memory_budget = options_.memory_budget;
    core->down_negotiated = true;
    if (Status v = core->options.Validate(); !v.ok()) {
      ++stats_.rejected;
      JobsRejected()->Add();
      ALPHASORT_LOG(kWarn, "svc.reject")
          .U64("job", core->id)
          .Str("reason", "invalid_after_clamp");
      return Status::InvalidArgument(StrFormat(
          "job cannot run within the service budget of %llu bytes: %s",
          static_cast<unsigned long long>(options_.memory_budget),
          v.message().c_str()));
    }
    ++stats_.down_negotiated;
    JobsDownNegotiated()->Add();
    ALPHASORT_LOG(kInfo, "svc.down_negotiate")
        .U64("job", core->id)
        .U64("requested", options.memory_budget)
        .U64("granted", core->options.memory_budget);
  }
  // The admission ticket: what this job charges against the global
  // budget while it runs. Clamped above, so the head of the queue always
  // fits once enough peers finish.
  core->admitted_bytes = core->options.memory_budget;

  // Per-job scratch namespace; disjoint per id, so concurrent jobs (and
  // their sweepers) never touch each other's spills.
  core->options.scratch_path =
      JobScratchDir(options.scratch_path, core->id) + "/scratch";

  // The deadline clock starts at Submit: a job that waits out its whole
  // time_limit_s in the queue is reaped without touching a file.
  if (core->options.time_limit_s > 0) {
    core->control.SetTimeout(core->options.time_limit_s);
  }

  // Cancel() wakes the runners so a cancelled queued job is reaped
  // promptly instead of at the next admission tick.
  core->on_cancel = [this] { cv_.notify_all(); };

  queue_.push_back(core);
  ++stats_.submitted;
  stats_.queued = static_cast<int>(queue_.size());
  JobsSubmitted()->Add();
  JobsQueued()->Set(stats_.queued);
  ALPHASORT_LOG(kInfo, "svc.submit")
      .U64("job", core->id)
      .U64("budget", core->options.memory_budget)
      .I64("queued", stats_.queued);
  cv_.notify_all();
  return SortJob(std::move(core));
}

void SortService::ReapQueuedLocked() {
  for (auto it = queue_.begin(); it != queue_.end();) {
    Status s = (*it)->control.Check();
    if (s.ok()) {
      ++it;
      continue;
    }
    {
      obs::ScopedTraceId trace_scope((*it)->options.trace_id);
      ALPHASORT_LOG(kInfo, "svc.reap")
          .U64("job", (*it)->id)
          .Str("status", s.ToString());
    }
    (*it)->Finish(std::move(s));
    it = queue_.erase(it);
    ++stats_.cancelled_queued;
    JobsCancelledQueued()->Add();
  }
  stats_.queued = static_cast<int>(queue_.size());
  JobsQueued()->Set(stats_.queued);
}

bool SortService::HeadAdmittableLocked() const {
  return !queue_.empty() &&
         queue_.front()->admitted_bytes <=
             options_.memory_budget - stats_.admitted_bytes;
}

void SortService::RunnerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    // Timed wait: deadlines expire without anyone calling Cancel(), so
    // the runners tick periodically to reap queued jobs whose clock ran
    // out even when no admission or completion wakes them.
    cv_.wait_for(lock, std::chrono::milliseconds(50), [this] {
      return shutdown_ || HeadAdmittableLocked();
    });
    ReapQueuedLocked();
    if (!HeadAdmittableLocked()) {
      // Drained and shut down -> exit. Otherwise keep waiting: either
      // the queue is empty, or the head's ticket needs peers to finish.
      if (shutdown_ && queue_.empty()) return;
      continue;
    }

    JobCorePtr core = queue_.front();
    queue_.pop_front();
    stats_.queued = static_cast<int>(queue_.size());
    stats_.admitted_bytes += core->admitted_bytes;
    stats_.peak_admitted_bytes =
        std::max(stats_.peak_admitted_bytes, stats_.admitted_bytes);
    ++stats_.running;
    JobsQueued()->Set(stats_.queued);
    JobsRunning()->Set(stats_.running);
    AdmittedBytes()->Set(static_cast<int64_t>(stats_.admitted_bytes));
    {
      obs::ScopedTraceId trace_scope(core->options.trace_id);
      ALPHASORT_LOG(kInfo, "svc.admit")
          .U64("job", core->id)
          .U64("ticket", core->admitted_bytes)
          .I64("running", stats_.running);
    }

    lock.unlock();
    Status outcome = RunAdmitted(core.get());
    lock.lock();

    // Settle before publishing: a waiter woken by Finish (or an OnDone
    // callback it runs) must already see the ticket returned and the job
    // counted as completed.
    stats_.admitted_bytes -= core->admitted_bytes;
    --stats_.running;
    ++stats_.completed;
    JobsRunning()->Set(stats_.running);
    AdmittedBytes()->Set(static_cast<int64_t>(stats_.admitted_bytes));
    JobsCompleted()->Add();
    {
      obs::ScopedTraceId trace_scope(core->options.trace_id);
      ALPHASORT_LOG(kInfo, "svc.complete")
          .U64("job", core->id)
          .I64("running", stats_.running)
          .I64("queued", stats_.queued);
    }
    // A freed ticket may unblock the new head; tell the other runners.
    cv_.notify_all();

    lock.unlock();
    core->Finish(std::move(outcome));
    lock.lock();
  }
}

Status SortService::RunAdmitted(core_internal::JobCore* core) {
  // "<dir>/scratch" -> "<dir>": the job's private namespace directory.
  const std::string dir = core->options.scratch_path.substr(
      0, core->options.scratch_path.size() - std::string("/scratch").size());
  ALPHASORT_RETURN_IF_ERROR(env_->CreateDir(dir));
  Status s = core_internal::ExecuteJob(env_, core, &*aio_, &pool_);
  // Best-effort namespace removal. The job's sweeper already removed its
  // spills; a non-empty directory (foreign files) is left alone.
  env_->RemoveDir(dir);
  return s;
}

SortServiceStats SortService::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace svc
}  // namespace alphasort
