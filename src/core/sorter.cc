#include "core/sorter.h"

#include <atomic>
#include <utility>

#include "common/table.h"
#include "core/pipeline_internal.h"
#include "obs/log.h"
#include "obs/trace.h"

namespace alphasort {

namespace core_internal {

uint64_t NextJobId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

void JobCore::Finish(Status status) {
  std::vector<std::function<void()>> callbacks;
  {
    std::lock_guard<std::mutex> lock(mu);
    result.status = std::move(status);
    state = SortJobState::kDone;
    callbacks.swap(on_done);
    cv.notify_all();
  }
  for (auto& fn : callbacks) fn();
}

Status ExecuteJob(Env* env, JobCore* job, AsyncIO* aio, ChorePool* pool) {
  {
    std::lock_guard<std::mutex> lock(job->mu);
    job->state = SortJobState::kRunning;
  }
  // Every span and log event on this thread (and, via the ChoreGroups
  // the pipeline fans out through, every chore it dispatches) carries
  // this job's id — and, when the job arrived over the wire, the
  // client's trace id.
  obs::ScopedJobId job_scope(job->id);
  obs::ScopedTraceId trace_scope(job->options.trace_id);
  job->progress.Start(job->id, job->options.trace_id);
  obs::ScopedProgressRegistration progress_scope(&job->progress);
  const std::string in_label =
      job->options.input_path.empty() ? "<source>" : job->options.input_path;
  ALPHASORT_LOG(kInfo, "job.start")
      .U64("job", job->id)
      .Str("in", in_label)
      .U64("budget", job->options.memory_budget);
  // A job cancelled or expired while queued never touches a file.
  Status s = job->control.Check();
  if (s.ok()) {
    s = RunInHarness(env, job->options, aio, pool, &job->control,
                     &job->result.metrics, &job->progress,
                     [job](SortContext* ctx) {
                       return OpenRunClose(ctx, job->body);
                     });
  }
  job->progress.SetPhase(s.ok() ? obs::SortPhase::kDone
                                : obs::SortPhase::kFailed);
  if (s.ok()) {
    ALPHASORT_LOG(kInfo, "job.done")
        .U64("job", job->id)
        .U64("bytes", job->result.metrics.bytes_out)
        .F64("total_s", job->result.metrics.total_s);
  } else {
    ALPHASORT_LOG(kWarn, "job.failed")
        .U64("job", job->id)
        .Str("status", s.ToString());
  }
  job->result.report.tool = "sorter";
  job->result.report.config = StrFormat(
      "job=%llu in=%s out=%s workers=%d budget=%llu%s",
      static_cast<unsigned long long>(job->id), in_label.c_str(),
      job->options.output_path.c_str(),
      pool->num_workers(),
      static_cast<unsigned long long>(job->options.memory_budget),
      job->down_negotiated ? " down_negotiated" : "");
  job->result.report.metrics = job->result.metrics;
  return s;
}

}  // namespace core_internal

SortJobState SortJob::state() const {
  std::lock_guard<std::mutex> lock(core_->mu);
  return core_->state;
}

void SortJob::Cancel() {
  core_->control.RequestCancel();
  if (core_->on_cancel) core_->on_cancel();
}

const SortResult& SortJob::Wait() {
  std::unique_lock<std::mutex> lock(core_->mu);
  core_->cv.wait(lock,
                 [this] { return core_->state == SortJobState::kDone; });
  return core_->result;
}

bool SortJob::TryWait(SortResult* out) {
  std::lock_guard<std::mutex> lock(core_->mu);
  if (core_->state != SortJobState::kDone) return false;
  if (out != nullptr) *out = core_->result;
  return true;
}

void SortJob::OnDone(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(core_->mu);
    if (core_->state != SortJobState::kDone) {
      core_->on_done.push_back(std::move(fn));
      return;
    }
  }
  fn();
}

Sorter::Sorter(Env* env, const Resources& resources)
    : env_(env),
      pool_status_(
          ValidatePoolSizes(resources.num_workers, resources.io_threads)),
      pool_(resources.num_workers, resources.use_affinity) {
  if (pool_status_.ok()) aio_.emplace(resources.io_threads);
}

Sorter::~Sorter() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& job : jobs_) {
    if (job.thread.joinable()) job.thread.join();
  }
  jobs_.clear();
}

void Sorter::ReapFinishedLocked() {
  for (auto it = jobs_.begin(); it != jobs_.end();) {
    bool done;
    {
      std::lock_guard<std::mutex> lock(it->core->mu);
      done = it->core->state == SortJobState::kDone;
    }
    if (done) {
      if (it->thread.joinable()) it->thread.join();
      it = jobs_.erase(it);
    } else {
      ++it;
    }
  }
}

SortJob Sorter::Start(const SortOptions& options) {
  return Start(options, nullptr);
}

SortJob Sorter::Start(const SortOptions& options,
                      core_internal::PipelineBody body) {
  auto core = std::make_shared<core_internal::JobCore>();
  core->id = core_internal::NextJobId();
  core->options = options;
  core->body = std::move(body);
  if (Status v = pool_status_.ok() ? options.Validate() : pool_status_;
      !v.ok()) {
    core->Finish(std::move(v));
    return SortJob(core);
  }
  if (options.time_limit_s > 0) {
    core->control.SetTimeout(options.time_limit_s);
  }

  std::lock_guard<std::mutex> lock(mu_);
  ReapFinishedLocked();
  Running running;
  running.core = core;
  running.thread = std::thread([this, core] {
    core->Finish(core_internal::ExecuteJob(env_, core.get(), &*aio_, &pool_));
  });
  jobs_.push_back(std::move(running));
  return SortJob(core);
}

namespace core_internal {

Status RunTransientJob(Env* env, const SortOptions& options,
                       PipelineBody body, SortMetrics* metrics) {
  Sorter::Resources resources;
  resources.num_workers = options.num_workers;
  resources.io_threads = options.io_threads;
  resources.use_affinity = options.use_affinity;
  Sorter sorter(env, resources);
  SortJob job = sorter.Start(options, std::move(body));
  const SortResult& result = job.Wait();
  if (metrics != nullptr) *metrics = result.metrics;
  return result.status;
}

}  // namespace core_internal

}  // namespace alphasort
