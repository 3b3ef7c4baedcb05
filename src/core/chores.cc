#include "core/chores.h"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "obs/metrics.h"
#include "obs/trace.h"

namespace alphasort {

namespace {

obs::Counter* ChoresExecuted() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global()->GetCounter("chores.executed");
  return c;
}

// Best-effort pinning of the calling thread to one CPU.
void PinToCpu(int cpu) {
#if defined(__linux__)
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<unsigned>(cpu) % hw, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
#else
  (void)cpu;
#endif
}

}  // namespace

ChorePool::ChorePool(int num_workers, bool use_affinity) {
  workers_.reserve(num_workers > 0 ? num_workers : 0);
  for (int i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this, i, use_affinity] {
      // "The i-th worker process requests affinity to the i-th
      // processor" (§5); CPU 0 stays with the root.
      if (use_affinity) PinToCpu(i + 1);
      WorkerLoop();
    });
  }
}

ChorePool::~ChorePool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ChorePool::Submit(std::function<void()> chore) {
  if (workers_.empty()) {
    chore();
    ChoresExecuted()->Add();
    return;
  }
  size_t depth;
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(chore));
    depth = queue_.size();
  }
  obs::TraceCounter("chores.queue_depth", static_cast<int64_t>(depth));
  work_cv_.notify_one();
}

void ChorePool::WorkerLoop() {
  while (true) {
    std::function<void()> chore;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock,
                    [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) return;
      chore = std::move(queue_.front());
      queue_.pop_front();
    }
    chore();
    ChoresExecuted()->Add();
  }
}

ChoreGroup::ChoreGroup(ChorePool* pool)
    : pool_(pool),
      job_id_(obs::CurrentJobId()),
      trace_id_(obs::CurrentTraceId()) {}

ChoreGroup::~ChoreGroup() { Wait(); }

void ChoreGroup::Submit(std::function<void()> chore) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++pending_;
  }
  pool_->Submit([this, chore = std::move(chore)]() mutable {
    {
      obs::ScopedJobId job_scope(job_id_);
      obs::ScopedTraceId trace_scope(trace_id_);
      chore();
      chore = nullptr;  // its captures go before the chore counts as done
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (--pending_ == 0) done_cv_.notify_all();
  });
}

void ChoreGroup::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return pending_ == 0; });
}

}  // namespace alphasort
