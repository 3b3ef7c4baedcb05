#include "obs/progress.h"

#include <algorithm>
#include <chrono>

namespace alphasort {
namespace obs {

namespace {

uint64_t SteadyNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void SortByJobId(std::vector<JobProgress>* jobs) {
  std::sort(jobs->begin(), jobs->end(),
            [](const JobProgress& a, const JobProgress& b) {
              return a.job_id < b.job_id;
            });
}

}  // namespace

const char* SortPhaseName(SortPhase phase) {
  switch (phase) {
    case SortPhase::kQueued:
      return "queued";
    case SortPhase::kStartup:
      return "startup";
    case SortPhase::kRead:
      return "read";
    case SortPhase::kLastRun:
      return "last_run";
    case SortPhase::kMerge:
      return "merge";
    case SortPhase::kClose:
      return "close";
    case SortPhase::kDone:
      return "done";
    case SortPhase::kFailed:
      return "failed";
  }
  return "unknown";
}

void JobProgressTracker::Start(uint64_t job_id, uint64_t trace_id) {
  job_id_.store(job_id, std::memory_order_relaxed);
  trace_id_.store(trace_id, std::memory_order_relaxed);
  phase_.store(static_cast<int>(SortPhase::kStartup),
               std::memory_order_relaxed);
  bytes_total_.store(0, std::memory_order_relaxed);
  work_total_.store(0, std::memory_order_relaxed);
  total_known_.store(true, std::memory_order_relaxed);
  work_factor_.store(2, std::memory_order_relaxed);
  read_.store(0, std::memory_order_relaxed);
  sorted_.store(0, std::memory_order_relaxed);
  spilled_.store(0, std::memory_order_relaxed);
  merged_.store(0, std::memory_order_relaxed);
  start_ns_.store(SteadyNowNs(), std::memory_order_relaxed);
}

void JobProgressTracker::SetPlan(uint64_t bytes_total, int passes) {
  bytes_total_.store(bytes_total, std::memory_order_relaxed);
  // The overlap model's work accounting (see the header): bytes that
  // must move through storage. Sorting rides under the read stream and
  // adds none of its own.
  const uint64_t factor = passes <= 1 ? 2 : 3;
  work_total_.store(factor * bytes_total, std::memory_order_relaxed);
  total_known_.store(true, std::memory_order_relaxed);
}

void JobProgressTracker::SetPlanUnknown(int passes_hint) {
  const uint64_t factor = passes_hint <= 1 ? 2 : 3;
  bytes_total_.store(0, std::memory_order_relaxed);
  work_total_.store(0, std::memory_order_relaxed);
  work_factor_.store(factor, std::memory_order_relaxed);
  total_known_.store(false, std::memory_order_relaxed);
}

void JobProgressTracker::SetPhase(SortPhase phase) {
  phase_.store(static_cast<int>(phase), std::memory_order_relaxed);
}

void JobProgressTracker::AddRead(uint64_t bytes) {
  read_.fetch_add(bytes, std::memory_order_relaxed);
}

void JobProgressTracker::AddSorted(uint64_t bytes) {
  sorted_.fetch_add(bytes, std::memory_order_relaxed);
}

void JobProgressTracker::AddSpilled(uint64_t bytes) {
  spilled_.fetch_add(bytes, std::memory_order_relaxed);
}

void JobProgressTracker::AddMerged(uint64_t bytes) {
  merged_.fetch_add(bytes, std::memory_order_relaxed);
}

JobProgress JobProgressTracker::Snapshot() const {
  JobProgress p;
  p.job_id = job_id_.load(std::memory_order_relaxed);
  p.trace_id = trace_id_.load(std::memory_order_relaxed);
  p.phase = static_cast<SortPhase>(phase_.load(std::memory_order_relaxed));
  p.bytes_total = bytes_total_.load(std::memory_order_relaxed);
  p.bytes_read = read_.load(std::memory_order_relaxed);
  p.bytes_sorted = sorted_.load(std::memory_order_relaxed);
  p.bytes_spilled = spilled_.load(std::memory_order_relaxed);
  p.bytes_merged = merged_.load(std::memory_order_relaxed);
  p.work_done = p.bytes_read + p.bytes_spilled + p.bytes_merged;
  p.work_total = work_total_.load(std::memory_order_relaxed);
  p.total_known = total_known_.load(std::memory_order_relaxed);
  if (!p.total_known && p.bytes_read > 0) {
    // Streamed ingest: treat the bytes seen so far as the whole input, a
    // running lower bound. During ingest work_done/work_total sits at a
    // steady 1/factor plateau, then rises as spill/merge bytes accrue;
    // when the real SetPlan lands at end of input the estimate and the
    // truth coincide, so the fraction is continuous across the switch.
    p.bytes_total = p.bytes_read;
    p.work_total =
        work_factor_.load(std::memory_order_relaxed) * p.bytes_read;
  }

  if (p.phase == SortPhase::kDone) {
    p.fraction = 1.0;
  } else if (p.work_total > 0) {
    // Clamped below 1: a cascade merge re-spills intermediate levels, so
    // work_done can pass the planned total before the job finishes. The
    // clamp keeps the fraction monotonic and honest — only completion
    // reports 1.0.
    p.fraction = std::min(0.999, double(p.work_done) / double(p.work_total));
  }

  const uint64_t start_ns = start_ns_.load(std::memory_order_relaxed);
  if (start_ns != 0) {
    // Clamped to one tick: a snapshot in the same clock quantum as
    // Start() still reports a nonzero (and thus rate-computable) age.
    p.elapsed_s =
        double(std::max<uint64_t>(1, SteadyNowNs() - start_ns)) * 1e-9;
  }
  if (p.elapsed_s > 0 && p.work_done > 0) {
    p.bytes_per_s = double(p.work_done) / p.elapsed_s;
    if (p.phase != SortPhase::kDone && p.phase != SortPhase::kFailed &&
        p.work_total > p.work_done) {
      p.eta_s = double(p.work_total - p.work_done) / p.bytes_per_s;
    }
  }
  return p;
}

ProgressRegistry* ProgressRegistry::Global() {
  static ProgressRegistry* registry = new ProgressRegistry();
  return registry;
}

void ProgressRegistry::Register(const JobProgressTracker* tracker) {
  std::lock_guard<std::mutex> lock(mu_);
  trackers_.push_back(tracker);
}

void ProgressRegistry::Unregister(const JobProgressTracker* tracker) {
  const JobProgress last = tracker->Snapshot();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = std::find(trackers_.begin(), trackers_.end(), tracker);
  if (it == trackers_.end()) return;
  trackers_.erase(it);
  std::erase_if(finished_, [&](const JobProgress& p) {
    return p.job_id == last.job_id;
  });
  if (finished_.size() == kKeptJobs) finished_.pop_front();
  finished_.push_back(last);
}

std::vector<JobProgress> ProgressRegistry::Snapshot() const {
  std::vector<JobProgress> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.reserve(trackers_.size());
    for (const JobProgressTracker* t : trackers_) {
      out.push_back(t->Snapshot());
    }
  }
  SortByJobId(&out);
  return out;
}

std::vector<JobProgress> ProgressRegistry::SnapshotWithFinished() const {
  std::vector<JobProgress> out;
  {
    // One lock for both lists, so a job that unregisters mid-call shows
    // up in exactly one of them.
    std::lock_guard<std::mutex> lock(mu_);
    out.reserve(trackers_.size() + finished_.size());
    for (const JobProgressTracker* t : trackers_) {
      out.push_back(t->Snapshot());
    }
    const size_t live = out.size();
    for (const JobProgress& p : finished_) {
      const bool shadowed =
          std::any_of(out.begin(), out.begin() + live,
                      [&](const JobProgress& l) {
                        return l.job_id == p.job_id;
                      });
      if (!shadowed) out.push_back(p);
    }
  }
  SortByJobId(&out);
  return out;
}

}  // namespace obs
}  // namespace alphasort
