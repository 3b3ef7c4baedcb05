#ifndef ALPHASORT_CORE_CHORES_H_
#define ALPHASORT_CORE_CHORES_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace alphasort {

// The paper's root/worker decomposition (§5): the root process performs
// all IO and coordination; workers execute independent memory-intensive
// "chores" (QuickSorting a run, gathering a slice of records). This pool
// is the workers; the thread that owns the pipeline is the root.
//
// With zero workers every chore runs inline on the root — the
// uni-processor configuration. The pool keeps no count of what it runs:
// one pool serves concurrent sorts, and each fan-out waits for its own
// chores through a ChoreGroup.
class ChorePool {
 public:
  // With `use_affinity`, worker i is pinned to CPU (i+1) mod hardware
  // concurrency (CPU 0 is left to the root), best-effort.
  explicit ChorePool(int num_workers, bool use_affinity = false);
  // Lets the workers drain the queue, then joins them.
  ~ChorePool();

  ChorePool(const ChorePool&) = delete;
  ChorePool& operator=(const ChorePool&) = delete;

  int num_workers() const { return static_cast<int>(workers_.size()); }

  // Schedules a chore. With no workers, runs it immediately on the caller.
  void Submit(std::function<void()> chore);

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<std::function<void()>> queue_;
  bool shutting_down_ = false;
  std::vector<std::thread> workers_;
};

// One fan-out's chores on a shared pool: Wait() returns once every chore
// submitted through this group has finished, whatever other groups (other
// jobs) still have in flight. Each chore runs under the job and trace ids
// that were ambient when the group was made, re-established on whichever
// worker picks it up. A chore is destroyed before it counts as done, so
// once Wait() returns nothing the chores captured is touched again.
// Declare a group after everything its chores reference: the destructor
// waits, which makes it the backstop on every early return.
class ChoreGroup {
 public:
  explicit ChoreGroup(ChorePool* pool);
  ~ChoreGroup();

  ChoreGroup(const ChoreGroup&) = delete;
  ChoreGroup& operator=(const ChoreGroup&) = delete;

  void Submit(std::function<void()> chore);

  // Blocks until every chore submitted so far has finished.
  void Wait();

 private:
  ChorePool* const pool_;
  const uint64_t job_id_;
  const uint64_t trace_id_;
  std::mutex mu_;
  std::condition_variable done_cv_;
  size_t pending_ = 0;
};

}  // namespace alphasort

#endif  // ALPHASORT_CORE_CHORES_H_
