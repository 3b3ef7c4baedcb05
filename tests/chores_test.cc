#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/chores.h"
#include "obs/trace.h"

namespace alphasort {
namespace {

TEST(ChorePoolTest, ZeroWorkersRunsInline) {
  ChorePool pool(0);
  EXPECT_EQ(pool.num_workers(), 0);
  std::thread::id ran_on;
  pool.Submit([&ran_on] { ran_on = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on, std::this_thread::get_id());
}

TEST(ChorePoolTest, ChoresRunOnWorkers) {
  std::atomic<int> count{0};
  {
    ChorePool pool(3);
    ChoreGroup group(&pool);
    for (int i = 0; i < 100; ++i) {
      group.Submit([&count] { count.fetch_add(1); });
    }
    group.Wait();
    EXPECT_EQ(count.load(), 100);
  }
}

TEST(ChorePoolTest, DestructorDrainsOutstandingChores) {
  std::atomic<int> count{0};
  {
    ChorePool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&count] { count.fetch_add(1); });
    }
  }
  EXPECT_EQ(count.load(), 50);
}

// A one-shot gate a chore can park on.
class Gate {
 public:
  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }
  void Await() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return open_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

// Two fan-outs share one pool, as concurrent jobs do: one group's Wait()
// covers its own chores only, not a chore another group has parked on a
// worker.
TEST(ChoreGroupTest, WaitReturnsWhileAnotherGroupsChoreIsBlocked) {
  ChorePool pool(2);
  Gate parked, release;
  ChoreGroup other(&pool);
  other.Submit([&parked, &release] {
    parked.Open();
    release.Await();
  });
  parked.Await();

  std::atomic<int> count{0};
  {
    ChoreGroup mine(&pool);
    for (int i = 0; i < 20; ++i) {
      mine.Submit([&count] { count.fetch_add(1); });
    }
    mine.Wait();
    EXPECT_EQ(count.load(), 20);
  }
  release.Open();
  other.Wait();
}

TEST(ChoreGroupTest, DestructorWaits) {
  ChorePool pool(2);
  std::atomic<int> count{0};
  {
    ChoreGroup group(&pool);
    for (int i = 0; i < 50; ++i) {
      group.Submit([&count] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        count.fetch_add(1);
      });
    }
  }
  EXPECT_EQ(count.load(), 50);
}

TEST(ChoreGroupTest, ZeroWorkersRunInline) {
  ChorePool pool(0);
  ChoreGroup group(&pool);
  int count = 0;
  std::thread::id ran_on;
  group.Submit([&] {
    ran_on = std::this_thread::get_id();
    ++count;
  });
  EXPECT_EQ(count, 1) << "ran before Submit returned";
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  group.Wait();
}

// The ids ambient when the group was made follow its chores onto the
// workers, and the workers hold no id once the chores are done.
TEST(ChoreGroupTest, ChoresRunUnderTheGroupsAmbientIds) {
  ChorePool pool(2);
  std::unique_ptr<ChoreGroup> group;
  {
    obs::ScopedJobId job(71);
    obs::ScopedTraceId trace(9001);
    group = std::make_unique<ChoreGroup>(&pool);
  }
  std::mutex mu;
  std::vector<std::pair<uint64_t, uint64_t>> seen;
  for (int i = 0; i < 16; ++i) {
    group->Submit([&] {
      std::lock_guard<std::mutex> lock(mu);
      seen.emplace_back(obs::CurrentJobId(), obs::CurrentTraceId());
    });
  }
  group->Wait();
  ASSERT_EQ(seen.size(), 16u);
  for (const auto& [job, trace] : seen) {
    EXPECT_EQ(job, 71u);
    EXPECT_EQ(trace, 9001u);
  }

  // Plain pool chores see the workers' own ambient ids.
  std::atomic<int> leaked{0};
  std::atomic<int> ran{0};
  for (int i = 0; i < 16; ++i) {
    pool.Submit([&leaked, &ran] {
      if (obs::CurrentJobId() != 0 || obs::CurrentTraceId() != 0) {
        leaked.fetch_add(1);
      }
      ran.fetch_add(1);
    });
  }
  while (ran.load() < 16) std::this_thread::yield();
  EXPECT_EQ(leaked.load(), 0);
}

// Once Wait() returns, nothing a chore captured is still held.
TEST(ChoreGroupTest, ChoresAreDestroyedBeforeWaitReturns) {
  ChorePool pool(3);
  auto token = std::make_shared<int>(0);
  ChoreGroup group(&pool);
  for (int i = 0; i < 32; ++i) {
    group.Submit([token] { (void)*token; });
  }
  group.Wait();
  EXPECT_EQ(token.use_count(), 1);
}

}  // namespace
}  // namespace alphasort
