// Concurrent jobs on one Sorter share its ChorePool. Each job waits only
// for its own chores, and each chore's trace spans carry the job and
// trace ids of the job that dispatched it.

#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/pipeline_internal.h"
#include "core/record_source.h"
#include "core/sorter.h"
#include "io/env.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "record/generator.h"
#include "record/validator.h"

namespace alphasort {
namespace {

const RecordFormat kFormat;

std::string MakeInput(uint64_t records, uint64_t seed) {
  std::vector<char> bytes = RecordGenerator(kFormat, seed)
                                .Generate(KeyDistribution::kUniform, records);
  return std::string(bytes.begin(), bytes.end());
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

// Job B's body parks a chore on one of the two shared workers. Job A,
// started after it, must still finish: its ingest, prefault and merge
// wait for A's own chores, which the other worker runs.
TEST(SharedPoolTest, AJobFinishesWhileAnotherJobsChoreIsParked) {
  auto env = NewMemEnv();
  const std::string input = MakeInput(20000, 5);
  ASSERT_TRUE(env->WriteStringToFile("in.dat", input).ok());
  Sorter::Resources resources;
  resources.num_workers = 2;
  Sorter sorter(env.get(), resources);

  Gate parked, release, chore_done;
  SortOptions b_opts;
  b_opts.input_path = "in.dat";
  b_opts.output_path = "b.dat";
  SortJob b = sorter.Start(
      b_opts, [&](core_internal::SortContext* ctx) -> Status {
        ctx->pool->Submit([&] {
          parked.Open();
          release.Await();
          chore_done.Open();
        });
        chore_done.Await();
        return Status::OK();
      });
  parked.Await();

  SortOptions a_opts;
  a_opts.input_path = "in.dat";
  a_opts.output_path = "a.dat";
  a_opts.run_size_records = 1000;
  SortJob a = sorter.Start(a_opts);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!a.TryWait() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const bool finished_while_parked = a.TryWait();
  release.Open();
  EXPECT_TRUE(finished_while_parked)
      << "job A waited for job B's parked chore";

  const SortResult& ra = a.Wait();
  ASSERT_TRUE(ra.status.ok()) << ra.status.ToString();
  EXPECT_GT(ra.metrics.num_runs, 1u);
  Result<std::string> out = env->ReadFileToString("a.dat");
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.value().size(), input.size());
  EXPECT_TRUE(
      ValidateSorted(kFormat, input.data(), out.value().data(), 20000).ok());
  const SortResult& rb = b.Wait();
  EXPECT_TRUE(rb.status.ok()) << rb.status.ToString();
}

// Two jobs sort at once on three shared workers under one trace
// recorder: every run-sort and range-fill span carries the id and the
// trace id of the job that dispatched it, and each job's span counts
// match its own runs and ranges.
TEST(SharedPoolTest, ConcurrentJobsStampTheirOwnIdsOnChoreSpans) {
  auto env = NewMemEnv();
  Sorter::Resources resources;
  resources.num_workers = 3;
  Sorter sorter(env.get(), resources);

  const uint64_t records[2] = {6000, 3000};
  const uint64_t trace_ids[2] = {7001, 7002};
  const std::string inputs[2] = {MakeInput(records[0], 11),
                                 MakeInput(records[1], 12)};
  std::shared_ptr<StreamRecordSource> streams[2];

  obs::TraceRecorder recorder;
  recorder.Install();
  std::vector<SortJob> jobs;
  for (int j = 0; j < 2; ++j) {
    streams[j] = std::make_shared<StreamRecordSource>(64 * 1024);
    SortOptions opts;
    opts.source = [stream = streams[j]] { return stream; };
    opts.output_path = "out" + std::to_string(j);
    opts.scratch_path = "scratch" + std::to_string(j);
    opts.run_size_records = 700;
    opts.io_chunk_bytes = 8 * 1024;
    opts.trace_id = trace_ids[j];
    jobs.push_back(sorter.Start(opts));
  }
  // Both jobs are in their read phase before any input flows, so their
  // chores interleave on the shared workers.
  for (SortJob& job : jobs) {
    while (job.Progress().phase != obs::SortPhase::kRead && !job.TryWait()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  std::vector<std::thread> producers;
  for (int j = 0; j < 2; ++j) {
    producers.emplace_back([&inputs, &streams, j] {
      if (streams[j]->Append(inputs[j].data(), inputs[j].size())) {
        streams[j]->CloseWrite();
      }
    });
  }
  for (auto& p : producers) p.join();
  for (SortJob& job : jobs) {
    const SortResult& r = job.Wait();
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  }
  obs::TraceRecorder::Uninstall();
  ASSERT_EQ(recorder.dropped(), 0u);

  std::map<uint64_t, uint64_t> trace_of;  // job id -> trace id
  for (int j = 0; j < 2; ++j) trace_of[jobs[j].id()] = trace_ids[j];
  ASSERT_EQ(trace_of.size(), 2u);

  obs::JsonValue trace;
  ASSERT_TRUE(obs::ParseJson(recorder.ToChromeJson(), &trace).ok());
  const obs::JsonValue* events = trace.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  std::map<std::pair<uint64_t, std::string>, uint64_t> spans;
  for (const obs::JsonValue& ev : events->items) {
    const obs::JsonValue* ph = ev.Find("ph");
    const obs::JsonValue* name = ev.Find("name");
    if (ph == nullptr || name == nullptr || ph->string_value != "X") continue;
    if (name->string_value != "quicksort.run" &&
        name->string_value != "merge.range") {
      continue;
    }
    const obs::JsonValue* args = ev.Find("args");
    const obs::JsonValue* job =
        args != nullptr ? args->Find("job") : nullptr;
    const obs::JsonValue* trace_id =
        args != nullptr ? args->Find("trace_id") : nullptr;
    ASSERT_TRUE(job != nullptr && trace_id != nullptr)
        << name->string_value << " span without job or trace id";
    const uint64_t id = static_cast<uint64_t>(job->number_value);
    ASSERT_EQ(trace_of.count(id), 1u) << name->string_value << " job " << id;
    EXPECT_EQ(static_cast<uint64_t>(trace_id->number_value), trace_of[id])
        << name->string_value << " of job " << id;
    ++spans[{id, name->string_value}];
  }
  for (SortJob& job : jobs) {
    SCOPED_TRACE(job.id());
    const SortMetrics& m = job.Wait().metrics;
    const uint64_t run_spans = spans[{job.id(), "quicksort.run"}];
    const uint64_t range_spans = spans[{job.id(), "merge.range"}];
    EXPECT_EQ(run_spans, m.num_runs);
    EXPECT_EQ(range_spans, m.merge_ranges);
    EXPECT_GT(m.merge_ranges, 1u);
  }
}

}  // namespace
}  // namespace alphasort
