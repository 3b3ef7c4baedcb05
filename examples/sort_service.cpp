// sort_service: drives a SortService end to end (docs/service.md).
//
//   ./sort_service [--jobs N] [--running K] [--records N]
//                  [--budget-mb MB] [--job-budget-mb MB] [--workers K]
//                  [--faults] [--smoke] [--expo FILE] [--log-jsonl FILE]
//                  [--flight FILE] [--trace FILE]
//
// --expo FILE scrapes the Prometheus-style exposition (registry plus
// live per-job progress) into FILE repeatedly while jobs run and once
// after they finish; validate with expo_lint. --log-jsonl FILE attaches
// a JSONL sink to the global structured logger for the run; validate
// with log_lint. --flight FILE runs a flight recorder that appends a
// progress snapshot line 4x/second; replay with expo_lint --flight.
// --trace FILE records a Chrome trace of the whole run (every job's
// spans, each stamped with its job id) into FILE on exit; validate with
// trace_lint.
//
// Default mode submits N concurrent Datamation jobs against an in-memory
// filesystem, waits for them all, validates every output, and prints the
// per-job outcomes plus the service's arbitration stats.
//
// --smoke is the CI gate (scripts/ci.sh): 4 concurrent jobs whose summed
// budgets exceed the service budget, plus a 5th job cancelled right
// after submit. Exit is nonzero if any surviving job fails or produces
// unsorted output, if the cancelled job does not end with a clean
// Aborted status, if the peak of admitted bytes ever exceeded the
// service budget, if any scratch file leaks, or if the final exposition
// scrape does not show every completed job at phase done, fraction 1.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "benchlib/datamation.h"
#include "common/table.h"
#include "io/env_stack.h"
#include "obs/exposition.h"
#include "obs/log.h"
#include "obs/trace.h"
#include "svc/sort_service.h"

using namespace alphasort;

namespace {

struct DriverConfig {
  int jobs = 4;
  int running = 2;
  uint64_t records = 50000;
  uint64_t budget_mb = 32;
  uint64_t job_budget_mb = 16;
  int workers = 2;
  bool faults = false;
  bool smoke = false;
  std::string expo_path;
  std::string log_jsonl_path;
  std::string flight_path;
  std::string trace_path;
};

// Overwrites `path` with `text` (the exposition scrape is a whole
// document, not an append stream).
bool WriteTextFile(const std::string& path, const std::string& text) {
  FILE* f = fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = fwrite(text.data(), 1, text.size(), f) == text.size();
  fclose(f);
  return ok;
}

const char* StateName(SortJobState s) {
  switch (s) {
    case SortJobState::kQueued:
      return "queued";
    case SortJobState::kRunning:
      return "running";
    case SortJobState::kDone:
      return "done";
  }
  return "?";
}

int RunDriver(const DriverConfig& cfg) {
  // Structured-log sink for the whole run (job lifecycle, admission
  // decisions, retries all land in it).
  std::unique_ptr<obs::JsonlFileLogSink> log_sink;
  if (!cfg.log_jsonl_path.empty()) {
    log_sink = std::make_unique<obs::JsonlFileLogSink>(cfg.log_jsonl_path);
    if (!log_sink->ok()) {
      fprintf(stderr, "cannot open log sink %s\n",
              cfg.log_jsonl_path.c_str());
      return 1;
    }
    obs::Logger::Global()->AddSink(log_sink.get());
  }
  struct SinkRemover {
    obs::LogSink* sink;
    ~SinkRemover() {
      if (sink != nullptr) obs::Logger::Global()->RemoveSink(sink);
    }
  } sink_remover{log_sink.get()};

  obs::FlightRecorder::Options fr_opts;
  fr_opts.path = cfg.flight_path;
  obs::FlightRecorder flight(fr_opts);
  if (!cfg.flight_path.empty()) {
    if (Status s = flight.Start(); !s.ok()) {
      fprintf(stderr, "cannot start flight recorder %s: %s\n",
              cfg.flight_path.c_str(), s.ToString().c_str());
      return 1;
    }
  }

  std::unique_ptr<Env> mem = NewMemEnv();
  // With --faults, a transient-fault layer sits between the store and
  // the service; each job carries a retry policy to absorb it.
  EnvStack stack(mem.get());
  if (cfg.faults) {
    stack.PushFaults();
    FaultPlan plan;
    plan.seed = 42;
    plan.defaults.read_fail_prob = 0.002;
    plan.defaults.write_fail_prob = 0.002;
    plan.defaults.mode = FaultMode::kTransient;
    stack.faults()->SetPlan(plan);
  }
  Env* const env_top = stack.top();
  const RecordFormat format = kDatamationFormat;

  // In smoke mode one extra job is submitted and immediately cancelled.
  const int total_jobs = cfg.smoke ? cfg.jobs + 1 : cfg.jobs;
  std::vector<std::string> inputs(total_jobs), outputs(total_jobs);
  for (int j = 0; j < total_jobs; ++j) {
    inputs[j] = StrFormat("svc_in_%02d.dat", j);
    outputs[j] = StrFormat("svc_out_%02d.dat", j);
    InputSpec spec;
    spec.path = inputs[j];
    spec.format = format;
    spec.num_records = cfg.records;
    spec.seed = 100 + static_cast<uint64_t>(j);
    if (Status s = CreateInputFile(mem.get(), spec); !s.ok()) {
      fprintf(stderr, "input %s: %s\n", inputs[j].c_str(),
              s.ToString().c_str());
      return 1;
    }
  }

  svc::SortServiceOptions sopts;
  sopts.memory_budget = cfg.budget_mb << 20;
  sopts.max_running = cfg.running;
  sopts.max_queued = total_jobs;
  sopts.num_workers = cfg.workers;
  svc::SortService service(env_top, sopts);

  std::vector<SortJob> jobs;
  for (int j = 0; j < total_jobs; ++j) {
    SortOptions opts;
    opts.input_path = inputs[j];
    opts.output_path = outputs[j];
    opts.format = format;
    opts.memory_budget = cfg.job_budget_mb << 20;
    opts.io_chunk_bytes = 64 * 1024;
    opts.run_size_records = 10000;
    opts.scratch_path = "svc_scratch";
    if (cfg.faults) {
      opts.retry_policy.max_attempts = 8;
      opts.retry_policy.backoff_initial_us = 1;
      opts.retry_policy.backoff_cap_us = 16;
    }
    Result<SortJob> job = service.Submit(opts);
    if (!job.ok()) {
      fprintf(stderr, "submit %d: %s\n", j, job.status().ToString().c_str());
      return 1;
    }
    jobs.push_back(std::move(job).value());
    printf("job %llu submitted (%s)\n",
           static_cast<unsigned long long>(jobs.back().id()),
           StateName(jobs.back().state()));
  }

  // The smoke gate's cancel path: the last-submitted job is told to stop
  // while it is queued (or just started) and must finish Aborted with no
  // scratch left behind.
  if (cfg.smoke) {
    jobs.back().Cancel();
    printf("job %llu cancelled\n",
           static_cast<unsigned long long>(jobs.back().id()));
  }

  // Scrape the exposition while jobs are live: every poll overwrites the
  // file, so the final content is the last pre-completion snapshot plus
  // the post-run scrape below.
  if (!cfg.expo_path.empty()) {
    for (;;) {
      bool all_done = true;
      for (auto& job : jobs) {
        if (!job.TryWait()) all_done = false;
      }
      WriteTextFile(cfg.expo_path, obs::RenderExposition());
      if (all_done) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }

  int failures = 0;
  for (int j = 0; j < total_jobs; ++j) {
    const SortResult& r = jobs[j].Wait();
    const bool is_cancelled_job = cfg.smoke && j == total_jobs - 1;
    if (is_cancelled_job) {
      if (r.status.IsAborted() || r.status.ok()) {
        // A cancel can lose the race: the job may complete first. Both
        // are clean ends; what matters is no leak and no wrong output.
        printf("job %llu: %s (cancelled path)\n",
               static_cast<unsigned long long>(jobs[j].id()),
               r.status.ok() ? "completed before cancel"
                             : r.status.ToString().c_str());
      } else {
        fprintf(stderr, "job %llu: cancel ended dirty: %s\n",
                static_cast<unsigned long long>(jobs[j].id()),
                r.status.ToString().c_str());
        ++failures;
      }
      if (r.status.ok()) {
        if (Status v = ValidateSortedFile(mem.get(), inputs[j], outputs[j],
                                          format);
            !v.ok()) {
          fprintf(stderr, "job %llu: output invalid: %s\n",
                  static_cast<unsigned long long>(jobs[j].id()),
                  v.ToString().c_str());
          ++failures;
        }
      }
      continue;
    }
    if (!r.status.ok()) {
      fprintf(stderr, "job %llu: %s\n",
              static_cast<unsigned long long>(jobs[j].id()),
              r.status.ToString().c_str());
      ++failures;
      continue;
    }
    if (Status v =
            ValidateSortedFile(mem.get(), inputs[j], outputs[j], format);
        !v.ok()) {
      fprintf(stderr, "job %llu: output invalid: %s\n",
              static_cast<unsigned long long>(jobs[j].id()),
              v.ToString().c_str());
      ++failures;
      continue;
    }
    printf("job %llu: ok (%.1f MB in %.2fs%s)\n",
           static_cast<unsigned long long>(jobs[j].id()),
           r.metrics.bytes_out / 1e6, r.metrics.total_s,
           jobs[j].down_negotiated() ? ", down-negotiated" : "");
  }

  const svc::SortServiceStats stats = service.stats();
  printf(
      "\nservice: %llu submitted, %llu completed, %llu rejected, "
      "%llu cancelled queued, %llu down-negotiated\n",
      static_cast<unsigned long long>(stats.submitted),
      static_cast<unsigned long long>(stats.completed),
      static_cast<unsigned long long>(stats.rejected),
      static_cast<unsigned long long>(stats.cancelled_queued),
      static_cast<unsigned long long>(stats.down_negotiated));
  printf("peak admitted %.1f MB of %.1f MB budget\n",
         stats.peak_admitted_bytes / 1e6, (cfg.budget_mb << 20) / 1e6);

  if (stats.peak_admitted_bytes > (cfg.budget_mb << 20)) {
    fprintf(stderr, "FAIL: peak admitted bytes exceeded the budget\n");
    ++failures;
  }
  std::vector<std::string> stray;
  if (mem->ListFiles("svc_scratch", &stray).ok() && !stray.empty()) {
    fprintf(stderr, "FAIL: %zu scratch file(s) leaked, first: %s\n",
            stray.size(), stray[0].c_str());
    ++failures;
  }
  flight.Stop();
  // The final scrape: service counters settled, and every completed job
  // kept by the progress registry at phase done, fraction 1.
  const std::string expo = obs::RenderExposition();
  for (SortJob& job : jobs) {
    if (!job.Wait().status.ok()) continue;
    const unsigned long long id = job.id();
    const std::string info =
        StrFormat("alphasort_job_info{job=\"%llu\",phase=\"done\"", id);
    const std::string fraction =
        StrFormat("alphasort_job_fraction{job=\"%llu\"} 1\n", id);
    if (expo.find(info) == std::string::npos ||
        expo.find(fraction) == std::string::npos) {
      fprintf(stderr,
              "FAIL: final scrape does not show job %llu done at "
              "fraction 1\n",
              id);
      ++failures;
    }
  }
  if (!cfg.expo_path.empty() && !WriteTextFile(cfg.expo_path, expo)) {
    fprintf(stderr, "FAIL: cannot write exposition to %s\n",
            cfg.expo_path.c_str());
    ++failures;
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  DriverConfig cfg;
  for (int i = 1; i < argc; ++i) {
    if (strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      cfg.jobs = atoi(argv[++i]);
    } else if (strcmp(argv[i], "--running") == 0 && i + 1 < argc) {
      cfg.running = atoi(argv[++i]);
    } else if (strcmp(argv[i], "--records") == 0 && i + 1 < argc) {
      cfg.records = strtoull(argv[++i], nullptr, 10);
    } else if (strcmp(argv[i], "--budget-mb") == 0 && i + 1 < argc) {
      cfg.budget_mb = strtoull(argv[++i], nullptr, 10);
    } else if (strcmp(argv[i], "--job-budget-mb") == 0 && i + 1 < argc) {
      cfg.job_budget_mb = strtoull(argv[++i], nullptr, 10);
    } else if (strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      cfg.workers = atoi(argv[++i]);
    } else if (strcmp(argv[i], "--faults") == 0) {
      cfg.faults = true;
    } else if (strcmp(argv[i], "--smoke") == 0) {
      cfg.smoke = true;
    } else if (strcmp(argv[i], "--expo") == 0 && i + 1 < argc) {
      cfg.expo_path = argv[++i];
    } else if (strcmp(argv[i], "--log-jsonl") == 0 && i + 1 < argc) {
      cfg.log_jsonl_path = argv[++i];
    } else if (strcmp(argv[i], "--flight") == 0 && i + 1 < argc) {
      cfg.flight_path = argv[++i];
    } else if (strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      cfg.trace_path = argv[++i];
    } else {
      fprintf(stderr,
              "usage: %s [--jobs N] [--running K] [--records N] "
              "[--budget-mb MB] [--job-budget-mb MB] [--workers K] "
              "[--faults] [--smoke] [--expo FILE] [--log-jsonl FILE] "
              "[--flight FILE] [--trace FILE]\n",
              argv[0]);
      return 2;
    }
  }
  if (cfg.smoke) {
    // The CI gate shape: concurrency 2 over 4 jobs whose summed budgets
    // (4 x 16 MB) exceed the 32 MB service budget, plus the cancel.
    cfg.jobs = 4;
    cfg.running = 2;
    cfg.records = 30000;
    cfg.budget_mb = 32;
    cfg.job_budget_mb = 16;
  }
  // The recorder outlives the service; the JSON is written after
  // Uninstall so no instrumentation point races the export.
  std::unique_ptr<obs::TraceRecorder> recorder;
  if (!cfg.trace_path.empty()) {
    recorder = std::make_unique<obs::TraceRecorder>();
    recorder->Install();
  }
  int rc = RunDriver(cfg);
  if (recorder != nullptr) {
    obs::TraceRecorder::Uninstall();
    if (!WriteTextFile(cfg.trace_path, recorder->ToChromeJson())) {
      fprintf(stderr, "FAIL: cannot write trace to %s\n",
              cfg.trace_path.c_str());
      rc = 1;
    }
  }
  return rc;
}
