// sort_top: a refresh-loop monitor for a running SortService, driven
// entirely off the scrapeable exposition (docs/observability.md).
//
//   ./sort_top [--jobs N] [--running K] [--records N] [--budget-mb MB]
//              [--job-budget-mb MB] [--workers K] [--interval-ms MS]
//              [--smoke]
//   ./sort_top --expo-file FILE [--interval-ms MS] [--watch-seconds S]
//
// Submits N concurrent Datamation jobs whose summed budgets oversubscribe
// the service budget, then repeatedly scrapes obs::RenderExposition() —
// the same text a Prometheus scraper would read — and renders each
// job's phase, completion fraction, throughput, and ETA until every job
// finishes (the registry keeps finished jobs, so they stay listed).
// The monitor deliberately consumes only the exposition text, not the
// SortJob handles, so it exercises the full metrics path:
// pipeline -> JobProgressTracker -> ProgressRegistry -> exposition.
// The header names the scrape source, so a pasted screenful says where
// its numbers came from: the in-process registry, or (--expo-file) the
// exposition file a sort_serverd --expo rewrites while serving — the
// remote-monitor shape, sort_top as a pure consumer of scrape text.
//
// Either source also renders the per-stage latency summary from the
// alphasort_net_job_{ingest,queue,sort,merge,stream,e2e}_us series
// (obs::JobTimeline histograms) whenever the scrape carries them.
//
// --smoke is the CI shape: 4 jobs over 2 runners, polled continuously.
// Exit is nonzero if any job fails, any job's observed fraction ever
// decreases between scrapes, no live progress was ever observed, or the
// final scrape does not show every job at phase done, fraction 1.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "benchlib/datamation.h"
#include "common/table.h"
#include "obs/exposition.h"
#include "svc/sort_service.h"

using namespace alphasort;

namespace {

struct MonitorConfig {
  int jobs = 4;
  int running = 2;
  uint64_t records = 500000;
  uint64_t budget_mb = 32;
  uint64_t job_budget_mb = 16;
  int workers = 2;
  int interval_ms = 100;
  bool smoke = false;
  std::string expo_file;
  double watch_seconds = 0;  // --expo-file: 0 = one scrape and exit
};

// One job's row parsed back out of the exposition text.
struct JobRow {
  std::string phase;
  double fraction = 0;
  double bytes_per_s = 0;
  double eta_s = 0;
};

// Extracts the job="N" label value from a sample line, or -1.
long long JobLabel(const std::string& line) {
  const size_t at = line.find("job=\"");
  if (at == std::string::npos) return -1;
  return strtoll(line.c_str() + at + 5, nullptr, 10);
}

// Parses the per-job series out of one exposition scrape. The phase
// comes from the alphasort_job_info{job,phase} series, the numbers from
// their gauge samples.
std::map<uint64_t, JobRow> ParseJobs(const std::string& expo) {
  std::map<uint64_t, JobRow> rows;
  size_t start = 0;
  while (start < expo.size()) {
    size_t end = expo.find('\n', start);
    if (end == std::string::npos) end = expo.size();
    const std::string line = expo.substr(start, end - start);
    start = end + 1;
    if (line.empty() || line[0] == '#') continue;
    const long long job = JobLabel(line);
    if (job < 0) continue;
    const size_t sp = line.find_last_of(' ');
    const double value =
        sp == std::string::npos ? 0 : strtod(line.c_str() + sp + 1, nullptr);
    JobRow& row = rows[static_cast<uint64_t>(job)];
    if (line.compare(0, 22, "alphasort_job_fraction") == 0) {
      row.fraction = value;
    } else if (line.compare(0, 30, "alphasort_job_bytes_per_second") == 0) {
      row.bytes_per_s = value;
    } else if (line.compare(0, 25, "alphasort_job_eta_seconds") == 0) {
      row.eta_s = value;
    } else if (line.compare(0, 18, "alphasort_job_info") == 0) {
      const size_t at = line.find("phase=\"");
      if (at != std::string::npos) {
        const size_t close = line.find('"', at + 7);
        if (close != std::string::npos) {
          row.phase = line.substr(at + 7, close - at - 7);
        }
      }
    }
  }
  return rows;
}

// One net.job.* stage family's summary samples out of a scrape.
struct StageQuantiles {
  double p50 = 0, p95 = 0, p99 = 0;
  double count = 0;
  bool seen = false;
};

// Parses the alphasort_net_job_<stage>_us summary series (quantile
// samples and _count) out of one exposition scrape.
std::map<std::string, StageQuantiles> ParseStages(const std::string& expo) {
  static const char* kPrefix = "alphasort_net_job_";
  const size_t prefix_len = strlen(kPrefix);
  std::map<std::string, StageQuantiles> stages;
  size_t start = 0;
  while (start < expo.size()) {
    size_t end = expo.find('\n', start);
    if (end == std::string::npos) end = expo.size();
    const std::string line = expo.substr(start, end - start);
    start = end + 1;
    if (line.compare(0, prefix_len, kPrefix) != 0) continue;
    const size_t sp = line.find_last_of(' ');
    if (sp == std::string::npos) continue;
    const double value = strtod(line.c_str() + sp + 1, nullptr);
    const size_t q = line.find("{quantile=\"");
    if (q != std::string::npos) {
      StageQuantiles& s = stages[line.substr(prefix_len, q - prefix_len)];
      s.seen = true;
      const std::string quant = line.substr(q + 11, 4);
      if (quant.compare(0, 3, "0.5") == 0) s.p50 = value;
      if (quant == "0.95") s.p95 = value;
      if (quant == "0.99") s.p99 = value;
      continue;
    }
    const size_t count_at = line.rfind("_us_count ");
    if (count_at != std::string::npos && count_at > prefix_len) {
      StageQuantiles& s =
          stages[line.substr(prefix_len, count_at + 3 - prefix_len)];
      s.seen = true;
      s.count = value;
    }
  }
  return stages;
}

// Renders the per-stage latency table when the scrape carries any
// net.job.* stage series (it does once the first networked job
// completes server-side).
void PrintStages(const std::string& expo) {
  const std::map<std::string, StageQuantiles> stages = ParseStages(expo);
  if (stages.empty()) return;
  printf("net.job stage latency:  %-8s %10s %10s %10s %8s\n", "stage",
         "p50_us", "p95_us", "p99_us", "jobs");
  // Pipeline order, not map order — ingest feeds queue feeds sort...
  for (const char* name :
       {"ingest_us", "queue_us", "sort_us", "merge_us", "stream_us",
        "e2e_us"}) {
    auto it = stages.find(name);
    if (it == stages.end() || !it->second.seen) continue;
    printf("                        %-8.*s %10.0f %10.0f %10.0f %8.0f\n",
           int(strlen(name) - 3), name, it->second.p50, it->second.p95,
           it->second.p99, it->second.count);
  }
  printf("\n");
}

// --expo-file: the remote-monitor mode. No service is started; the
// scrape text is whatever the daemon last wrote, polled until
// --watch-seconds runs out (0 = a single scrape).
int RunFileScrape(const MonitorConfig& cfg) {
  printf("sort_top: scraping file %s every %dms\n\n",
         cfg.expo_file.c_str(), cfg.interval_ms);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(cfg.watch_seconds);
  for (;;) {
    FILE* f = fopen(cfg.expo_file.c_str(), "rb");
    if (f == nullptr) {
      fprintf(stderr, "sort_top: cannot read %s\n", cfg.expo_file.c_str());
      return 1;
    }
    std::string expo;
    char buf[1 << 16];
    size_t got;
    while ((got = fread(buf, 1, sizeof(buf), f)) > 0) expo.append(buf, got);
    fclose(f);

    const std::map<uint64_t, JobRow> rows = ParseJobs(expo);
    for (const auto& [id, row] : rows) {
      printf("job %-3llu %-8s %5.1f%%  %7.1f MB/s  eta %5.2fs\n",
             static_cast<unsigned long long>(id),
             row.phase.empty() ? "?" : row.phase.c_str(),
             100 * row.fraction, row.bytes_per_s / 1e6, row.eta_s);
    }
    if (!rows.empty()) printf("\n");
    PrintStages(expo);
    if (std::chrono::steady_clock::now() >= deadline) return 0;
    std::this_thread::sleep_for(std::chrono::milliseconds(cfg.interval_ms));
  }
}

int RunMonitor(const MonitorConfig& cfg) {
  std::unique_ptr<Env> mem = NewMemEnv();
  const RecordFormat format = kDatamationFormat;

  std::vector<std::string> inputs(cfg.jobs), outputs(cfg.jobs);
  for (int j = 0; j < cfg.jobs; ++j) {
    inputs[j] = StrFormat("top_in_%02d.dat", j);
    outputs[j] = StrFormat("top_out_%02d.dat", j);
    InputSpec spec;
    spec.path = inputs[j];
    spec.format = format;
    spec.num_records = cfg.records;
    spec.seed = 7000 + static_cast<uint64_t>(j);
    if (Status s = CreateInputFile(mem.get(), spec); !s.ok()) {
      fprintf(stderr, "input %s: %s\n", inputs[j].c_str(),
              s.ToString().c_str());
      return 1;
    }
  }

  svc::SortServiceOptions sopts;
  sopts.memory_budget = cfg.budget_mb << 20;
  sopts.max_running = cfg.running;
  sopts.max_queued = cfg.jobs;
  sopts.num_workers = cfg.workers;
  svc::SortService service(mem.get(), sopts);

  std::vector<SortJob> jobs;
  for (int j = 0; j < cfg.jobs; ++j) {
    SortOptions opts;
    opts.input_path = inputs[j];
    opts.output_path = outputs[j];
    opts.format = format;
    opts.memory_budget = cfg.job_budget_mb << 20;
    opts.io_chunk_bytes = 64 * 1024;
    opts.run_size_records = 10000;
    opts.scratch_path = "top_scratch";
    Result<SortJob> job = service.Submit(opts);
    if (!job.ok()) {
      fprintf(stderr, "submit %d: %s\n", j,
              job.status().ToString().c_str());
      return 1;
    }
    jobs.push_back(std::move(job).value());
  }
  printf("sort_top: scraping in-process registry\n");
  printf("%d jobs over %d runner(s), %llu MB service budget\n\n",
         cfg.jobs, cfg.running,
         static_cast<unsigned long long>(cfg.budget_mb));

  // The refresh loop: scrape, parse, render, until every job is done.
  // Smoke mode polls continuously so even short-lived jobs are observed
  // mid-flight and checks that each job's fraction never regresses.
  std::map<uint64_t, double> last_fraction;
  std::map<uint64_t, size_t> observations;
  size_t live_observations = 0;
  int failures = 0;
  for (;;) {
    bool all_done = true;
    for (auto& job : jobs) {
      if (!job.TryWait()) all_done = false;
    }
    const std::string expo = obs::RenderExposition();
    const std::map<uint64_t, JobRow> rows = ParseJobs(expo);
    for (const auto& [id, row] : rows) {
      ++observations[id];
      // Finished jobs stay in the scrape; only running ones count as
      // live progress.
      if (row.phase != "done" && row.phase != "failed") ++live_observations;
      auto [it, inserted] = last_fraction.emplace(id, row.fraction);
      if (!inserted) {
        if (row.fraction + 1e-9 < it->second) {
          fprintf(stderr,
                  "FAIL: job %llu fraction regressed %.4f -> %.4f\n",
                  static_cast<unsigned long long>(id), it->second,
                  row.fraction);
          ++failures;
        }
        it->second = row.fraction;
      }
    }
    if (!cfg.smoke && !rows.empty()) {
      for (const auto& [id, row] : rows) {
        printf("job %-3llu %-8s %5.1f%%  %7.1f MB/s  eta %5.2fs\n",
               static_cast<unsigned long long>(id),
               row.phase.empty() ? "?" : row.phase.c_str(),
               100 * row.fraction, row.bytes_per_s / 1e6, row.eta_s);
      }
      printf("\n");
      PrintStages(expo);
    }
    if (all_done || failures > 0) break;
    if (!cfg.smoke) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(cfg.interval_ms));
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  }

  for (int j = 0; j < cfg.jobs; ++j) {
    const SortResult& r = jobs[j].Wait();
    if (!r.status.ok()) {
      fprintf(stderr, "FAIL: job %llu: %s\n",
              static_cast<unsigned long long>(jobs[j].id()),
              r.status.ToString().c_str());
      ++failures;
      continue;
    }
    if (Status v =
            ValidateSortedFile(mem.get(), inputs[j], outputs[j], format);
        !v.ok()) {
      fprintf(stderr, "FAIL: job %llu output invalid: %s\n",
              static_cast<unsigned long long>(jobs[j].id()),
              v.ToString().c_str());
      ++failures;
    }
    printf("job %llu done (%.1f MB in %.2fs)%s\n",
           static_cast<unsigned long long>(jobs[j].id()),
           r.metrics.bytes_out / 1e6, r.metrics.total_s,
           jobs[j].down_negotiated() ? " [down-negotiated]" : "");
  }

  // Terminal state through the exposition: the progress registry keeps
  // each finished job, so a final scrape shows it at phase done,
  // fraction 1.
  const std::map<uint64_t, JobRow> final_rows =
      ParseJobs(obs::RenderExposition());
  for (auto& job : jobs) {
    auto it = final_rows.find(job.id());
    if (it == final_rows.end() || it->second.phase != "done" ||
        it->second.fraction != 1.0) {
      fprintf(stderr,
              "FAIL: final scrape shows job %llu at phase %s, fraction "
              "%.4f; wanted done, 1\n",
              static_cast<unsigned long long>(job.id()),
              it == final_rows.end() ? "(absent)" : it->second.phase.c_str(),
              it == final_rows.end() ? -1.0 : it->second.fraction);
      ++failures;
    }
  }
  if (cfg.smoke && live_observations == 0) {
    fprintf(stderr,
            "FAIL: no live job progress was ever observed in the "
            "exposition\n");
    ++failures;
  }
  printf("\n%zu live scrape observations across %zu jobs\n",
         live_observations, observations.size());
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  MonitorConfig cfg;
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
    } else if (strcmp(argv[i], "--interval-ms") == 0 && i + 1 < argc) {
      cfg.interval_ms = atoi(argv[++i]);
    } else if (strcmp(argv[i], "--smoke") == 0) {
      cfg.smoke = true;
    } else if (strcmp(argv[i], "--expo-file") == 0 && i + 1 < argc) {
      cfg.expo_file = argv[++i];
    } else if (strcmp(argv[i], "--watch-seconds") == 0 && i + 1 < argc) {
      cfg.watch_seconds = atof(argv[++i]);
    } else {
      fprintf(stderr,
              "usage: %s [--jobs N] [--running K] [--records N] "
              "[--budget-mb MB] [--job-budget-mb MB] [--workers K] "
              "[--interval-ms MS] [--smoke] | "
              "--expo-file FILE [--interval-ms MS] [--watch-seconds S]\n",
              argv[0]);
      return 2;
    }
  }
  if (!cfg.expo_file.empty()) return RunFileScrape(cfg);
  if (cfg.smoke) {
    cfg.jobs = 4;
    cfg.running = 2;
    cfg.records = 300000;
    cfg.budget_mb = 32;
    cfg.job_budget_mb = 16;
  }
  return RunMonitor(cfg);
}
