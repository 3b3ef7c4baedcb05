#ifndef ALPHASORT_OBS_EXPOSITION_H_
#define ALPHASORT_OBS_EXPOSITION_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "obs/progress.h"

namespace alphasort {
namespace obs {

struct JsonValue;

// Point-in-time text exposition of the whole observability surface —
// every registry counter, gauge, and histogram plus per-job progress
// (live jobs and ProgressRegistry's kept finished ones) — in the
// Prometheus text format (version 0.0.4), so a scraper, a curl loop, or
// examples/sort_top can watch a running service without bespoke
// protocols:
//
//   # TYPE alphasort_svc_jobs_running gauge
//   alphasort_svc_jobs_running 3
//   # TYPE alphasort_job_fraction gauge
//   alphasort_job_fraction{job="7"} 0.42
//
// Metric names are sanitized ('.' and any other illegal character
// become '_') and prefixed "alphasort_". Histograms render as summaries
// (p50/p95/p99 quantiles plus _sum and _count).

// Renders the global registry and ProgressRegistry's live and kept
// finished jobs.
std::string RenderExposition();

// Deterministic variant for tests and embedding: renders exactly the
// given snapshot and job list.
std::string RenderExposition(const RegistrySnapshot& registry,
                             const std::vector<JobProgress>& jobs);

// Prometheus-compatible metric name from a registry name:
// "svc.jobs_running" -> "alphasort_svc_jobs_running".
std::string SanitizeMetricName(const std::string& name);

// Checks `text` against the exposition grammar: every line is a
// comment, a "# TYPE <name> <type>" declaration, or a
// "name{labels} value" sample whose family was declared by a preceding
// TYPE line; names and labels match the Prometheus charset; values
// parse as numbers. Requires at least one sample. This is the format
// validator the CI smoke gate round-trips a scrape through.
Status ValidateExpositionText(const std::string& text);

// One flight-recorder record: a compact JSON object with a wall-clock
// timestamp, the progress of every live job and every kept finished one
// (ProgressRegistry), and the nonzero counters and gauges. Appended as
// one JSONL line per tick.
std::string RenderFlightRecord();

// Validates a flight-recorder capture: every non-empty line parses as a
// JSON object with numeric "ts_ms" and a "jobs" array. `on_record`, when
// set, sees each valid line's parsed object, so expo_lint --flight
// replays the capture from the same single parse.
Status ValidateFlightRecorderJsonl(
    const std::string& content,
    const std::function<void(const JsonValue& record)>& on_record = nullptr);

// Periodically appends RenderFlightRecord() lines to a bounded JSONL
// file so a crashed or wedged sort leaves a timeline: the last record
// holds every live job's last-known phase and fraction. The file is
// bounded by rotation — when it passes max_bytes it is renamed to
// "<path>.1" (replacing any previous rotation) and restarted, so the
// recorder holds at most ~2x max_bytes of history.
class FlightRecorder {
 public:
  struct Options {
    std::string path;
    double interval_s = 0.25;
    uint64_t max_bytes = 4ull << 20;
  };

  explicit FlightRecorder(const Options& options);
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // Opens the file and starts the background tick thread.
  Status Start();

  // Writes one final record and stops the thread. Idempotent.
  void Stop();

  // Appends one record now (also usable without Start() for
  // deterministic captures in tests).
  Status RecordOnce();

 private:
  void Loop();
  Status AppendLocked(const std::string& line);

  const Options options_;
  std::mutex mu_;
  std::FILE* file_ = nullptr;
  uint64_t written_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;
  bool running_ = false;
};

}  // namespace obs
}  // namespace alphasort

#endif  // ALPHASORT_OBS_EXPOSITION_H_
