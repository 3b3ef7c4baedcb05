#ifndef ALPHASORT_OBS_LOG_H_
#define ALPHASORT_OBS_LOG_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/trace.h"

namespace alphasort {
namespace obs {

struct JsonValue;

// Leveled, structured key-value event log for the sort pipeline and the
// service on top of it.
//
// Reports and traces are post-mortem; the log is the live narrative: one
// event per state transition (job submitted, admitted, down-negotiated,
// cancelled, retried IO, phase entered), each carrying a level, a
// wall-clock timestamp, the emitting thread, the ambient job id, and a
// small set of typed key-value fields. Events land in a bounded
// in-memory ring (crash forensics: the last N events survive in memory)
// and are then fanned out to the installed sinks.
//
// Cost discipline mirrors the tracer: a disabled level is one relaxed
// atomic load and a branch at the call site — nothing is formatted, no
// fields are evaluated. Every call site is additionally rate-limited
// (token window per site), so a retry storm cannot flood a sink; the
// count of suppressed events is attached to the next event that passes.
//
// Usage (the macro declares the per-site limiter):
//
//   ALPHASORT_LOG(kInfo, "svc.admit").U64("job", id).U64("bytes", b);
//
// Sinks are process-global like the metrics registry: install a
// JsonlFileLogSink for machine-readable capture, a StderrLogSink for a
// human tail, a MemoryLogSink in tests.

enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarn = 2,
  kError = 3,
  kOff = 4,  // threshold only; events are never emitted at kOff
};

const char* LogLevelName(LogLevel level);

// Microseconds since the Unix epoch (wall clock — log events are
// correlated across processes, unlike trace timestamps which are
// relative to the recorder's steady-clock epoch).
uint64_t LogWallTimeUs();

// One structured event. Plain data with fixed-size storage so the ring
// buffer never allocates on the emit path; field keys and values are
// truncated to their capacity (a truncated value still identifies the
// event — these are operational breadcrumbs, not payload transport).
struct LogEvent {
  static constexpr int kMaxFields = 8;
  static constexpr size_t kKeyCap = 24;
  static constexpr size_t kValueCap = 56;

  struct Field {
    char key[kKeyCap] = {0};
    char value[kValueCap] = {0};
    bool is_string = false;  // JSON rendering: quoted vs raw number
  };

  LogLevel level = LogLevel::kInfo;
  // `event` must be a string literal (or otherwise outlive the logger):
  // the ring stores the pointer, as the trace ring does for span names.
  const char* event = nullptr;
  uint64_t ts_us = 0;   // wall clock, microseconds since epoch
  int tid = 0;          // obs::CurrentThreadId()
  uint64_t job_id = 0;  // ambient obs::CurrentJobId(), 0 = none
  // Ambient obs::CurrentTraceId(), 0 = none. Rendered as "trace" so log
  // events join client and server captures the way merged trace spans do.
  uint64_t trace_id = 0;
  // Events the rate limiter dropped at this call site since the last
  // event that passed; attached so suppression is visible in the stream.
  uint64_t suppressed = 0;
  int num_fields = 0;
  Field fields[kMaxFields];

  // Appends one field; silently ignored past kMaxFields.
  void AddString(const char* key, const char* value);
  void AddNumber(const char* key, const char* formatted);
};

// "ts=... level=info event=svc.admit job=3 k=v ..." one-line rendering.
std::string FormatLogText(const LogEvent& ev);

// One JSON object (no trailing newline): {"ts_us":...,"level":"info",
// "event":"svc.admit","tid":0,"job":3,"fields":{...}}.
std::string FormatLogJson(const LogEvent& ev);

// A sink consumes fully-built events. Write() may be called from any
// thread; implementations serialize internally.
class LogSink {
 public:
  virtual ~LogSink() = default;
  virtual void Write(const LogEvent& ev) = 0;
};

// Human tail on stderr, one FormatLogText line per event.
class StderrLogSink : public LogSink {
 public:
  void Write(const LogEvent& ev) override;

 private:
  std::mutex mu_;
};

// Machine-readable capture: one FormatLogJson object per line (JSONL).
// Flushes per line so a crashed process leaves complete records.
class JsonlFileLogSink : public LogSink {
 public:
  explicit JsonlFileLogSink(const std::string& path);
  ~JsonlFileLogSink() override;

  // False when the file could not be opened; Write() is then a no-op.
  bool ok() const { return file_ != nullptr; }

  void Write(const LogEvent& ev) override;

 private:
  std::mutex mu_;
  std::FILE* file_ = nullptr;
};

// Test sink: retains every event.
class MemoryLogSink : public LogSink {
 public:
  void Write(const LogEvent& ev) override;

  std::vector<LogEvent> events() const;
  size_t count() const;

 private:
  mutable std::mutex mu_;
  std::vector<LogEvent> events_;
};

// Process-global logger: level threshold, bounded in-memory ring, and
// the installed sinks.
class Logger {
 public:
  // Never destroyed, like MetricsRegistry::Global().
  static Logger* Global();

  // Threshold check on the fast path: one relaxed load and a compare.
  bool Enabled(LogLevel level) const {
    return static_cast<int>(level) >= level_.load(std::memory_order_relaxed);
  }
  void SetLevel(LogLevel level) {
    level_.store(static_cast<int>(level), std::memory_order_relaxed);
  }
  LogLevel level() const {
    return static_cast<LogLevel>(level_.load(std::memory_order_relaxed));
  }

  // Sinks are borrowed, not owned, and must outlive their installation.
  void AddSink(LogSink* sink);
  void RemoveSink(LogSink* sink);

  // Appends to the ring (under the ring mutex, never held across sink
  // IO) and fans out to the sinks (under the sink mutex — stderr/file
  // writes serialize anyway). Called by the LogMessage destructor; the
  // level/rate checks have already passed.
  void Dispatch(const LogEvent& ev);

  // The most recent `max` events, oldest first. For tests and crash
  // handlers; shares the ring mutex with writers so a wrapped ring
  // cannot hand back a torn event.
  std::vector<LogEvent> Tail(size_t max) const;

  uint64_t events_emitted() const {
    return emitted_.load(std::memory_order_relaxed);
  }

 private:
  Logger();

  std::atomic<int> level_{static_cast<int>(LogLevel::kInfo)};
  std::atomic<uint64_t> emitted_{0};

  mutable std::mutex ring_mu_;
  std::vector<LogEvent> ring_;  // guarded by ring_mu_
  uint64_t next_ = 0;           // guarded by ring_mu_

  mutable std::mutex sink_mu_;
  std::vector<LogSink*> sinks_;
};

// Per-call-site token window: at most `max_per_window` events per
// `window_us`; excess events are counted and surfaced as
// LogEvent::suppressed on the next event that passes. Lock-free.
class LogRateLimiter {
 public:
  explicit LogRateLimiter(uint32_t max_per_window = 128,
                          uint64_t window_us = 1000000)
      : max_per_window_(max_per_window), window_us_(window_us) {}

  // True when the event may be emitted; fills `*suppressed_out` with the
  // number of events dropped at this site since the last admit.
  bool Admit(uint64_t now_us, uint64_t* suppressed_out);

  uint64_t total_suppressed() const {
    return total_suppressed_.load(std::memory_order_relaxed);
  }

 private:
  const uint32_t max_per_window_;
  const uint64_t window_us_;
  std::atomic<uint64_t> window_start_us_{0};
  std::atomic<uint32_t> in_window_{0};
  std::atomic<uint64_t> pending_suppressed_{0};
  std::atomic<uint64_t> total_suppressed_{0};
};

// Builder for one event; the destructor dispatches. Constructed only
// after the level and rate checks pass (see ALPHASORT_LOG), so field
// formatting is never paid for filtered events.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* event, uint64_t suppressed);
  ~LogMessage();

  LogMessage& Str(const char* key, const char* value);
  LogMessage& Str(const char* key, const std::string& value);
  LogMessage& U64(const char* key, uint64_t value);
  LogMessage& I64(const char* key, int64_t value);
  LogMessage& F64(const char* key, double value);
  LogMessage& Bool(const char* key, bool value);

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

 private:
  LogEvent ev_;
};

// The one instrumentation macro. Declares a static per-site rate
// limiter; the whole statement is one relaxed load + branch when the
// level is disabled. Expands to an if/else chain so a dangling-else
// cannot capture surrounding code, and yields a LogMessage to chain
// field setters onto:
//
//   ALPHASORT_LOG(kWarn, "io.retry").U64("attempt", n).Str("op", "read");
#define ALPHASORT_LOG(severity, event_name)                                  \
  if (!::alphasort::obs::Logger::Global()->Enabled(                          \
          ::alphasort::obs::LogLevel::severity)) {                           \
  } else if (::alphasort::obs::internal::LogAdmitToken _alog_tok =           \
                 ::alphasort::obs::internal::AdmitAtSite([]() ->             \
                     ::alphasort::obs::LogRateLimiter& {                     \
                       static ::alphasort::obs::LogRateLimiter limiter;      \
                       return limiter;                                       \
                     }());                                                   \
             !_alog_tok.allowed) {                                           \
  } else                                                                     \
    ::alphasort::obs::LogMessage(::alphasort::obs::LogLevel::severity,       \
                                 (event_name), _alog_tok.suppressed)

namespace internal {

struct LogAdmitToken {
  bool allowed = false;
  uint64_t suppressed = 0;
};

inline LogAdmitToken AdmitAtSite(LogRateLimiter& limiter) {
  LogAdmitToken tok;
  tok.allowed = limiter.Admit(LogWallTimeUs(), &tok.suppressed);
  return tok;
}

}  // namespace internal

// Validates JSONL log capture: every non-empty line must parse as a JSON
// object carrying numeric "ts_us", string "level" (a known level name),
// and string "event". `on_event`, when set, sees each valid line's
// parsed object, so a caller that reads the events (log_lint) parses the
// capture once. Used by log_lint and the tests.
Status ValidateLogJsonl(
    const std::string& content,
    const std::function<void(const JsonValue& event)>& on_event = nullptr);

}  // namespace obs
}  // namespace alphasort

#endif  // ALPHASORT_OBS_LOG_H_
