#ifndef ALPHASORT_OBS_TRACE_H_
#define ALPHASORT_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace alphasort {
namespace obs {

struct JsonValue;

// Span-based trace recorder exporting Chrome trace-event JSON.
//
// The pipeline's whole argument (paper §7) is overlap: striped reads
// proceed while workers QuickSort runs, and the merge's gather proceeds
// while earlier output buffers drain. A wall-clock phase breakdown cannot
// show overlap; a per-thread span timeline can. The recorder collects
// begin/end events into a bounded lock-free ring buffer and serializes
// them in the Chrome trace-event format, so a sort's execution opens
// directly in chrome://tracing or https://ui.perfetto.dev.
//
// Tracing is off by default and costs one relaxed atomic load per
// instrumentation point when off. Enable it by installing a recorder:
//
//   obs::TraceRecorder recorder;
//   recorder.Install();
//   ... run the sort ...
//   obs::TraceRecorder::Uninstall();
//   std::string json = recorder.ToChromeJson();

// Small dense id for the calling thread (0, 1, 2, ... in first-use
// order), stable for the thread's lifetime. Used as the Chrome "tid".
int CurrentThreadId();

// The ambient job id of the calling thread (0 = no job). Concurrent
// jobs share one ChorePool and one trace ring, so a thread id alone
// cannot attribute a span; every span, log event, and progress update
// reads this thread-local instead. Executors set it on the job's root
// thread for the whole run, and each chore lambda re-establishes it on
// whichever worker picked the chore up.
uint64_t CurrentJobId();

// RAII job-id scope: sets the calling thread's ambient job id, restores
// the previous value on destruction (nesting restores correctly when an
// executor thread runs another job's chore inline).
class ScopedJobId {
 public:
  explicit ScopedJobId(uint64_t job_id);
  ~ScopedJobId();

  ScopedJobId(const ScopedJobId&) = delete;
  ScopedJobId& operator=(const ScopedJobId&) = delete;

 private:
  const uint64_t previous_;
};

// The ambient distributed trace id of the calling thread (0 = none).
// Where the job id attributes work *within* a process, the trace id
// follows one request *across* processes: a client mints it, carries it
// over the wire in the SUBMIT frame, and the server re-establishes it
// around everything the job touches, so client spans and server spans
// join on one id (examples/trace_merge). Stamped onto trace events and
// log events exactly like the job id.
uint64_t CurrentTraceId();

// RAII trace-id scope, the cross-process sibling of ScopedJobId. Every
// chore lambda that re-establishes the job id re-establishes this too.
class ScopedTraceId {
 public:
  explicit ScopedTraceId(uint64_t trace_id);
  ~ScopedTraceId();

  ScopedTraceId(const ScopedTraceId&) = delete;
  ScopedTraceId& operator=(const ScopedTraceId&) = delete;

 private:
  const uint64_t previous_;
};

struct TraceEvent {
  enum class Type : uint8_t {
    kComplete,   // Chrome ph:"X" — a span with a duration
    kInstant,    // Chrome ph:"i" — a point in time
    kCounter,    // Chrome ph:"C" — a sampled value (queue depth)
    kClockSync,  // ph:"i" carrying a local/remote raw-clock pair
  };

  // `name` and `category` must be string literals (or otherwise outlive
  // the recorder): events store the pointer, not a copy, so recording
  // never allocates.
  const char* name = nullptr;
  const char* category = nullptr;
  Type type = Type::kComplete;
  int tid = 0;
  uint64_t ts_us = 0;   // microseconds since the recorder's epoch
  uint64_t dur_us = 0;  // kComplete; kClockSync repurposes as local_raw_us
  int64_t value = 0;    // kCounter; kClockSync repurposes as remote_raw_us
  uint64_t job = 0;     // ambient CurrentJobId() at record time, 0 = none
  uint64_t trace = 0;   // ambient CurrentTraceId() at record time, 0 = none
};

class TraceRecorder {
 public:
  // `capacity` bounds memory: the ring keeps the most recent `capacity`
  // events and counts the rest as dropped.
  explicit TraceRecorder(size_t capacity = size_t{1} << 16);

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  // Makes this recorder the process-global trace sink. At most one
  // recorder is installed at a time; installing replaces the previous
  // one. The recorder must outlive its installation.
  void Install();
  static void Uninstall();

  // The installed recorder, or nullptr when tracing is off. Relaxed
  // single atomic load: cheap enough for per-IO call sites.
  static TraceRecorder* Current() {
    return current_.load(std::memory_order_acquire);
  }

  // Microseconds since this recorder was constructed.
  uint64_t NowUs() const;

  void AddComplete(const char* name, const char* category, int tid,
                   uint64_t ts_us, uint64_t dur_us);
  void AddInstant(const char* name, const char* category);
  void AddCounter(const char* name, int64_t value);

  // Records a clock-sync point: one instant carrying this process's raw
  // steady-clock reading (TraceRawNowUs, taken now, from the same clock
  // sample as the event timestamp) alongside the peer's raw reading as
  // exchanged over the wire. examples/trace_merge uses a pair of these
  // — one per process, each holding the other side's send time — to
  // recover each recorder's epoch and the NTP-style clock skew, mapping
  // two trace files onto one timeline.
  void AddClockSync(const char* name, uint64_t remote_raw_us);

  // Events currently retained (<= capacity) and events overwritten after
  // the ring filled.
  size_t size() const;
  uint64_t dropped() const;

  // Serializes retained events, sorted by timestamp, as a Chrome
  // trace-event JSON object: {"traceEvents":[...]}.
  std::string ToChromeJson() const;

 private:
  void Add(TraceEvent ev);

  static std::atomic<TraceRecorder*> current_;

  const std::chrono::steady_clock::time_point epoch_;
  std::vector<TraceEvent> ring_;
  std::atomic<uint64_t> next_{0};  // total events ever added
};

// RAII span: records a kComplete event covering its lifetime, attributed
// to the constructing thread. Nesting works naturally (Chrome renders
// enclosing spans as stacked slices). When no recorder is installed at
// construction, both constructor and destructor are a few instructions.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, const char* category = "sort")
      : recorder_(TraceRecorder::Current()),
        name_(name),
        category_(category),
        start_us_(recorder_ != nullptr ? recorder_->NowUs() : 0) {}

  ~TraceSpan() {
    if (recorder_ != nullptr) {
      recorder_->AddComplete(name_, category_, CurrentThreadId(), start_us_,
                             recorder_->NowUs() - start_us_);
    }
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  TraceRecorder* const recorder_;
  const char* const name_;
  const char* const category_;
  const uint64_t start_us_;
};

// Emits a counter sample if tracing is on (e.g. IO queue depth).
inline void TraceCounter(const char* name, int64_t value) {
  if (TraceRecorder* rec = TraceRecorder::Current()) {
    rec->AddCounter(name, value);
  }
}

// Raw steady-clock microseconds, independent of any recorder's epoch.
// This is the value HELLO frames exchange for clock alignment: both
// sides of a connection sample the same kind of clock, and a recorder's
// epoch can be recovered as (clock-sync local_raw_us - clock-sync ts).
uint64_t TraceRawNowUs();

// Records a clock-sync event if tracing is on (see AddClockSync).
inline void TraceClockSync(const char* name, uint64_t remote_raw_us) {
  if (TraceRecorder* rec = TraceRecorder::Current()) {
    rec->AddClockSync(name, remote_raw_us);
  }
}

// Checks that `json` is a Chrome trace. It parses `json` once with
// ParseJson, then checks the shape: either a bare event array or an
// object whose "traceEvents" member is an array, where every event is an
// object carrying "name", "ph", "ts", "pid" and "tid". When `doc` is not
// null it receives the parsed document, so a caller that goes on to read
// the events (trace_lint, trace_merge) does not parse the bytes again.
// A trace nesting deeper than ParseJson's 32-level cap is rejected; the
// recorder's events nest 3 levels deep.
Status ValidateChromeTraceJson(const std::string& json,
                               JsonValue* doc = nullptr);

}  // namespace obs
}  // namespace alphasort

#endif  // ALPHASORT_OBS_TRACE_H_
