#include "obs/trace.h"

#include <algorithm>

#include "common/table.h"
#include "obs/json.h"

namespace alphasort {
namespace obs {

int CurrentThreadId() {
  static std::atomic<int> next_id{0};
  thread_local int id = next_id.fetch_add(1, std::memory_order_relaxed);
  return id;
}

namespace {
thread_local uint64_t current_job_id = 0;
thread_local uint64_t current_trace_id = 0;
}  // namespace

uint64_t CurrentJobId() { return current_job_id; }

ScopedJobId::ScopedJobId(uint64_t job_id) : previous_(current_job_id) {
  current_job_id = job_id;
}

ScopedJobId::~ScopedJobId() { current_job_id = previous_; }

uint64_t CurrentTraceId() { return current_trace_id; }

ScopedTraceId::ScopedTraceId(uint64_t trace_id)
    : previous_(current_trace_id) {
  current_trace_id = trace_id;
}

ScopedTraceId::~ScopedTraceId() { current_trace_id = previous_; }

uint64_t TraceRawNowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::atomic<TraceRecorder*> TraceRecorder::current_{nullptr};

TraceRecorder::TraceRecorder(size_t capacity)
    : epoch_(std::chrono::steady_clock::now()),
      ring_(capacity == 0 ? 1 : capacity) {}

void TraceRecorder::Install() {
  current_.store(this, std::memory_order_release);
}

void TraceRecorder::Uninstall() {
  current_.store(nullptr, std::memory_order_release);
}

uint64_t TraceRecorder::NowUs() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

void TraceRecorder::Add(TraceEvent ev) {
  // Claim a slot with one relaxed RMW; past capacity the ring wraps and
  // the oldest events are overwritten. Two writers can only collide on a
  // slot if one laps the other by a full ring, which would need more
  // concurrent events than threads exist — torn events are acceptable in
  // that pathological case, lost sorts are not.
  const uint64_t seq = next_.fetch_add(1, std::memory_order_relaxed);
  ring_[seq % ring_.size()] = ev;
}

void TraceRecorder::AddComplete(const char* name, const char* category,
                                int tid, uint64_t ts_us, uint64_t dur_us) {
  TraceEvent ev;
  ev.name = name;
  ev.category = category;
  ev.type = TraceEvent::Type::kComplete;
  ev.tid = tid;
  ev.ts_us = ts_us;
  ev.dur_us = dur_us;
  ev.job = CurrentJobId();
  ev.trace = CurrentTraceId();
  Add(ev);
}

void TraceRecorder::AddInstant(const char* name, const char* category) {
  TraceEvent ev;
  ev.name = name;
  ev.category = category;
  ev.type = TraceEvent::Type::kInstant;
  ev.tid = CurrentThreadId();
  ev.ts_us = NowUs();
  ev.job = CurrentJobId();
  ev.trace = CurrentTraceId();
  Add(ev);
}

void TraceRecorder::AddCounter(const char* name, int64_t value) {
  TraceEvent ev;
  ev.name = name;
  ev.category = "counter";
  ev.type = TraceEvent::Type::kCounter;
  ev.tid = CurrentThreadId();
  ev.ts_us = NowUs();
  ev.value = value;
  ev.job = CurrentJobId();
  ev.trace = CurrentTraceId();
  Add(ev);
}

void TraceRecorder::AddClockSync(const char* name, uint64_t remote_raw_us) {
  // One clock sample feeds both the trace-relative timestamp and the
  // raw reading, so epoch recovery (local_raw_us - ts) is exact rather
  // than off by the gap between two clock reads.
  const auto now = std::chrono::steady_clock::now();
  TraceEvent ev;
  ev.name = name;
  ev.category = "clock";
  ev.type = TraceEvent::Type::kClockSync;
  ev.tid = CurrentThreadId();
  ev.ts_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(now - epoch_)
          .count());
  ev.dur_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          now.time_since_epoch())
          .count());
  ev.value = static_cast<int64_t>(remote_raw_us);
  ev.job = CurrentJobId();
  ev.trace = CurrentTraceId();
  Add(ev);
}

size_t TraceRecorder::size() const {
  return static_cast<size_t>(std::min<uint64_t>(
      next_.load(std::memory_order_relaxed), ring_.size()));
}

uint64_t TraceRecorder::dropped() const {
  const uint64_t total = next_.load(std::memory_order_relaxed);
  return total > ring_.size() ? total - ring_.size() : 0;
}

std::string TraceRecorder::ToChromeJson() const {
  std::vector<TraceEvent> events;
  const size_t n = size();
  events.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (ring_[i].name != nullptr) events.push_back(ring_[i]);
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_us < b.ts_us;
                   });

  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& ev : events) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"";
    AppendJsonEscaped(ev.name, &out);
    out += "\",\"cat\":\"";
    AppendJsonEscaped(ev.category == nullptr ? "" : ev.category, &out);
    out += "\",";
    // Job and trace ids attribute events from concurrent jobs (and, via
    // the wire, from other processes) sharing one ring; 0 (no ambient
    // id) is omitted so single-sort traces stay byte-identical to the
    // previous format. `extra` holds the id members, comma-prefixed for
    // appending after an existing args member.
    std::string extra;
    if (ev.job != 0) {
      extra += StrFormat(",\"job\":%llu",
                         static_cast<unsigned long long>(ev.job));
    }
    if (ev.trace != 0) {
      extra += StrFormat(",\"trace_id\":%llu",
                         static_cast<unsigned long long>(ev.trace));
    }
    // Same members without the leading comma, for args that would
    // otherwise be empty (and omitted entirely).
    const std::string ids_only =
        extra.empty() ? "" : "\"args\":{" + extra.substr(1) + "},";
    switch (ev.type) {
      case TraceEvent::Type::kComplete:
        out += StrFormat(
            "\"ph\":\"X\",\"ts\":%llu,\"dur\":%llu,",
            static_cast<unsigned long long>(ev.ts_us),
            static_cast<unsigned long long>(ev.dur_us));
        out += ids_only;
        break;
      case TraceEvent::Type::kInstant:
        out += StrFormat("\"ph\":\"i\",\"s\":\"t\",\"ts\":%llu,",
                         static_cast<unsigned long long>(ev.ts_us));
        out += ids_only;
        break;
      case TraceEvent::Type::kCounter:
        out += StrFormat("\"ph\":\"C\",\"ts\":%llu,\"args\":{\"value\":%lld",
                         static_cast<unsigned long long>(ev.ts_us),
                         static_cast<long long>(ev.value));
        out += extra + "},";
        break;
      case TraceEvent::Type::kClockSync:
        out += StrFormat(
            "\"ph\":\"i\",\"s\":\"t\",\"ts\":%llu,"
            "\"args\":{\"local_raw_us\":%llu,\"remote_raw_us\":%llu",
            static_cast<unsigned long long>(ev.ts_us),
            static_cast<unsigned long long>(ev.dur_us),
            static_cast<unsigned long long>(ev.value));
        out += extra + "},";
        break;
    }
    out += StrFormat("\"pid\":1,\"tid\":%d}", ev.tid);
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

Status ValidateChromeTraceJson(const std::string& json, JsonValue* doc) {
  JsonValue local;
  if (doc == nullptr) doc = &local;
  ALPHASORT_RETURN_IF_ERROR(ParseJson(json, doc));
  const JsonValue* events = doc->IsArray() ? doc : doc->Find("traceEvents");
  if (events == nullptr || !events->IsArray()) {
    return Status::Corruption("trace JSON has no traceEvents array");
  }
  for (size_t i = 0; i < events->items.size(); ++i) {
    const JsonValue& ev = events->items[i];
    if (!ev.IsObject()) {
      return Status::Corruption(
          StrFormat("trace event %zu is not an object", i));
    }
    for (const char* required : {"name", "ph", "ts", "pid", "tid"}) {
      if (ev.Find(required) == nullptr) {
        return Status::Corruption(
            StrFormat("trace event %zu missing \"%s\"", i, required));
      }
    }
  }
  return Status::OK();
}

}  // namespace obs
}  // namespace alphasort
