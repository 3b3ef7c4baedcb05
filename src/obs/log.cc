#include "obs/log.h"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "common/table.h"
#include "obs/json.h"

namespace alphasort {
namespace obs {

const char* LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "debug";
    case LogLevel::kInfo:
      return "info";
    case LogLevel::kWarn:
      return "warn";
    case LogLevel::kError:
      return "error";
    case LogLevel::kOff:
      return "off";
  }
  return "unknown";
}

uint64_t LogWallTimeUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

namespace {

void CopyTruncated(const char* src, char* dst, size_t cap) {
  size_t i = 0;
  for (; src[i] != '\0' && i + 1 < cap; ++i) dst[i] = src[i];
  dst[i] = '\0';
}

}  // namespace

void LogEvent::AddString(const char* key, const char* value) {
  if (num_fields >= kMaxFields) return;
  Field& f = fields[num_fields++];
  CopyTruncated(key, f.key, kKeyCap);
  CopyTruncated(value, f.value, kValueCap);
  f.is_string = true;
}

void LogEvent::AddNumber(const char* key, const char* formatted) {
  if (num_fields >= kMaxFields) return;
  Field& f = fields[num_fields++];
  CopyTruncated(key, f.key, kKeyCap);
  CopyTruncated(formatted, f.value, kValueCap);
  f.is_string = false;
}

std::string FormatLogText(const LogEvent& ev) {
  std::string out = StrFormat(
      "ts=%llu level=%s event=%s tid=%d",
      static_cast<unsigned long long>(ev.ts_us), LogLevelName(ev.level),
      ev.event == nullptr ? "?" : ev.event, ev.tid);
  if (ev.job_id != 0) {
    out += StrFormat(" job=%llu",
                     static_cast<unsigned long long>(ev.job_id));
  }
  if (ev.trace_id != 0) {
    out += StrFormat(" trace=%llu",
                     static_cast<unsigned long long>(ev.trace_id));
  }
  for (int i = 0; i < ev.num_fields; ++i) {
    out += StrFormat(" %s=%s", ev.fields[i].key, ev.fields[i].value);
  }
  if (ev.suppressed != 0) {
    out += StrFormat(" suppressed=%llu",
                     static_cast<unsigned long long>(ev.suppressed));
  }
  return out;
}

std::string FormatLogJson(const LogEvent& ev) {
  std::string out = StrFormat(
      "{\"ts_us\":%llu,\"level\":\"%s\",\"event\":\"",
      static_cast<unsigned long long>(ev.ts_us), LogLevelName(ev.level));
  AppendJsonEscaped(ev.event == nullptr ? "?" : ev.event, &out);
  out += StrFormat("\",\"tid\":%d", ev.tid);
  if (ev.job_id != 0) {
    out += StrFormat(",\"job\":%llu",
                     static_cast<unsigned long long>(ev.job_id));
  }
  if (ev.trace_id != 0) {
    out += StrFormat(",\"trace\":%llu",
                     static_cast<unsigned long long>(ev.trace_id));
  }
  if (ev.suppressed != 0) {
    out += StrFormat(",\"suppressed\":%llu",
                     static_cast<unsigned long long>(ev.suppressed));
  }
  if (ev.num_fields > 0) {
    out += ",\"fields\":{";
    for (int i = 0; i < ev.num_fields; ++i) {
      if (i != 0) out += ",";
      out += "\"";
      AppendJsonEscaped(ev.fields[i].key, &out);
      out += "\":";
      if (ev.fields[i].is_string) {
        out += "\"";
        AppendJsonEscaped(ev.fields[i].value, &out);
        out += "\"";
      } else {
        // Numbers were formatted by the builder; an empty capture (never
        // produced, but keep the output parseable) becomes 0.
        out += ev.fields[i].value[0] == '\0' ? "0" : ev.fields[i].value;
      }
    }
    out += "}";
  }
  out += "}";
  return out;
}

void StderrLogSink::Write(const LogEvent& ev) {
  const std::string line = FormatLogText(ev);
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(stderr, "%s\n", line.c_str());
}

JsonlFileLogSink::JsonlFileLogSink(const std::string& path)
    : file_(std::fopen(path.c_str(), "a")) {}

JsonlFileLogSink::~JsonlFileLogSink() {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

void JsonlFileLogSink::Write(const LogEvent& ev) {
  const std::string line = FormatLogJson(ev);
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) return;
  std::fprintf(file_, "%s\n", line.c_str());
  // Per-line flush: a wedged or crashed process leaves complete records,
  // which is the whole point of an operational log.
  std::fflush(file_);
}

void MemoryLogSink::Write(const LogEvent& ev) {
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(ev);
}

std::vector<LogEvent> MemoryLogSink::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

size_t MemoryLogSink::count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

Logger::Logger() : ring_(4096) {}

Logger* Logger::Global() {
  static Logger* logger = new Logger();
  return logger;
}

void Logger::AddSink(LogSink* sink) {
  std::lock_guard<std::mutex> lock(sink_mu_);
  sinks_.push_back(sink);
}

void Logger::RemoveSink(LogSink* sink) {
  std::lock_guard<std::mutex> lock(sink_mu_);
  for (auto it = sinks_.begin(); it != sinks_.end(); ++it) {
    if (*it == sink) {
      sinks_.erase(it);
      return;
    }
  }
}

void Logger::Dispatch(const LogEvent& ev) {
  // Ring first, under its own mutex: once the ring wraps, a writer and a
  // Tail reader can land on the same slot, and a LogEvent copy is not
  // atomic — unsynchronized they'd produce a torn event. The ring mutex
  // is never held across sink writes, so the last N events stay
  // recoverable even when no sink is installed or a sink is wedged.
  {
    std::lock_guard<std::mutex> lock(ring_mu_);
    ring_[next_ % ring_.size()] = ev;
    ++next_;
  }
  emitted_.fetch_add(1, std::memory_order_relaxed);

  std::lock_guard<std::mutex> lock(sink_mu_);
  for (LogSink* sink : sinks_) sink->Write(ev);
}

std::vector<LogEvent> Logger::Tail(size_t max) const {
  std::lock_guard<std::mutex> lock(ring_mu_);
  const uint64_t total = next_;
  const uint64_t kept = std::min<uint64_t>(total, ring_.size());
  const uint64_t want = std::min<uint64_t>(kept, max);
  std::vector<LogEvent> out;
  out.reserve(static_cast<size_t>(want));
  for (uint64_t i = total - want; i < total; ++i) {
    out.push_back(ring_[i % ring_.size()]);
  }
  return out;
}

bool LogRateLimiter::Admit(uint64_t now_us, uint64_t* suppressed_out) {
  uint64_t window = window_start_us_.load(std::memory_order_relaxed);
  if (now_us - window >= window_us_) {
    // One thread rotates the window; losers just count into whichever
    // window won (the cap is approximate by design — it bounds sink
    // traffic, it is not an SLA).
    if (window_start_us_.compare_exchange_strong(
            window, now_us, std::memory_order_relaxed)) {
      in_window_.store(0, std::memory_order_relaxed);
    }
  }
  const uint32_t n = in_window_.fetch_add(1, std::memory_order_relaxed);
  if (n < max_per_window_) {
    *suppressed_out =
        pending_suppressed_.exchange(0, std::memory_order_relaxed);
    return true;
  }
  pending_suppressed_.fetch_add(1, std::memory_order_relaxed);
  total_suppressed_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

LogMessage::LogMessage(LogLevel level, const char* event,
                       uint64_t suppressed) {
  ev_.level = level;
  ev_.event = event;
  ev_.ts_us = LogWallTimeUs();
  ev_.tid = CurrentThreadId();
  ev_.job_id = CurrentJobId();
  ev_.trace_id = CurrentTraceId();
  ev_.suppressed = suppressed;
}

LogMessage::~LogMessage() { Logger::Global()->Dispatch(ev_); }

LogMessage& LogMessage::Str(const char* key, const char* value) {
  ev_.AddString(key, value);
  return *this;
}

LogMessage& LogMessage::Str(const char* key, const std::string& value) {
  ev_.AddString(key, value.c_str());
  return *this;
}

LogMessage& LogMessage::U64(const char* key, uint64_t value) {
  ev_.AddNumber(
      key,
      StrFormat("%llu", static_cast<unsigned long long>(value)).c_str());
  return *this;
}

LogMessage& LogMessage::I64(const char* key, int64_t value) {
  ev_.AddNumber(
      key, StrFormat("%lld", static_cast<long long>(value)).c_str());
  return *this;
}

LogMessage& LogMessage::F64(const char* key, double value) {
  ev_.AddNumber(key, JsonNumber(value).c_str());
  return *this;
}

LogMessage& LogMessage::Bool(const char* key, bool value) {
  ev_.AddNumber(key, value ? "true" : "false");
  return *this;
}

Status ValidateLogJsonl(
    const std::string& content,
    const std::function<void(const JsonValue& event)>& on_event) {
  size_t parsed = 0;
  ALPHASORT_RETURN_IF_ERROR(ForEachJsonLine(
      content, [&](size_t line_no, const JsonValue& root) -> Status {
        if (!root.IsObject()) {
          return Status::Corruption(
              StrFormat("log line %zu is not a JSON object", line_no));
        }
        const JsonValue* ts = root.Find("ts_us");
        if (ts == nullptr || !ts->IsNumber()) {
          return Status::Corruption(
              StrFormat("log line %zu missing numeric \"ts_us\"", line_no));
        }
        const JsonValue* level = root.Find("level");
        if (level == nullptr || !level->IsString()) {
          return Status::Corruption(
              StrFormat("log line %zu missing string \"level\"", line_no));
        }
        const std::string& lv = level->string_value;
        if (lv != "debug" && lv != "info" && lv != "warn" && lv != "error") {
          return Status::Corruption(StrFormat(
              "log line %zu has unknown level \"%s\"", line_no, lv.c_str()));
        }
        const JsonValue* event = root.Find("event");
        if (event == nullptr || !event->IsString() ||
            event->string_value.empty()) {
          return Status::Corruption(
              StrFormat("log line %zu missing string \"event\"", line_no));
        }
        ++parsed;
        if (on_event) on_event(root);
        return Status::OK();
      }));
  if (parsed == 0) {
    return Status::Corruption("log capture contains no events");
  }
  return Status::OK();
}

}  // namespace obs
}  // namespace alphasort
