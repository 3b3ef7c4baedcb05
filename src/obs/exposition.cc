#include "obs/exposition.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdlib>
#include <map>

#include "common/table.h"
#include "obs/json.h"

namespace alphasort {
namespace obs {

namespace {

bool IsNameStartChar(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':';
}

bool IsNameChar(char c) {
  return IsNameStartChar(c) || std::isdigit(static_cast<unsigned char>(c));
}

bool IsLabelNameChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

// Prometheus label-value escaping: backslash, double quote, newline.
std::string EscapeLabelValue(const std::string& value) {
  std::string out;
  for (char c : value) {
    if (c == '\\' || c == '"') {
      out.push_back('\\');
      out.push_back(c);
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

void AppendType(const std::string& name, const char* type,
                std::string* out) {
  *out += "# TYPE " + name + " " + type + "\n";
}

void AppendJobSample(const std::string& name, uint64_t job,
                     const std::string& extra_labels,
                     const std::string& value, std::string* out) {
  *out += name + "{job=\"" +
          StrFormat("%llu", static_cast<unsigned long long>(job)) + "\"" +
          extra_labels + "} " + value + "\n";
}

}  // namespace

std::string SanitizeMetricName(const std::string& name) {
  std::string out = "alphasort_";
  for (char c : name) {
    out.push_back(IsNameChar(c) ? c : '_');
  }
  return out;
}

std::string RenderExposition(const RegistrySnapshot& registry,
                             const std::vector<JobProgress>& jobs) {
  std::string out;

  // Counters and gauges: one family per registry entry, zero values
  // included — scrapers treat series presence as meaningful.
  for (const auto& [name, value] : registry.counters) {
    const std::string metric = SanitizeMetricName(name);
    AppendType(metric, "counter", &out);
    out += metric + " " +
           StrFormat("%llu", static_cast<unsigned long long>(value)) + "\n";
  }
  for (const auto& [name, value] : registry.gauges) {
    const std::string metric = SanitizeMetricName(name);
    AppendType(metric, "gauge", &out);
    out += metric + " " +
           StrFormat("%lld", static_cast<long long>(value)) + "\n";
  }

  // Histograms as summaries: precomputed quantiles, not raw buckets —
  // the registry's power-of-two buckets don't map onto Prometheus
  // histogram le= boundaries, and p50/p95/p99 is what the docs already
  // report everywhere else.
  for (const auto& [name, snap] : registry.histograms) {
    const std::string metric = SanitizeMetricName(name);
    AppendType(metric, "summary", &out);
    for (const double q : {0.5, 0.95, 0.99}) {
      out += metric + "{quantile=\"" + JsonNumber(q) + "\"} " +
             JsonNumber(snap.Percentile(q * 100)) + "\n";
    }
    out += metric + "_sum " +
           StrFormat("%llu", static_cast<unsigned long long>(snap.sum)) +
           "\n";
    out += metric + "_count " +
           StrFormat("%llu", static_cast<unsigned long long>(snap.count)) +
           "\n";
  }

  // Live and kept finished jobs: one series per job per facet, labelled
  // by job id. The phase is exposed twice — numerically (plot it) and as
  // a label on the info series (read it).
  if (!jobs.empty()) {
    AppendType("alphasort_job_phase", "gauge", &out);
    for (const JobProgress& j : jobs) {
      AppendJobSample("alphasort_job_phase", j.job_id, "",
                      StrFormat("%d", static_cast<int>(j.phase)), &out);
    }
    AppendType("alphasort_job_info", "gauge", &out);
    for (const JobProgress& j : jobs) {
      std::string labels =
          ",phase=\"" + EscapeLabelValue(SortPhaseName(j.phase)) + "\"";
      if (j.trace_id != 0) {
        labels += StrFormat(
            ",trace=\"%llu\"",
            static_cast<unsigned long long>(j.trace_id));
      }
      AppendJobSample("alphasort_job_info", j.job_id, labels, "1", &out);
    }
    AppendType("alphasort_job_fraction", "gauge", &out);
    for (const JobProgress& j : jobs) {
      AppendJobSample("alphasort_job_fraction", j.job_id, "",
                      JsonNumber(j.fraction), &out);
    }
    AppendType("alphasort_job_bytes_per_second", "gauge", &out);
    for (const JobProgress& j : jobs) {
      AppendJobSample("alphasort_job_bytes_per_second", j.job_id, "",
                      JsonNumber(j.bytes_per_s), &out);
    }
    AppendType("alphasort_job_eta_seconds", "gauge", &out);
    for (const JobProgress& j : jobs) {
      AppendJobSample("alphasort_job_eta_seconds", j.job_id, "",
                      JsonNumber(j.eta_s), &out);
    }
  }
  return out;
}

std::string RenderExposition() {
  return RenderExposition(
      MetricsRegistry::Global()->Snapshot(),
      ProgressRegistry::Global()->SnapshotWithFinished());
}

// ---------------------------------------------------------------------
// Format validation: a line-oriented pass over the grammar.

namespace {

class ExpositionChecker {
 public:
  explicit ExpositionChecker(const std::string& text) : text_(text) {}

  Status Check() {
    size_t pos = 0;
    size_t line_no = 0;
    size_t samples = 0;
    while (pos <= text_.size()) {
      const size_t eol = text_.find('\n', pos);
      if (eol == std::string::npos && pos >= text_.size()) break;
      const std::string line =
          text_.substr(pos, eol == std::string::npos ? std::string::npos
                                                     : eol - pos);
      pos = eol == std::string::npos ? text_.size() + 1 : eol + 1;
      ++line_no;
      if (line.empty()) continue;
      Status s = line[0] == '#' ? CheckComment(line) : CheckSample(line);
      if (!s.ok()) {
        return Status::Corruption(StrFormat(
            "exposition line %zu invalid: %s (\"%s\")", line_no,
            s.message().c_str(), line.c_str()));
      }
      if (line[0] != '#') ++samples;
    }
    if (samples == 0) {
      return Status::Corruption("exposition contains no samples");
    }
    return Status::OK();
  }

 private:
  Status CheckComment(const std::string& line) {
    // "# HELP name ..." / "# TYPE name type" / free-form comment.
    if (line.rfind("# TYPE ", 0) != 0) return Status::OK();
    const std::string rest = line.substr(7);
    const size_t sp = rest.find(' ');
    if (sp == std::string::npos) {
      return Status::Corruption("TYPE line missing metric type");
    }
    const std::string name = rest.substr(0, sp);
    const std::string type = rest.substr(sp + 1);
    if (!ValidName(name)) {
      return Status::Corruption("TYPE line has invalid metric name");
    }
    if (type != "counter" && type != "gauge" && type != "summary" &&
        type != "histogram" && type != "untyped") {
      return Status::Corruption(
          StrFormat("unknown metric type \"%s\"", type.c_str()));
    }
    if (declared_.count(name) != 0) {
      return Status::Corruption(
          StrFormat("duplicate TYPE for \"%s\"", name.c_str()));
    }
    declared_[name] = type;
    return Status::OK();
  }

  Status CheckSample(const std::string& line) {
    size_t i = 0;
    const size_t name_start = i;
    if (i >= line.size() || !IsNameStartChar(line[i])) {
      return Status::Corruption("sample does not start with a metric name");
    }
    while (i < line.size() && IsNameChar(line[i])) ++i;
    const std::string name = line.substr(name_start, i - name_start);

    if (i < line.size() && line[i] == '{') {
      ++i;
      while (i < line.size() && line[i] != '}') {
        // label_name="value",
        const size_t lstart = i;
        while (i < line.size() && IsLabelNameChar(line[i])) ++i;
        if (i == lstart) return Status::Corruption("empty label name");
        if (i >= line.size() || line[i] != '=') {
          return Status::Corruption("label missing '='");
        }
        ++i;
        if (i >= line.size() || line[i] != '"') {
          return Status::Corruption("label value missing opening quote");
        }
        ++i;
        while (i < line.size() && line[i] != '"') {
          if (line[i] == '\\') ++i;  // skip the escaped character
          ++i;
        }
        if (i >= line.size()) {
          return Status::Corruption("label value missing closing quote");
        }
        ++i;  // closing quote
        if (i < line.size() && line[i] == ',') ++i;
      }
      if (i >= line.size()) return Status::Corruption("unterminated labels");
      ++i;  // '}'
    }

    if (i >= line.size() || line[i] != ' ') {
      return Status::Corruption("sample missing value separator");
    }
    ++i;
    const std::string value = line.substr(i);
    if (value.empty()) return Status::Corruption("sample missing value");
    if (value != "NaN" && value != "+Inf" && value != "-Inf") {
      char* end = nullptr;
      std::strtod(value.c_str(), &end);
      if (end == nullptr || *end != '\0') {
        return Status::Corruption(
            StrFormat("sample value \"%s\" is not a number", value.c_str()));
      }
    }

    // Family discipline: every sample's family must be declared. Summary
    // and histogram samples may carry _sum/_count (and _bucket)
    // suffixes on the declared family name.
    if (declared_.count(name) != 0) return Status::OK();
    for (const char* suffix : {"_sum", "_count", "_bucket"}) {
      const size_t n = std::string(suffix).size();
      if (name.size() > n && name.compare(name.size() - n, n, suffix) == 0) {
        const std::string family = name.substr(0, name.size() - n);
        auto it = declared_.find(family);
        if (it != declared_.end() &&
            (it->second == "summary" || it->second == "histogram")) {
          return Status::OK();
        }
      }
    }
    return Status::Corruption(
        StrFormat("sample \"%s\" has no preceding TYPE declaration",
                  name.c_str()));
  }

  static bool ValidName(const std::string& name) {
    if (name.empty() || !IsNameStartChar(name[0])) return false;
    for (char c : name) {
      if (!IsNameChar(c)) return false;
    }
    return true;
  }

  const std::string& text_;
  std::map<std::string, std::string> declared_;
};

}  // namespace

Status ValidateExpositionText(const std::string& text) {
  return ExpositionChecker(text).Check();
}

// ---------------------------------------------------------------------
// Flight recorder.

std::string RenderFlightRecord() {
  const uint64_t ts_ms = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  const std::vector<JobProgress> jobs =
      ProgressRegistry::Global()->SnapshotWithFinished();
  const RegistrySnapshot reg = MetricsRegistry::Global()->Snapshot();

  std::string out = StrFormat(
      "{\"ts_ms\":%llu,\"jobs\":[",
      static_cast<unsigned long long>(ts_ms));
  bool first = true;
  for (const JobProgress& j : jobs) {
    if (!first) out += ",";
    first = false;
    out += StrFormat(
        "{\"id\":%llu,\"phase\":\"%s\",\"fraction\":%s,\"eta_s\":%s,"
        "\"bytes_per_s\":%s,\"bytes_read\":%llu,\"bytes_merged\":%llu",
        static_cast<unsigned long long>(j.job_id), SortPhaseName(j.phase),
        JsonNumber(j.fraction).c_str(), JsonNumber(j.eta_s).c_str(),
        JsonNumber(j.bytes_per_s).c_str(),
        static_cast<unsigned long long>(j.bytes_read),
        static_cast<unsigned long long>(j.bytes_merged));
    if (j.trace_id != 0) {
      out += StrFormat(",\"trace\":%llu",
                       static_cast<unsigned long long>(j.trace_id));
    }
    out += "}";
  }
  out += "],\"gauges\":{";
  first = true;
  for (const auto& [name, value] : reg.gauges) {
    if (value == 0) continue;
    if (!first) out += ",";
    first = false;
    out += "\"";
    AppendJsonEscaped(name, &out);
    out += StrFormat("\":%lld", static_cast<long long>(value));
  }
  out += "},\"counters\":{";
  first = true;
  for (const auto& [name, value] : reg.counters) {
    if (value == 0) continue;
    if (!first) out += ",";
    first = false;
    out += "\"";
    AppendJsonEscaped(name, &out);
    out += StrFormat("\":%llu", static_cast<unsigned long long>(value));
  }
  out += "}}";
  return out;
}

Status ValidateFlightRecorderJsonl(
    const std::string& content,
    const std::function<void(const JsonValue& record)>& on_record) {
  size_t parsed = 0;
  ALPHASORT_RETURN_IF_ERROR(ForEachJsonLine(
      content, [&](size_t line_no, const JsonValue& root) -> Status {
        if (!root.IsObject()) {
          return Status::Corruption(StrFormat(
              "flight record line %zu is not an object", line_no));
        }
        const JsonValue* ts = root.Find("ts_ms");
        if (ts == nullptr || !ts->IsNumber()) {
          return Status::Corruption(StrFormat(
              "flight record line %zu missing numeric \"ts_ms\"", line_no));
        }
        const JsonValue* jobs = root.Find("jobs");
        if (jobs == nullptr || !jobs->IsArray()) {
          return Status::Corruption(StrFormat(
              "flight record line %zu missing \"jobs\" array", line_no));
        }
        ++parsed;
        if (on_record) on_record(root);
        return Status::OK();
      }));
  if (parsed == 0) {
    return Status::Corruption("flight recorder capture is empty");
  }
  return Status::OK();
}

FlightRecorder::FlightRecorder(const Options& options)
    : options_(options) {}

FlightRecorder::~FlightRecorder() { Stop(); }

Status FlightRecorder::Start() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (file_ == nullptr) {
      file_ = std::fopen(options_.path.c_str(), "w");
      if (file_ == nullptr) {
        return Status::IOError(
            StrFormat("cannot open flight recorder file %s",
                      options_.path.c_str()));
      }
      written_ = 0;
    }
  }
  stop_.store(false, std::memory_order_relaxed);
  thread_ = std::thread([this] { Loop(); });
  running_ = true;
  return Status::OK();
}

void FlightRecorder::Stop() {
  stop_.store(true, std::memory_order_relaxed);
  if (running_) {
    thread_.join();
    running_ = false;
    // One terminal record so the file ends with the final job states.
    RecordOnce();
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

Status FlightRecorder::RecordOnce() {
  const std::string line = RenderFlightRecord();
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) {
    file_ = std::fopen(options_.path.c_str(), "w");
    if (file_ == nullptr) {
      return Status::IOError(StrFormat(
          "cannot open flight recorder file %s", options_.path.c_str()));
    }
    written_ = 0;
  }
  return AppendLocked(line);
}

Status FlightRecorder::AppendLocked(const std::string& line) {
  if (written_ + line.size() + 1 > options_.max_bytes && written_ > 0) {
    // Rotate: the previous generation replaces any older one, bounding
    // total history at ~2x max_bytes.
    std::fclose(file_);
    file_ = nullptr;
    const std::string rotated = options_.path + ".1";
    std::remove(rotated.c_str());
    std::rename(options_.path.c_str(), rotated.c_str());
    file_ = std::fopen(options_.path.c_str(), "w");
    if (file_ == nullptr) {
      return Status::IOError(StrFormat(
          "cannot reopen flight recorder file %s", options_.path.c_str()));
    }
    written_ = 0;
  }
  std::fprintf(file_, "%s\n", line.c_str());
  std::fflush(file_);
  written_ += line.size() + 1;
  return Status::OK();
}

void FlightRecorder::Loop() {
  const auto interval = std::chrono::duration<double>(
      options_.interval_s > 0 ? options_.interval_s : 0.25);
  while (!stop_.load(std::memory_order_relaxed)) {
    RecordOnce();
    // Sleep in small slices so Stop() is prompt.
    auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
        interval);
    while (remaining.count() > 0 &&
           !stop_.load(std::memory_order_relaxed)) {
      const auto slice =
          std::min(remaining, std::chrono::milliseconds(20));
      std::this_thread::sleep_for(slice);
      remaining -= slice;
    }
  }
}

}  // namespace obs
}  // namespace alphasort
