// expo_lint: validates observability exposition artifacts.
//
//   ./expo_lint FILE [--require NAME]... [--require-nonzero NAME]...
//   ./expo_lint FILE --flight
//
// Default mode checks FILE against the Prometheus text-format grammar
// (obs::ValidateExpositionText), then that every --require NAME appears
// as a sample of that exact metric name and every --require-nonzero
// NAME has at least one sample with a nonzero value.
//
// --flight validates a flight-recorder JSONL capture instead
// (obs::ValidateFlightRecorderJsonl, which walks the lines with the
// shared obs::ForEachJsonLine reader) and, from that same single parse,
// prints each job's last-known phase and fraction — the "what was the
// wedged job doing" replay. Exits nonzero on any malformed line.
//
// Used by scripts/ci.sh to round-trip a live SortService scrape through
// the format validator.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "obs/exposition.h"
#include "obs/json.h"

using namespace alphasort;

namespace {

bool ReadFileToString(const std::string& path, std::string* out) {
  FILE* f = fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  char buf[1 << 16];
  size_t got;
  while ((got = fread(buf, 1, sizeof(buf), f)) > 0) out->append(buf, got);
  fclose(f);
  return true;
}

// Metric name of one exposition sample line (empty for comments/blank).
std::string SampleName(const std::string& line) {
  if (line.empty() || line[0] == '#') return "";
  const size_t end = line.find_first_of("{ ");
  return end == std::string::npos ? "" : line.substr(0, end);
}

int LintFlight(const std::string& path, const std::string& content) {
  // Replay: the last record mentioning each job wins. A wedged or
  // crashed run leaves its jobs' final rows here.
  struct LastSeen {
    std::string phase;
    double fraction = 0;
    double ts_ms = 0;
  };
  std::map<uint64_t, LastSeen> last;
  size_t records = 0;
  auto replay = [&](const obs::JsonValue& root) {
    ++records;
    const obs::JsonValue* ts = root.Find("ts_ms");
    for (const obs::JsonValue& job : root.Find("jobs")->items) {
      const obs::JsonValue* id = job.Find("id");
      const obs::JsonValue* phase = job.Find("phase");
      const obs::JsonValue* fraction = job.Find("fraction");
      if (id == nullptr || !id->IsNumber()) continue;
      LastSeen& seen = last[static_cast<uint64_t>(id->number_value)];
      if (phase != nullptr && phase->IsString()) {
        seen.phase = phase->string_value;
      }
      if (fraction != nullptr && fraction->IsNumber()) {
        seen.fraction = fraction->number_value;
      }
      seen.ts_ms = ts->number_value;
    }
  };
  if (Status s = obs::ValidateFlightRecorderJsonl(content, replay);
      !s.ok()) {
    fprintf(stderr, "expo_lint: %s: %s\n", path.c_str(),
            s.ToString().c_str());
    return 1;
  }
  printf("expo_lint: %s ok (%zu flight records, %zu jobs seen)\n",
         path.c_str(), records, last.size());
  for (const auto& [id, seen] : last) {
    printf("  job %llu: last phase %s, fraction %.3f\n",
           static_cast<unsigned long long>(id),
           seen.phase.empty() ? "?" : seen.phase.c_str(), seen.fraction);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  std::vector<std::string> required;
  std::vector<std::string> required_nonzero;
  bool flight = false;
  for (int i = 1; i < argc; ++i) {
    if (strcmp(argv[i], "--require") == 0 && i + 1 < argc) {
      required.push_back(argv[++i]);
    } else if (strcmp(argv[i], "--require-nonzero") == 0 && i + 1 < argc) {
      required_nonzero.push_back(argv[++i]);
    } else if (strcmp(argv[i], "--flight") == 0) {
      flight = true;
    } else if (path.empty() && argv[i][0] != '-') {
      path = argv[i];
    } else {
      fprintf(stderr,
              "usage: %s FILE [--require NAME]... "
              "[--require-nonzero NAME]... [--flight]\n",
              argv[0]);
      return 2;
    }
  }
  if (path.empty()) {
    fprintf(stderr, "expo_lint: no input file\n");
    return 2;
  }
  std::string content;
  if (!ReadFileToString(path, &content)) {
    fprintf(stderr, "expo_lint: cannot open %s\n", path.c_str());
    return 1;
  }
  if (content.empty()) {
    fprintf(stderr, "expo_lint: %s is empty (0 bytes)\n", path.c_str());
    return 1;
  }

  if (flight) return LintFlight(path, content);

  if (Status s = obs::ValidateExpositionText(content); !s.ok()) {
    fprintf(stderr, "expo_lint: %s: %s\n", path.c_str(),
            s.ToString().c_str());
    return 1;
  }

  // Per-metric sample inventory for the --require checks.
  std::map<std::string, bool> has_nonzero;  // name -> any sample != 0
  size_t samples = 0;
  size_t start = 0;
  while (start < content.size()) {
    size_t end = content.find('\n', start);
    if (end == std::string::npos) end = content.size();
    std::string line = content.substr(start, end - start);
    start = end + 1;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    const std::string name = SampleName(line);
    if (name.empty()) continue;
    ++samples;
    const size_t sp = line.find_last_of(' ');
    const double value =
        sp == std::string::npos ? 0 : strtod(line.c_str() + sp + 1, nullptr);
    bool& nz = has_nonzero[name];
    nz = nz || value != 0;
  }
  for (const std::string& want : required) {
    if (has_nonzero.find(want) == has_nonzero.end()) {
      fprintf(stderr, "expo_lint: no sample of metric \"%s\"\n",
              want.c_str());
      return 1;
    }
  }
  for (const std::string& want : required_nonzero) {
    auto it = has_nonzero.find(want);
    if (it == has_nonzero.end()) {
      fprintf(stderr, "expo_lint: no sample of metric \"%s\"\n",
              want.c_str());
      return 1;
    }
    if (!it->second) {
      fprintf(stderr,
              "expo_lint: metric \"%s\" present but every sample is 0\n",
              want.c_str());
      return 1;
    }
  }
  printf("expo_lint: %s ok (%zu samples, %zu metrics)\n", path.c_str(),
         samples, has_nonzero.size());
  return 0;
}
