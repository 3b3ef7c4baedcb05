// trace_lint: validates a Chrome trace-event JSON file produced by
// `asort --trace` (or any obs::TraceRecorder export).
//
//   ./trace_lint FILE [--require NAME]... [--require-counter NAME]...
//                [--require-job NAME]... [--require-trace-id NAME]...
//                [--distinct-threads N]
//
// Exits 0 when FILE parses as a structurally valid Chrome trace
// (obs::ValidateChromeTraceJson, which reads it once with the shared
// obs::ParseJson reader and hands the document back), every
// --require NAME appears as an event-name substring, every
// --require-counter NAME appears as a counter event (ph "C") with that
// exact name and a numeric args.value, every event whose name contains a
// --require-job NAME carries a numeric args.job (the obs::ScopedJobId
// attribution), every event whose name contains a --require-trace-id
// NAME carries a nonzero numeric args.trace_id (the distributed
// obs::ScopedTraceId attribution), events span at least N distinct
// tids, and each thread's
// timestamps are monotonically non-decreasing (the recorder exports a
// globally time-sorted array; out-of-order events within one tid mean a
// broken export or a hand-edited file).
//
// Cross-job span nesting is always rejected: a complete ("X") span
// opening inside another span on the same tid must carry the same job id
// (or id 0, the unattributed service scope) — two different nonzero jobs
// nested on one thread means a chore ran without re-establishing
// ScopedJobId, so its spans are charged to the wrong job. Used by
// scripts/ci.sh to smoke-test the observability pipeline end to end.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/table.h"
#include "obs/json.h"
#include "obs/trace.h"

using namespace alphasort;

int main(int argc, char** argv) {
  std::string path;
  std::vector<std::string> required;
  std::vector<std::string> required_counters;
  std::vector<std::string> required_jobs;
  std::vector<std::string> required_trace_ids;
  size_t distinct_threads = 0;
  for (int i = 1; i < argc; ++i) {
    if (strcmp(argv[i], "--require") == 0 && i + 1 < argc) {
      required.push_back(argv[++i]);
    } else if (strcmp(argv[i], "--require-counter") == 0 && i + 1 < argc) {
      required_counters.push_back(argv[++i]);
    } else if (strcmp(argv[i], "--require-job") == 0 && i + 1 < argc) {
      required_jobs.push_back(argv[++i]);
    } else if (strcmp(argv[i], "--require-trace-id") == 0 && i + 1 < argc) {
      required_trace_ids.push_back(argv[++i]);
    } else if (strcmp(argv[i], "--distinct-threads") == 0 && i + 1 < argc) {
      distinct_threads = strtoul(argv[++i], nullptr, 10);
    } else if (path.empty() && argv[i][0] != '-') {
      path = argv[i];
    } else {
      fprintf(stderr,
              "usage: %s FILE [--require NAME]... "
              "[--require-counter NAME]... [--require-job NAME]... "
              "[--require-trace-id NAME]... [--distinct-threads N]\n",
              argv[0]);
      return 2;
    }
  }
  if (path.empty()) {
    fprintf(stderr, "trace_lint: no input file\n");
    return 2;
  }

  FILE* f = fopen(path.c_str(), "rb");
  if (f == nullptr) {
    fprintf(stderr, "trace_lint: cannot open %s\n", path.c_str());
    return 1;
  }
  std::string json;
  char buf[1 << 16];
  size_t got;
  while ((got = fread(buf, 1, sizeof(buf), f)) > 0) json.append(buf, got);
  fclose(f);

  // Name the two most common breakages outright — an empty file (the
  // recorder never flushed) and a truncated one (the process died
  // mid-export) — instead of leaving them to a parse error at some byte.
  if (json.empty()) {
    fprintf(stderr,
            "trace_lint: %s is empty (0 bytes) — trace was never written "
            "or never flushed\n",
            path.c_str());
    return 1;
  }
  // One parse: the validator checks the shape and the required event
  // fields and hands back the document for the content questions below
  // (names, counters, per-thread timestamp order).
  obs::JsonValue root;
  if (Status s = obs::ValidateChromeTraceJson(json, &root); !s.ok()) {
    const size_t last = json.find_last_not_of(" \t\r\n");
    if (last == std::string::npos || json[last] != '}') {
      fprintf(stderr,
              "trace_lint: %s looks truncated (%zu bytes, no closing "
              "'}') — writer likely died mid-export; %s\n",
              path.c_str(), json.size(), s.ToString().c_str());
    } else {
      fprintf(stderr, "trace_lint: %s\n", s.ToString().c_str());
    }
    return 1;
  }
  const obs::JsonValue* events =
      root.IsObject() ? root.Find("traceEvents") : &root;

  std::set<std::string> names;
  std::set<std::string> counter_names;
  std::set<double> tids;
  std::map<double, double> last_ts_by_tid;
  // Per-tid stack of open complete spans, as (end_ts, job id). The
  // export is time-sorted, so spans open in start order; an event that
  // starts before the top of its tid's stack ends is nested inside it.
  struct OpenSpan {
    double end_ts;
    double job;
    std::string name;
  };
  std::map<double, std::vector<OpenSpan>> open_by_tid;
  for (size_t i = 0; i < events->items.size(); ++i) {
    const obs::JsonValue& ev = events->items[i];
    const obs::JsonValue* name = ev.Find("name");
    const obs::JsonValue* ph = ev.Find("ph");
    const obs::JsonValue* ts = ev.Find("ts");
    const obs::JsonValue* tid = ev.Find("tid");
    if (name == nullptr || !name->IsString() || ph == nullptr ||
        !ph->IsString() || ts == nullptr || !ts->IsNumber() ||
        tid == nullptr || !tid->IsNumber()) {
      fprintf(stderr, "trace_lint: event %zu is missing name/ph/ts/tid\n",
              i);
      return 1;
    }
    names.insert(name->string_value);
    tids.insert(tid->number_value);
    const obs::JsonValue* ev_args = ev.Find("args");
    const obs::JsonValue* job_field =
        ev_args != nullptr && ev_args->IsObject() ? ev_args->Find("job")
                                                  : nullptr;
    const double job = job_field != nullptr && job_field->IsNumber()
                           ? job_field->number_value
                           : 0;
    for (const std::string& want : required_jobs) {
      if (name->string_value.find(want) == std::string::npos) continue;
      if (job_field == nullptr || !job_field->IsNumber()) {
        fprintf(stderr,
                "trace_lint: event \"%s\" (event %zu) matches "
                "--require-job \"%s\" but has no numeric args.job\n",
                name->string_value.c_str(), i, want.c_str());
        return 1;
      }
    }
    for (const std::string& want : required_trace_ids) {
      if (name->string_value.find(want) == std::string::npos) continue;
      const obs::JsonValue* trace_field =
          ev_args != nullptr && ev_args->IsObject()
              ? ev_args->Find("trace_id")
              : nullptr;
      if (trace_field == nullptr || !trace_field->IsNumber() ||
          trace_field->number_value == 0) {
        fprintf(stderr,
                "trace_lint: event \"%s\" (event %zu) matches "
                "--require-trace-id \"%s\" but has no nonzero numeric "
                "args.trace_id\n",
                name->string_value.c_str(), i, want.c_str());
        return 1;
      }
    }
    if (ph->string_value == "X") {
      const obs::JsonValue* dur = ev.Find("dur");
      const double end_ts =
          ts->number_value +
          (dur != nullptr && dur->IsNumber() ? dur->number_value : 0);
      std::vector<OpenSpan>& open = open_by_tid[tid->number_value];
      while (!open.empty() && open.back().end_ts <= ts->number_value) {
        open.pop_back();
      }
      if (!open.empty() && job != 0 && open.back().job != 0 &&
          open.back().job != job) {
        fprintf(stderr,
                "trace_lint: cross-job span nesting on tid %.0f: \"%s\" "
                "(job %.0f, event %zu) opened inside \"%s\" (job %.0f) — "
                "a chore ran without re-establishing its ScopedJobId\n",
                tid->number_value, name->string_value.c_str(), job, i,
                open.back().name.c_str(), open.back().job);
        return 1;
      }
      open.push_back(OpenSpan{end_ts, job, name->string_value});
    }
    if (ph->string_value == "C") {
      const obs::JsonValue* args = ev.Find("args");
      const obs::JsonValue* value =
          args != nullptr && args->IsObject() ? args->Find("value") : nullptr;
      if (value == nullptr || !value->IsNumber()) {
        fprintf(stderr,
                "trace_lint: counter event \"%s\" (event %zu) has no "
                "numeric args.value\n",
                name->string_value.c_str(), i);
        return 1;
      }
      counter_names.insert(name->string_value);
    }
    auto [it, inserted] =
        last_ts_by_tid.emplace(tid->number_value, ts->number_value);
    if (!inserted) {
      if (ts->number_value < it->second) {
        fprintf(stderr,
                "trace_lint: tid %.0f timestamps go backwards at event "
                "%zu (%.0f us after %.0f us) — export is not time-sorted\n",
                tid->number_value, i, ts->number_value, it->second);
        return 1;
      }
      it->second = ts->number_value;
    }
  }

  for (const std::string& want : required) {
    bool found = false;
    for (const std::string& name : names) {
      if (name.find(want) != std::string::npos) {
        found = true;
        break;
      }
    }
    if (!found) {
      fprintf(stderr, "trace_lint: no event named like \"%s\"\n",
              want.c_str());
      return 1;
    }
  }
  for (const std::string& want : required_counters) {
    if (counter_names.count(want) == 0) {
      fprintf(stderr, "trace_lint: no counter event named \"%s\"\n",
              want.c_str());
      return 1;
    }
  }
  if (tids.size() < distinct_threads) {
    fprintf(stderr, "trace_lint: %zu distinct threads, wanted >= %zu\n",
            tids.size(), distinct_threads);
    return 1;
  }

  printf("trace_lint: %s ok (%zu events, %zu threads, %zu counters)\n",
         path.c_str(), events->items.size(), tids.size(),
         counter_names.size());
  return 0;
}
