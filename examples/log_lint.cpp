// log_lint: validates a structured-log JSONL capture and self-tests the
// logger's rate limiter.
//
//   ./log_lint FILE [--require-event NAME]...
//   ./log_lint --burst
//
// Default mode checks FILE against the log JSONL schema
// (obs::ValidateLogJsonl: numeric ts_us, known level, non-empty event
// per line) and, from that same single parse, that every
// --require-event NAME appears as some line's exact event name.
//
// --burst needs no file: it pushes a 10k-event burst through one
// rate-limited call site into a MemoryLogSink and exits nonzero unless
// the per-site limiter capped the flood at its window budget and the
// drop count was surfaced on total_suppressed. This is the CI log-sink
// smoke gate (scripts/ci.sh).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/log.h"

using namespace alphasort;

namespace {

constexpr uint32_t kBurstEvents = 10000;
constexpr uint32_t kWindowCap = 128;  // LogRateLimiter default budget

int RunBurst() {
  obs::MemoryLogSink sink;
  obs::Logger* logger = obs::Logger::Global();
  logger->AddSink(&sink);
  obs::LogRateLimiter limiter;  // the macro's per-site static, made local
  uint64_t admitted = 0;
  for (uint32_t i = 0; i < kBurstEvents; ++i) {
    uint64_t suppressed = 0;
    if (limiter.Admit(obs::LogWallTimeUs(), &suppressed)) {
      ++admitted;
      obs::LogMessage(obs::LogLevel::kInfo, "burst.test", suppressed)
          .U64("i", i);
    }
  }
  logger->RemoveSink(&sink);

  int failures = 0;
  // The whole burst runs in far under the 1 s window, so exactly one
  // window budget may pass. A slow machine could straddle a window
  // boundary, hence the 2x allowance — the point is 10000 -> O(cap).
  if (admitted == 0 || admitted > 2 * kWindowCap) {
    fprintf(stderr,
            "log_lint: burst of %u admitted %llu events, wanted 1..%u\n",
            kBurstEvents, static_cast<unsigned long long>(admitted),
            2 * kWindowCap);
    ++failures;
  }
  if (sink.count() != admitted) {
    fprintf(stderr,
            "log_lint: sink saw %zu events but %llu were admitted\n",
            sink.count(), static_cast<unsigned long long>(admitted));
    ++failures;
  }
  if (limiter.total_suppressed() != kBurstEvents - admitted) {
    fprintf(stderr,
            "log_lint: limiter counted %llu suppressed, wanted %llu\n",
            static_cast<unsigned long long>(limiter.total_suppressed()),
            static_cast<unsigned long long>(kBurstEvents - admitted));
    ++failures;
  }
  if (failures == 0) {
    printf(
        "log_lint: burst ok (%u events -> %llu admitted, %llu "
        "suppressed)\n",
        kBurstEvents, static_cast<unsigned long long>(admitted),
        static_cast<unsigned long long>(limiter.total_suppressed()));
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  std::vector<std::string> required_events;
  bool burst = false;
  for (int i = 1; i < argc; ++i) {
    if (strcmp(argv[i], "--require-event") == 0 && i + 1 < argc) {
      required_events.push_back(argv[++i]);
    } else if (strcmp(argv[i], "--burst") == 0) {
      burst = true;
    } else if (path.empty() && argv[i][0] != '-') {
      path = argv[i];
    } else {
      fprintf(stderr,
              "usage: %s FILE [--require-event NAME]... | %s --burst\n",
              argv[0], argv[0]);
      return 2;
    }
  }
  if (burst) return RunBurst();
  if (path.empty()) {
    fprintf(stderr, "log_lint: no input file\n");
    return 2;
  }

  FILE* f = fopen(path.c_str(), "rb");
  if (f == nullptr) {
    fprintf(stderr, "log_lint: cannot open %s\n", path.c_str());
    return 1;
  }
  std::string content;
  char buf[1 << 16];
  size_t got;
  while ((got = fread(buf, 1, sizeof(buf), f)) > 0) content.append(buf, got);
  fclose(f);

  std::set<std::string> events;
  size_t lines = 0;
  auto collect = [&](const obs::JsonValue& root) {
    ++lines;
    events.insert(root.Find("event")->string_value);
  };
  if (Status s = obs::ValidateLogJsonl(content, collect); !s.ok()) {
    fprintf(stderr, "log_lint: %s: %s\n", path.c_str(),
            s.ToString().c_str());
    return 1;
  }
  for (const std::string& want : required_events) {
    if (events.count(want) == 0) {
      fprintf(stderr, "log_lint: no \"%s\" event in %s\n", want.c_str(),
              path.c_str());
      return 1;
    }
  }
  printf("log_lint: %s ok (%zu events, %zu distinct names)\n",
         path.c_str(), lines, events.size());
  return 0;
}
