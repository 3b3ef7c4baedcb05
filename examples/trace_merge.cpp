// trace_merge: joins a client-side and a server-side Chrome trace (each
// produced by obs::TraceRecorder::ToChromeJson — e.g. sort_loadgen
// --trace and sort_serverd --trace) into one timeline, so a distributed
// job's client net.submit span and the server's net.ingest /
// net.sort_wait / net.stream_back spans line up in one viewer window.
//
//   ./trace_merge CLIENT_FILE SERVER_FILE -o OUT [--trace-id ID]
//
// Each recorder's timestamps are relative to its own first event, on
// its own host clock, so the raw values are not comparable. The HELLO
// handshake exchanges raw steady-clock readings (HelloFrame::now_us) in
// both directions and each side records a net.clock_sync event carrying
// args.local_raw_us (its own raw clock, sampled together with the
// event's ts) and args.remote_raw_us (the peer's reading from the
// frame). From one such event per file the merger recovers, per file,
//
//   epoch = local_raw_us - ts        // raw clock value at trace t=0
//
// and the NTP-style clock offset between the hosts (server minus
// client, symmetric-delay assumption — the client's HELLO observed
// server-side and the server's reply observed client-side bracket one
// round trip):
//
//   offset = ((S_obs - C_send) - (C_obs - S_send)) / 2
//
// where S_obs/C_send come from the server file's sync event and
// C_obs/S_send from the client file's. Every server event then maps
// onto the client timeline as
//
//   ts' = ts + server_epoch - offset - client_epoch
//
// after which the whole merged set is shifted so the earliest event
// lands at t=0. Client events keep pid 1; server events get pid 2 and
// tid + 1000 so the two processes' threads never collide. With
// --trace-id, only events tagged args.trace_id == ID (plus the
// clock-sync markers) survive — the single-job join; without it every
// event from both files is kept.
//
// Each input is read once: obs::ValidateChromeTraceJson checks it and
// hands back the parsed document the merge works on. The merged
// document is re-validated the same way before it is written, so a bug
// here fails the CI smoke instead of producing a file only a browser can
// reject.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/table.h"
#include "obs/json.h"
#include "obs/trace.h"

using namespace alphasort;

namespace {

// The sync-event name both net endpoints record (net/client.cc,
// net/server.cc).
constexpr const char* kClockSyncName = "net.clock_sync";

struct ClockSync {
  double ts = 0;         // trace-relative, this file's timeline
  double local_raw = 0;  // this process's raw clock at the same instant
  double remote_raw = 0; // the peer's raw clock from the HELLO frame
  bool found = false;
};

double NumberOr(const obs::JsonValue* v, double fallback) {
  return v != nullptr && v->IsNumber() ? v->number_value : fallback;
}

// First net.clock_sync event in the file; the clocks are steady, so any
// one pair pins the alignment and the earliest has the least queueing
// noise behind it.
ClockSync FindClockSync(const obs::JsonValue& events) {
  ClockSync sync;
  for (const obs::JsonValue& ev : events.items) {
    const obs::JsonValue* name = ev.Find("name");
    if (name == nullptr || !name->IsString() ||
        name->string_value != kClockSyncName) {
      continue;
    }
    const obs::JsonValue* args = ev.Find("args");
    if (args == nullptr || !args->IsObject()) continue;
    sync.ts = NumberOr(ev.Find("ts"), 0);
    sync.local_raw = NumberOr(args->Find("local_raw_us"), 0);
    sync.remote_raw = NumberOr(args->Find("remote_raw_us"), 0);
    sync.found = true;
    return sync;
  }
  return sync;
}

obs::JsonValue* FindMut(obs::JsonValue& obj, const char* key) {
  if (!obj.IsObject()) return nullptr;
  for (auto& [k, v] : obj.members) {
    if (k == key) return &v;
  }
  return nullptr;
}

// JSON numbers here are microseconds and 48-bit ids; obs::JsonNumber's
// %.12g would round the ids, so integral doubles (exact through 2^53)
// are re-emitted as integers.
std::string EmitNumber(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 9.0e15) {
    return StrFormat("%lld", static_cast<long long>(v));
  }
  return obs::JsonNumber(v);
}

void Serialize(const obs::JsonValue& v, std::string* out) {
  switch (v.type) {
    case obs::JsonValue::Type::kNull:
      *out += "null";
      break;
    case obs::JsonValue::Type::kBool:
      *out += v.bool_value ? "true" : "false";
      break;
    case obs::JsonValue::Type::kNumber:
      *out += EmitNumber(v.number_value);
      break;
    case obs::JsonValue::Type::kString:
      out->push_back('"');
      obs::AppendJsonEscaped(v.string_value, out);
      out->push_back('"');
      break;
    case obs::JsonValue::Type::kArray: {
      out->push_back('[');
      bool first = true;
      for (const obs::JsonValue& item : v.items) {
        if (!first) out->push_back(',');
        first = false;
        Serialize(item, out);
      }
      out->push_back(']');
      break;
    }
    case obs::JsonValue::Type::kObject: {
      out->push_back('{');
      bool first = true;
      for (const auto& [k, member] : v.members) {
        if (!first) out->push_back(',');
        first = false;
        out->push_back('"');
        obs::AppendJsonEscaped(k, out);
        *out += "\":";
        Serialize(member, out);
      }
      out->push_back('}');
      break;
    }
  }
}

struct TraceFile {
  obs::JsonValue root;
  obs::JsonValue* events = nullptr;  // the traceEvents array inside root
  ClockSync sync;
};

int LoadTrace(const char* role, const std::string& path, TraceFile* out) {
  FILE* f = fopen(path.c_str(), "rb");
  if (f == nullptr) {
    fprintf(stderr, "trace_merge: cannot open %s trace %s\n", role,
            path.c_str());
    return 1;
  }
  std::string json;
  char buf[1 << 16];
  size_t got;
  while ((got = fread(buf, 1, sizeof(buf), f)) > 0) json.append(buf, got);
  fclose(f);
  if (Status s = obs::ValidateChromeTraceJson(json, &out->root); !s.ok()) {
    fprintf(stderr, "trace_merge: %s trace %s: %s\n", role, path.c_str(),
            s.ToString().c_str());
    return 1;
  }
  out->events = out->root.IsObject() ? FindMut(out->root, "traceEvents")
                                     : &out->root;
  out->sync = FindClockSync(*out->events);
  if (!out->sync.found) {
    fprintf(stderr,
            "trace_merge: %s trace %s has no %s event — was the trace "
            "recorded around a v2 HELLO handshake?\n",
            role, path.c_str(), kClockSyncName);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string client_path, server_path, out_path;
  unsigned long long want_trace_id = 0;
  for (int i = 1; i < argc; ++i) {
    if (strcmp(argv[i], "-o") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (strcmp(argv[i], "--trace-id") == 0 && i + 1 < argc) {
      want_trace_id = strtoull(argv[++i], nullptr, 10);
    } else if (argv[i][0] != '-' && client_path.empty()) {
      client_path = argv[i];
    } else if (argv[i][0] != '-' && server_path.empty()) {
      server_path = argv[i];
    } else {
      fprintf(stderr,
              "usage: %s CLIENT_FILE SERVER_FILE -o OUT [--trace-id ID]\n",
              argv[0]);
      return 2;
    }
  }
  if (client_path.empty() || server_path.empty() || out_path.empty()) {
    fprintf(stderr,
            "usage: %s CLIENT_FILE SERVER_FILE -o OUT [--trace-id ID]\n",
            argv[0]);
    return 2;
  }

  TraceFile client, server;
  if (int rc = LoadTrace("client", client_path, &client); rc != 0) return rc;
  if (int rc = LoadTrace("server", server_path, &server); rc != 0) return rc;

  // Clock recovery. The client file's sync was recorded when the HELLO
  // reply arrived: local_raw = C_obs, remote_raw = S_send. The server
  // file's was recorded when the client's HELLO arrived: local_raw =
  // S_obs, remote_raw = C_send.
  const double client_epoch = client.sync.local_raw - client.sync.ts;
  const double server_epoch = server.sync.local_raw - server.sync.ts;
  const double offset =  // server clock minus client clock
      ((server.sync.local_raw - server.sync.remote_raw) -
       (client.sync.local_raw - client.sync.remote_raw)) /
      2.0;
  // Maps a server trace-relative ts onto the client's timeline.
  const double server_shift = server_epoch - offset - client_epoch;

  // Filter, retime, and re-home the events. Server threads move to pid
  // 2 / tid + 1000; both are plain numbers in the DOM.
  std::vector<obs::JsonValue> merged;
  size_t kept_client = 0, kept_server = 0;
  auto keep = [&](const obs::JsonValue& ev) {
    if (want_trace_id == 0) return true;
    const obs::JsonValue* name = ev.Find("name");
    if (name != nullptr && name->IsString() &&
        name->string_value == kClockSyncName) {
      return true;  // the alignment evidence always ships with the join
    }
    const obs::JsonValue* args = ev.Find("args");
    const obs::JsonValue* id =
        args != nullptr && args->IsObject() ? args->Find("trace_id") : nullptr;
    return id != nullptr && id->IsNumber() &&
           id->number_value == static_cast<double>(want_trace_id);
  };
  for (obs::JsonValue& ev : client.events->items) {
    if (!keep(ev)) continue;
    if (obs::JsonValue* pid = FindMut(ev, "pid")) pid->number_value = 1;
    merged.push_back(std::move(ev));
    ++kept_client;
  }
  for (obs::JsonValue& ev : server.events->items) {
    if (!keep(ev)) continue;
    if (obs::JsonValue* ts = FindMut(ev, "ts")) {
      ts->number_value += server_shift;
    }
    if (obs::JsonValue* pid = FindMut(ev, "pid")) pid->number_value = 2;
    if (obs::JsonValue* tid = FindMut(ev, "tid")) tid->number_value += 1000;
    merged.push_back(std::move(ev));
    ++kept_server;
  }
  if (kept_client == 0 || kept_server == 0) {
    fprintf(stderr,
            "trace_merge: nothing to merge (%zu client events, %zu "
            "server events kept%s)\n",
            kept_client, kept_server,
            want_trace_id != 0 ? " after --trace-id filter" : "");
    return 1;
  }

  // Server events that precede the client's trace start map to negative
  // ts (the server was up first). Shift the whole merged timeline so it
  // starts at zero — alignment is relative, the viewer origin is not.
  double min_ts = 0;
  bool first = true;
  for (const obs::JsonValue& ev : merged) {
    const double ts = NumberOr(ev.Find("ts"), 0);
    if (first || ts < min_ts) min_ts = ts;
    first = false;
  }
  for (obs::JsonValue& ev : merged) {
    if (obs::JsonValue* ts = FindMut(ev, "ts")) ts->number_value -= min_ts;
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const obs::JsonValue& a, const obs::JsonValue& b) {
                     return NumberOr(a.Find("ts"), 0) <
                            NumberOr(b.Find("ts"), 0);
                   });

  std::string out = "{\"traceEvents\":[";
  for (size_t i = 0; i < merged.size(); ++i) {
    if (i != 0) out += ",";
    Serialize(merged[i], &out);
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  if (Status s = obs::ValidateChromeTraceJson(out); !s.ok()) {
    fprintf(stderr, "trace_merge: merged output is invalid: %s\n",
            s.ToString().c_str());
    return 1;
  }

  FILE* f = fopen(out_path.c_str(), "wb");
  if (f == nullptr) {
    fprintf(stderr, "trace_merge: cannot write %s\n", out_path.c_str());
    return 1;
  }
  fwrite(out.data(), 1, out.size(), f);
  fclose(f);

  printf(
      "trace_merge: %s ok (%zu client + %zu server events, clock offset "
      "%+.0f us)\n",
      out_path.c_str(), kept_client, kept_server, offset);
  return 0;
}
