// asort: a command-line external sort built on the AlphaSort library —
// the "street-legal" packaging of §8's Indy/Daytona distinction. Sorts a
// file of fixed-width records by a byte key at a given offset.
//
//   ./asort --in INPUT [--in INPUT2 ...] --out OUTPUT
//           [--record-size R] [--key-size K] [--key-offset OFF]
//           [--workers N] [--memory-mb M]
//           [--algorithm alphasort|vms]
//           [--merge] [--verify] [--quiet]
//           [--trace=FILE] [--report=FILE] [--metrics] [--mem]
//           [--gen-records N]
//
// INPUT/OUTPUT may be plain files or .str stripe definitions (the output
// definition is created automatically, mirroring the first input's width,
// if it does not exist). With --merge, every INPUT must already be
// sorted and the inputs are merged into OUTPUT (sort's classic -m mode)
// by the sort's own partitioned merge, so --workers applies to it too:
// every merge splits into two key ranges per worker.
//
// Observability (docs/observability.md): --trace=FILE records a span
// timeline of the sort and writes Chrome trace-event JSON openable in
// chrome://tracing or https://ui.perfetto.dev; --report=FILE writes the
// versioned SortReport JSON (phase breakdown, IO percentiles, registry
// delta, hardware counters — validate with report_lint); --metrics dumps
// this run's delta of the process metrics registry (IO scheduler queue
// waits, stripe fanout, chore counts). --mem runs against an in-memory
// Env and
// --gen-records N generates the input first — together they make a
// self-contained smoke run: asort --mem --gen-records 100000 ...

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "benchlib/datamation.h"
#include "core/alphasort.h"
#include "core/merge_files.h"
#include "core/sorter.h"
#include "core/vms_sort.h"
#include "common/table.h"
#include "io/stripe.h"
#include "obs/report.h"
#include "obs/trace.h"

using namespace alphasort;

namespace {

struct Args {
  std::vector<std::string> in;
  std::string out;
  size_t record_size = 100;
  size_t key_size = 10;
  size_t key_offset = 0;
  int workers = 0;
  uint64_t memory_mb = 256;
  std::string algorithm = "alphasort";
  bool merge = false;
  bool verify = false;
  bool quiet = false;
  std::string trace_path;      // --trace=FILE: Chrome trace JSON
  std::string report_path;     // --report=FILE: SortReport JSON
  bool metrics = false;        // dump this run's metrics-registry delta
  bool mem = false;            // run against an in-memory Env
  uint64_t gen_records = 0;    // generate the input first
};

int Usage(const char* prog) {
  fprintf(stderr,
          "usage: %s --in INPUT [--in INPUT2 ...] --out OUTPUT "
          "[--record-size R] [--key-size K] [--key-offset OFF] "
          "[--workers N] [--memory-mb M] [--algorithm alphasort|vms] "
          "[--merge] [--verify] [--quiet] [--trace=FILE] [--report=FILE] "
          "[--metrics] [--mem] [--gen-records N]\n",
          prog);
  return 2;
}

bool IsStripePath(const std::string& p) {
  return p.size() >= 4 && p.compare(p.size() - 4, 4, ".str") == 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    auto need = [&](const char* flag) -> const char* {
      if (strcmp(argv[i], flag) == 0 && i + 1 < argc) return argv[++i];
      return nullptr;
    };
    if (const char* v = need("--in")) args.in.push_back(v);
    else if (const char* v = need("--out")) args.out = v;
    else if (const char* v = need("--record-size")) args.record_size = strtoul(v, nullptr, 10);
    else if (const char* v = need("--key-size")) args.key_size = strtoul(v, nullptr, 10);
    else if (const char* v = need("--key-offset")) args.key_offset = strtoul(v, nullptr, 10);
    else if (const char* v = need("--workers")) args.workers = atoi(v);
    else if (const char* v = need("--memory-mb")) args.memory_mb = strtoull(v, nullptr, 10);
    else if (const char* v = need("--algorithm")) args.algorithm = v;
    else if (const char* v = need("--trace")) args.trace_path = v;
    else if (strncmp(argv[i], "--trace=", 8) == 0) args.trace_path = argv[i] + 8;
    else if (const char* v = need("--report")) args.report_path = v;
    else if (strncmp(argv[i], "--report=", 9) == 0) args.report_path = argv[i] + 9;
    else if (const char* v = need("--gen-records")) args.gen_records = strtoull(v, nullptr, 10);
    else if (strcmp(argv[i], "--metrics") == 0) args.metrics = true;
    else if (strcmp(argv[i], "--mem") == 0) args.mem = true;
    else if (strcmp(argv[i], "--merge") == 0) args.merge = true;
    else if (strcmp(argv[i], "--verify") == 0) args.verify = true;
    else if (strcmp(argv[i], "--quiet") == 0) args.quiet = true;
    else return Usage(argv[0]);
  }
  if (args.in.empty() || args.out.empty()) return Usage(argv[0]);
  if (args.in.size() > 1 && !args.merge) {
    fprintf(stderr, "multiple --in require --merge\n");
    return 2;
  }
  if (args.algorithm != "alphasort" && args.algorithm != "vms") {
    fprintf(stderr, "unknown algorithm '%s'\n", args.algorithm.c_str());
    return 2;
  }

  std::unique_ptr<Env> owned_env;
  Env* env = GetPosixEnv();
  if (args.mem) {
    owned_env = NewMemEnv();
    env = owned_env.get();
  }

  if (args.gen_records > 0) {
    InputSpec spec;
    spec.path = args.in[0];
    spec.format = RecordFormat(args.record_size, args.key_size,
                               args.key_offset);
    spec.num_records = args.gen_records;
    if (Status g = CreateInputFile(env, spec); !g.ok()) {
      fprintf(stderr, "generate input: %s\n", g.ToString().c_str());
      return 1;
    }
  }

  SortOptions opts;
  opts.input_path = args.in[0];
  opts.output_path = args.out;
  opts.format = RecordFormat(args.record_size, args.key_size,
                             args.key_offset);
  opts.num_workers = args.workers;
  opts.memory_budget = args.memory_mb << 20;
  opts.scratch_path = args.out + ".scratch";
  if (!opts.format.Valid()) {
    fprintf(stderr, "invalid record layout (R=%zu K=%zu off=%zu)\n",
            args.record_size, args.key_size, args.key_offset);
    return 2;
  }

  // Mirror the input's stripe width onto a missing output definition.
  if (IsStripePath(args.out) && !env->FileExists(args.out)) {
    auto in_file = StripeFile::Open(env, args.in[0], OpenMode::kReadOnly);
    if (!in_file.ok()) {
      fprintf(stderr, "open input: %s\n",
              in_file.status().ToString().c_str());
      return 1;
    }
    const auto& def = in_file.value()->definition();
    Status s = CreateOutputDefinition(
        env, args.out, def.members.size(),
        def.members.empty() ? 65536 : def.members[0].stride_bytes);
    if (!s.ok()) {
      fprintf(stderr, "create output definition: %s\n",
              s.ToString().c_str());
      return 1;
    }
  }

  // The recorder outlives the sort; JSON is written after Uninstall so
  // no instrumentation point can race the export.
  std::unique_ptr<obs::TraceRecorder> recorder;
  if (!args.trace_path.empty()) {
    recorder = std::make_unique<obs::TraceRecorder>();
    recorder->Install();
  }

  SortMetrics metrics;
  Status s;
  if (args.merge) {
    s = MergeSortedFiles(env, args.in, args.out, opts, &metrics);
  } else if (args.algorithm == "vms") {
    s = VmsSort::Run(env, opts, &metrics);
  } else {
    Sorter::Resources resources;
    resources.num_workers = opts.num_workers;
    resources.io_threads = opts.io_threads;
    resources.use_affinity = opts.use_affinity;
    Sorter sorter(env, resources);
    const SortResult& result = sorter.Start(opts).Wait();
    s = result.status;
    metrics = result.metrics;
  }
  if (recorder != nullptr) {
    obs::TraceRecorder::Uninstall();
    const std::string json = recorder->ToChromeJson();
    // The trace always goes to the host filesystem (even with --mem):
    // it is for a human to load into chrome://tracing.
    FILE* f = fopen(args.trace_path.c_str(), "w");
    if (f == nullptr ||
        fwrite(json.data(), 1, json.size(), f) != json.size()) {
      fprintf(stderr, "write trace %s failed\n", args.trace_path.c_str());
      if (f != nullptr) fclose(f);
      return 1;
    }
    fclose(f);
    if (!args.quiet) {
      printf("trace: %zu events -> %s%s\n", recorder->size(),
             args.trace_path.c_str(),
             recorder->dropped() > 0 ? " (ring wrapped; oldest dropped)"
                                     : "");
    }
  }
  if (!s.ok()) {
    fprintf(stderr, "sort failed: %s\n", s.ToString().c_str());
    return 1;
  }
  if (!args.quiet) {
    printf("%s", metrics.ToString().c_str());
  }
  if (args.metrics) {
    // The registry is process-global and cumulative (it also saw e.g.
    // --gen-records IO); the delta scopes the dump to the sort itself.
    printf("--- metrics (this run) ---\n%s",
           metrics.registry_delta.ToString().c_str());
  }

  if (!args.report_path.empty()) {
    obs::SortReport report;
    report.tool = "asort";
    report.config = StrFormat(
        "in=%s out=%s algorithm=%s workers=%d memory_mb=%llu "
        "record_size=%zu%s%s",
        args.in[0].c_str(), args.out.c_str(),
        args.merge ? "merge" : args.algorithm.c_str(), args.workers,
        static_cast<unsigned long long>(args.memory_mb), args.record_size,
        args.mem ? " mem" : "", args.verify ? " verify" : "");
    report.metrics = metrics;
    const std::string json = report.ToJson();
    // Like the trace, the report always goes to the host filesystem:
    // it is input for report_lint / bench_compare, not sort data.
    FILE* f = fopen(args.report_path.c_str(), "w");
    if (f == nullptr ||
        fwrite(json.data(), 1, json.size(), f) != json.size()) {
      fprintf(stderr, "write report %s failed\n", args.report_path.c_str());
      if (f != nullptr) fclose(f);
      return 1;
    }
    fclose(f);
    if (!args.quiet) {
      printf("report: %s\n", args.report_path.c_str());
    }
  }

  if (args.verify && !args.merge) {
    Status v = ValidateSortedFile(env, args.in[0], args.out, opts.format);
    if (!v.ok()) {
      fprintf(stderr, "verification FAILED: %s\n", v.ToString().c_str());
      return 1;
    }
    if (!args.quiet) printf("verification: OK\n");
  }
  return 0;
}
