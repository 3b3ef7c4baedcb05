// The repository's benchmark: one program that drives the public sort API
// on three workloads and prints every metric by name, with its unit.
//
//   sortbench --workload onepass|twopass|net --seed N --seconds S
//             --trace 0|1 [--scale full|tiny]
//
// --trace 0 measures the end-to-end metrics with no probe in the path.
// --trace 1 measures the per-layer metrics by timing calls into each
// layer's public functions from outside (probes.h, replay.h), and reports
// the probes' own cost as trace.overhead_ms. --scale tiny shrinks every
// input for the self-test. The last line of stdout is the JSON result; a
// "# env" line before it stamps the host and build. README.md explains
// the workloads and which metric each layer should move.

#include <sys/statfs.h>
#include <unistd.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/simd.h"
#include "core/record_source.h"
#include "core/sorter.h"
#include "io/env.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "obs/perf_counters.h"
#include "probes.h"
#include "ram_env.h"
#include "record/generator.h"
#include "record/validator.h"
#include "replay.h"

namespace alphasort {
namespace perfbench {
namespace {

constexpr RecordFormat kFormat = kDatamationFormat;
constexpr int kWorkers = 3;
constexpr int kIoThreads = 4;
constexpr int kSetupReps = 5;
// Set-up generates inputs on this many threads. On one thread its time
// followed the speed of whichever vCPU it ran on, which on a shared host
// switches between two modes 1.6x apart; spread over every vCPU it
// follows their average.
constexpr int kSetupThreads = 4;
constexpr int kWarmups = 2;
constexpr size_t kMinSamples = 3;
constexpr uint64_t kMaxFailures = 5;
// A run with no result by then is stuck; SIGALRM ends it inside the
// caller's 180 s limit instead of letting it hang.
constexpr unsigned kWatchdogSeconds = 170;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Printed with --trace 0, in this order (BENCHMARK.json "end_to_end").
constexpr MetricDef kEndToEnd[] = {
    {"latency_p50_ms", "ms"}, {"latency_p90_ms", "ms"},
    {"mb_per_s", "MB/s"},     {"setup_s", "s"},
    {"peak_heap_mb", "MB"},   {"write_amp", "ratio"},
    {"verified_rate", "ratio"},
};

// Printed with --trace 1, in this order (BENCHMARK.json "per_layer").
// A layer a workload does not reach reports 0 (README.md has the table).
constexpr MetricDef kPerLayer[] = {
    {"core.startup_s", "s"},
    {"core.read_phase_s", "s"},
    {"core.last_run_s", "s"},
    {"core.merge_phase_s", "s"},
    {"core.close_s", "s"},
    {"core.unattributed_s", "s"},
    {"core.runs", "count"},
    {"core.merge_ranges", "count"},
    {"core.passes", "count"},
    {"source.read_wait_s", "s"},
    {"source.read_calls", "count"},
    {"source.read_mb", "MB"},
    {"sort.entry_build_s", "s"},
    {"sort.run_sort_s", "s"},
    {"sort.compares_per_record", "1/record"},
    {"sort.tie_breaks_per_record", "1/record"},
    {"merge.partition_s", "s"},
    {"merge.tournament_s", "s"},
    {"merge.gather_s", "s"},
    {"merge.compares_per_record", "1/record"},
    {"checksum.crc_s", "s"},
    {"checksum.gb_per_s", "GB/s"},
    {"io.input.read_s", "s"},
    {"io.input.read_mb", "MB"},
    {"io.output.write_s", "s"},
    {"io.output.write_mb", "MB"},
    {"io.output.read_s", "s"},
    {"io.scratch.write_s", "s"},
    {"io.scratch.read_s", "s"},
    {"io.scratch.mb", "MB"},
    {"io.read_p99_us", "us"},
    {"io.write_p99_us", "us"},
    {"io.aio_queue_wait_p50_us", "us"},
    {"io.retries", "count"},
    {"svc.queue_ms_p50", "ms"},
    {"net.ingest_ms_p50", "ms"},
    {"net.sort_ms_p50", "ms"},
    {"net.merge_ms_p50", "ms"},
    {"net.stream_ms_p50", "ms"},
    {"net.server_elapsed_ms_p50", "ms"},
    {"net.client_overhead_ms_p50", "ms"},
    {"net.rejected", "count"},
    {"trace.overhead_ms", "ms"},
    {"trace.replay_crc_match", "bool"},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
};

// ---------------------------------------------------------------------------
// Statistics and output.
// ---------------------------------------------------------------------------

// Linear interpolation between closest ranks (numpy's default).
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * double(v.size() - 1);
  const size_t lo = size_t(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

// Peak heap above `base`, the live bytes at the operation's start.
double PeakHeapMb(int64_t base) {
  return double(heap::PeakBytes() - base) / 1e6;
}

// Share of CPU time the hypervisor gave to other guests between
// construction and Share(), from /proc/stat; -1 where it cannot be read.
// A shared virtual machine's main noise source, so each result states it.
class CpuSteal {
 public:
  CpuSteal() : t0_(Read()) {}
  double Share() const {
    const std::vector<uint64_t> t1 = Read();
    if (t0_.size() < 8 || t1.size() < 8) return -1;
    uint64_t total = 0;
    for (size_t i = 0; i < 8; ++i) total += t1[i] - t0_[i];
    return total == 0 ? 0 : double(t1[7] - t0_[7]) / double(total);
  }

 private:
  // user nice system idle iowait irq softirq steal, in clock ticks.
  static std::vector<uint64_t> Read() {
    std::vector<uint64_t> t;
    FILE* f = fopen("/proc/stat", "r");
    if (f == nullptr) return t;
    unsigned long long v[8];
    if (fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1],
               &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
      t.assign(v, v + 8);
    }
    fclose(f);
    return t;
  }

  std::vector<uint64_t> t0_;
};

// Printed just before the result line.
void PrintStealStamp(double share) {
  printf("# host {\"cpu_steal_share\": %.4f}\n", share);
}

double SecondsSince(uint64_t t0_ns) { return double(NowNs() - t0_ns) / 1e9; }

// Runs fn(i) for every i in [0, n) on `threads` threads.
template <typename Fn>
void ParallelFor(size_t n, int threads, Fn fn) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (size_t i; (i = next.fetch_add(1)) < n;) fn(i);
    });
  }
  for (std::thread& t : pool) t.join();
}

// Metric values by name; printed in the order of a MetricDef table.
using Values = std::map<std::string, double>;

// Per-sort (or per-job) samples by name, reduced to medians.
class Samples {
 public:
  void Add(const std::string& name, double v) { s_[name].push_back(v); }
  void MediansInto(Values* out) const {
    for (const auto& [name, v] : s_) (*out)[name] = Median(v);
  }

 private:
  std::map<std::string, std::vector<double>> s_;
};

// Attempted/failed counts over every sort or job a run starts, warm-ups
// included.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t rejected = 0;  // failures that were well-delivered Unavailable
  std::string first_error;

  bool Note(const Status& s) {
    ++attempted;
    if (s.ok()) return true;
    ++failed;
    if (s.IsUnavailable()) ++rejected;
    if (first_error.empty()) first_error = s.ToString();
    return false;
  }
  void Merge(const Tally& o) {
    attempted += o.attempted;
    failed += o.failed;
    rejected += o.rejected;
    if (first_error.empty()) first_error = o.first_error;
  }
  double VerifiedRate() const {
    return attempted == 0 ? 0 : double(attempted - failed) / double(attempted);
  }
};

// Prints the result line and returns the exit code.
template <size_t N>
int Finish(bool correct, const Tally& tally, const MetricDef (&defs)[N],
           const Values& values) {
  if (!tally.first_error.empty()) {
    fprintf(stderr, "first error: %s\n", tally.first_error.c_str());
  }
  std::string metrics;
  for (const MetricDef& d : defs) {
    auto it = values.find(d.name);
    double v = it == values.end() ? 0 : it->second;
    if (!std::isfinite(v)) v = 0;
    char buf[64];
    snprintf(buf, sizeof(buf), "%.17g", v);
    metrics += std::string(metrics.empty() ? "" : ", ") + "\"" + d.name +
               "\": {\"value\": " + buf + ", \"unit\": \"" + d.unit + "\"}";
  }
  correct = correct && tally.failed == 0 && tally.attempted > 0;
  printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
         "\"metrics\": {%s}}\n",
         correct ? "true" : "false",
         static_cast<unsigned long long>(tally.attempted),
         static_cast<unsigned long long>(tally.failed), metrics.c_str());
  fflush(stdout);
  return correct ? 0 : 1;
}

// Set-up failed: nothing was measured, so print no result.
int Abort(const char* what, const Status& s) {
  fprintf(stderr, "sortbench: %s: %s\n", what, s.ToString().c_str());
  return 1;
}

// ---------------------------------------------------------------------------
// Environment stamp.
// ---------------------------------------------------------------------------

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  unsigned int max_leaf = 0, b = 0, c = 0, d = 0;
  if (__get_cpuid(0x80000000u, &max_leaf, &b, &c, &d) &&
      max_leaf >= 0x80000004u) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    memcpy(brand, regs, 48);
    std::string s;
    for (const char* p = brand; *p != '\0'; ++p) {
      if (*p != '"' && *p != '\\' && *p >= 0x20) s += *p;
    }
    const size_t first = s.find_first_not_of(' ');
    if (first != std::string::npos) return s.substr(first);
  }
#endif
  return "unknown";
}

std::string FilesystemType(const char* path) {
  struct statfs st;
  if (statfs(path, &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794c7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x6969: return "nfs";
    case 0x65735546: return "fuse";
    default: {
      char buf[32];
      snprintf(buf, sizeof(buf), "0x%lx",
               static_cast<unsigned long>(st.f_type));
      return buf;
    }
  }
}

// Runs from different hosts or builds must not be compared silently, so
// every run stamps what it ran on. Every sort's input, output and scratch
// live in the benchmark's in-process RamEnv ("data_fs"); "checkout_fs" is
// where the benchmark was started from, which no sort touches.
void PrintEnvStamp(const Args& args) {
  obs::PerfCounterGroup perf_probe;
  printf(
      "# env {\"workload\": \"%s\", \"seed\": %llu, \"scale\": \"%s\", "
      "\"nproc\": %ld, \"cpu\": \"%s\", \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"simd_backend\": \"%s\", "
      "\"simd_vector_active\": %s, \"perf_counters\": %s, "
      "\"checkout_fs\": \"%s\", \"data_fs\": \"ramenv\"}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.tiny ? "tiny" : "full", sysconf(_SC_NPROCESSORS_ONLN),
      CpuModel().c_str(), PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
      simd::kBackendName, simd::VectorActive() ? "true" : "false",
      perf_probe.available() ? "true" : "false",
      FilesystemType(".").c_str());
  fflush(stdout);
}

// ---------------------------------------------------------------------------
// Per-layer values shared by the workloads.
// ---------------------------------------------------------------------------

void AddIoSamples(const IoTotals& io, double ops, Samples* s) {
  const IoClassTotals& in = io.cls[kIoInput];
  const IoClassTotals& out = io.cls[kIoOutput];
  const IoClassTotals& scr = io.cls[kIoScratch];
  s->Add("io.input.read_s", double(in.read_ns) / 1e9 / ops);
  s->Add("io.input.read_mb", double(in.read_bytes) / 1e6 / ops);
  s->Add("io.output.write_s", double(out.write_ns) / 1e9 / ops);
  s->Add("io.output.write_mb", double(out.write_bytes) / 1e6 / ops);
  s->Add("io.output.read_s", double(out.read_ns) / 1e9 / ops);
  s->Add("io.scratch.write_s", double(scr.write_ns) / 1e9 / ops);
  s->Add("io.scratch.read_s", double(scr.read_ns) / 1e9 / ops);
  s->Add("io.scratch.mb", double(scr.write_bytes) / 1e6 / ops);
}

void AddIoLatency(const TimingEnv& env, Values* v) {
  (*v)["io.read_p99_us"] = env.ReadLatencyUs().Percentile(99);
  (*v)["io.write_p99_us"] = env.WriteLatencyUs().Percentile(99);
}

void AddReplay(const ReplayResult& r, Values* v) {
  const double n = r.records > 0 ? double(r.records) : 1;
  const double bytes = double(r.records) * double(kFormat.record_size);
  (*v)["sort.entry_build_s"] = r.entry_build_s;
  (*v)["sort.run_sort_s"] = r.run_sort_s;
  (*v)["sort.compares_per_record"] = double(r.run_stats.compares) / n;
  (*v)["sort.tie_breaks_per_record"] = double(r.run_stats.tie_breaks) / n;
  (*v)["merge.partition_s"] = r.partition_s;
  (*v)["merge.tournament_s"] = r.tournament_s;
  (*v)["merge.gather_s"] = r.gather_s;
  (*v)["merge.compares_per_record"] = double(r.merge_stats.compares) / n;
  (*v)["checksum.crc_s"] = r.crc_s;
  (*v)["checksum.gb_per_s"] = r.crc_s > 0 ? bytes / r.crc_s / 1e9 : 0;
}

// The replay must have checksummed the same bytes the sort produced.
bool CrcsMatch(const std::vector<uint32_t>& crcs, uint32_t replay_crc,
               Tally* tally) {
  bool match = !crcs.empty();
  for (uint32_t c : crcs) match &= c == replay_crc;
  if (!match) {
    tally->Note(Status::Corruption(
        "replayed output CRC differs from the sort's output CRC"));
  }
  return match;
}

double HistogramP50(const obs::RegistrySnapshot& snap, const char* name) {
  auto it = snap.histograms.find(name);
  return it == snap.histograms.end() ? 0 : it->second.Percentile(50);
}

double CounterOf(const obs::RegistrySnapshot& snap, const char* name) {
  auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : double(it->second);
}

// ---------------------------------------------------------------------------
// File workloads: onepass and twopass.
// ---------------------------------------------------------------------------

constexpr char kInputPath[] = "bench/in.dat";
constexpr char kOutputPath[] = "bench/out.dat";
constexpr char kScratchPath[] = "bench/scratch";

struct FileShape {
  uint64_t records;
  uint64_t memory_budget;
};

FileShape ShapeFor(const Args& args) {
  if (args.workload == "onepass") {
    return {args.tiny ? 20000ull : 2000000ull, 256ull << 20};
  }
  // twopass: the same input under a budget that forces a spill.
  return args.tiny ? FileShape{60000, 4ull << 20}
                   : FileShape{2000000, 32ull << 20};
}

// Chunk c of the input comes from its own generator, seeded from `seed`
// and c, so the bytes depend on the seed alone and not on which thread
// made them. A chunk's buffer (100 KB) stays below malloc's mmap
// threshold, so repeats reuse heap memory instead of faulting in fresh
// pages.
Status WriteInput(Env* env, uint64_t seed, uint64_t records) {
  Result<std::unique_ptr<File>> f =
      env->OpenFile(kInputPath, OpenMode::kCreateReadWrite);
  if (!f.ok()) return f.status();
  File* file = f.value().get();
  constexpr uint64_t kChunk = 1000;
  std::mutex mu;
  Status first_error;
  ParallelFor((records + kChunk - 1) / kChunk, kSetupThreads, [&](size_t c) {
    const uint64_t len = std::min(kChunk, records - c * kChunk);
    std::vector<char> buf(len * kFormat.record_size);
    RecordGenerator(kFormat, seed * 1000003 + c)
        .Generate(KeyDistribution::kUniform, len, buf.data());
    Status s = file->Write(c * kChunk * kFormat.record_size, buf.data(),
                           buf.size());
    std::lock_guard<std::mutex> lock(mu);
    if (first_error.ok()) first_error = s;
  });
  ALPHASORT_RETURN_IF_ERROR(first_error);
  return file->Close();
}

// Streams `path` through `fn(data, bytes)` in whole-record chunks.
template <typename Fn>
Status ForEachChunk(Env* env, const char* path, Fn fn) {
  Result<std::unique_ptr<File>> f = env->OpenFile(path, OpenMode::kReadOnly);
  if (!f.ok()) return f.status();
  std::vector<char> buf(10000 * kFormat.record_size);
  for (uint64_t off = 0;;) {
    size_t got = 0;
    ALPHASORT_RETURN_IF_ERROR(
        f.value()->Read(off, buf.size(), buf.data(), &got));
    if (got == 0) break;
    fn(buf.data(), got);
    off += got;
  }
  return f.value()->Close();
}

struct FileSort {
  double latency_s = 0;
  double peak_heap_mb = 0;
  SortMetrics metrics;
};

// One timed sort and its check. The previous sort's output is deleted
// first, outside the timed region: truncating an existing output inside
// the sort put up to 0.14 s into core.startup_s. `input` has seen the
// whole input; a copy of it checks this sort's output.
Status SortAndCheck(Sorter* sorter, Env* data_env, const SortOptions& opts,
                    const SortValidator& input, FileSort* out) {
  data_env->DeleteFile(kOutputPath);  // NotFound before the first sort
  const int64_t heap0 = heap::ResetPeak();
  const uint64_t t0 = NowNs();
  SortJob job = sorter->Start(opts);
  const SortResult& r = job.Wait();
  out->latency_s = SecondsSince(t0);
  out->peak_heap_mb = PeakHeapMb(heap0);
  out->metrics = r.metrics;
  if (!r.status.ok()) return r.status;
  SortValidator check = input;
  bool whole = true;
  ALPHASORT_RETURN_IF_ERROR(
      ForEachChunk(data_env, kOutputPath, [&](const char* d, size_t n) {
        whole &= n % kFormat.record_size == 0;
        check.AddOutput(d, n / kFormat.record_size);
      }));
  if (!whole) return Status::Corruption("output has a partial record");
  return check.Finish();
}

int RunFileWorkload(const Args& args) {
  const FileShape shape = ShapeFor(args);
  SortOptions opts;
  opts.input_path = kInputPath;
  opts.output_path = kOutputPath;
  opts.scratch_path = kScratchPath;
  opts.memory_budget = shape.memory_budget;
  opts.num_workers = kWorkers;
  opts.io_threads = kIoThreads;
  Sorter::Resources resources;
  resources.num_workers = kWorkers;
  resources.io_threads = kIoThreads;

  // Set-up: input generation and write, and Sorter construction. It is
  // timed kSetupReps times and reported as the median: once here, and the
  // rest spread evenly over the measured loop. Five repeats in a row at
  // the start all caught the host in whatever mode it was in then, and
  // two 10-run sets' medians differed by 19%; spread out, the median
  // follows the host over the whole run, as the latency medians do. A
  // repeat rewrites the same bytes into recycled blocks of the same env
  // (so the median also skips the first write's page faults) and builds
  // a Sorter that is then dropped; the sorts keep using the first one.
  std::unique_ptr<Env> env = NewRamEnv();
  std::vector<double> setup_s;
  auto set_up = [&](std::unique_ptr<Sorter>* sorter) {
    env->DeleteFile(kInputPath);  // NotFound the first time
    const uint64_t t0 = NowNs();
    ALPHASORT_RETURN_IF_ERROR(
        WriteInput(env.get(), args.seed, shape.records));
    *sorter = std::make_unique<Sorter>(env.get(), resources);
    setup_s.push_back(SecondsSince(t0));
    return Status::OK();
  };
  std::unique_ptr<Sorter> sorter;
  if (Status s = set_up(&sorter); !s.ok()) {
    return Abort("setting up", s);
  }
  SortValidator want(kFormat);
  if (Status s = ForEachChunk(env.get(), kInputPath,
                              [&want](const char* d, size_t n) {
                                want.AddInput(d, n / kFormat.record_size);
                              });
      !s.ok()) {
    return Abort("hashing the input", s);
  }

  Tally tally;
  Values values;
  FileSort fs;

  if (!args.trace) {
    for (int i = 0; i < kWarmups; ++i) {
      tally.Note(SortAndCheck(sorter.get(), env.get(), opts, want, &fs));
    }
    std::vector<double> lat, peak_heap, write_amp;
    const CpuSteal steal;
    const uint64_t start = NowNs();
    const uint64_t span = uint64_t(args.seconds * 1e9);
    while ((NowNs() < start + span || lat.size() < kMinSamples) &&
           tally.failed <= kMaxFailures) {
      if (setup_s.size() < size_t(kSetupReps) &&
          NowNs() >= start + span * setup_s.size() / kSetupReps) {
        std::unique_ptr<Sorter> dropped;
        if (Status s = set_up(&dropped); !s.ok()) {
          return Abort("setting up", s);
        }
      }
      if (!tally.Note(
              SortAndCheck(sorter.get(), env.get(), opts, want, &fs))) {
        continue;
      }
      lat.push_back(fs.latency_s);
      peak_heap.push_back(fs.peak_heap_mb);
      write_amp.push_back(double(fs.metrics.bytes_out +
                                 fs.metrics.scratch_bytes_written) /
                          double(fs.metrics.bytes_in));
    }
    double busy_s = 0;
    for (double x : lat) busy_s += x;
    values["latency_p50_ms"] = Median(lat) * 1e3;
    values["latency_p90_ms"] = Quantile(lat, 0.9) * 1e3;
    values["mb_per_s"] = double(lat.size()) *
                         double(shape.records * kFormat.record_size) / 1e6 /
                         busy_s;
    values["setup_s"] = Median(setup_s);
    values["peak_heap_mb"] = Median(peak_heap);
    values["write_amp"] = Median(write_amp);
    values["verified_rate"] = tally.VerifiedRate();
    PrintStealStamp(steal.Share());
    return Finish(!lat.empty(), tally, kEndToEnd, values);
  }

  // Traced run: plain sorts alternate with probed ones (a TimingEnv under
  // a second Sorter and a TimingSource in front of its pipeline), so the
  // probes' own cost is measured under the same conditions.
  TimingEnv timing_env(env.get(), kInputPath, /*timed=*/true);
  Sorter traced_sorter(&timing_env, resources);
  std::shared_ptr<TimingSource> source;
  SortOptions traced_opts = opts;
  traced_opts.input_path.clear();
  traced_opts.source = [&source, &opts] {
    source = std::make_shared<TimingSource>(std::make_shared<FileRecordSource>(
        kInputPath, opts.io_chunk_bytes, opts.io_depth));
    return source;
  };

  tally.Note(SortAndCheck(sorter.get(), env.get(), opts, want, &fs));
  tally.Note(SortAndCheck(&traced_sorter, env.get(), traced_opts, want, &fs));
  timing_env.ResetLatency();

  std::vector<double> plain_lat, traced_lat;
  std::vector<uint32_t> crcs;
  Samples samples;
  const CpuSteal steal;
  const uint64_t deadline = NowNs() + uint64_t(args.seconds * 1e9);
  while ((NowNs() < deadline || traced_lat.size() < kMinSamples) &&
         tally.failed <= kMaxFailures) {
    if (tally.Note(SortAndCheck(sorter.get(), env.get(), opts, want, &fs))) {
      plain_lat.push_back(fs.latency_s);
    }
    const IoTotals io0 = timing_env.Totals();
    if (!tally.Note(SortAndCheck(&traced_sorter, env.get(), traced_opts,
                                 want, &fs))) {
      continue;
    }
    traced_lat.push_back(fs.latency_s);
    const SortMetrics& m = fs.metrics;
    crcs.push_back(m.output_crc32c);
    samples.Add("core.startup_s", m.startup_s);
    samples.Add("core.read_phase_s", m.read_phase_s);
    samples.Add("core.last_run_s", m.last_run_s);
    samples.Add("core.merge_phase_s", m.merge_phase_s);
    samples.Add("core.close_s", m.close_s);
    samples.Add("core.unattributed_s", m.total_s - m.PhaseSum());
    samples.Add("core.runs", double(m.num_runs));
    samples.Add("core.merge_ranges", double(m.merge_ranges));
    samples.Add("core.passes", double(m.passes));
    samples.Add("source.read_wait_s", double(source->wait_ns()) / 1e9);
    samples.Add("source.read_calls", double(source->calls()));
    samples.Add("source.read_mb", double(source->bytes()) / 1e6);
    AddIoSamples(timing_env.Totals().Minus(io0), 1, &samples);
    samples.Add("io.aio_queue_wait_p50_us",
                HistogramP50(m.registry_delta, "aio.queue_wait_us"));
    samples.Add("io.retries", CounterOf(m.registry_delta, "io.retry.attempts"));
  }
  source.reset();
  const double steal_share = steal.Share();
  samples.MediansInto(&values);
  AddIoLatency(timing_env, &values);
  values["trace.overhead_ms"] = (Median(traced_lat) - Median(plain_lat)) * 1e3;

  // Replay the kernels over this workload's own input.
  env->DeleteFile(kOutputPath);
  Result<std::string> input = env->ReadFileToString(kInputPath);
  if (!input.ok()) return Abort("reading the input back", input.status());
  ReplayConfig rc;
  rc.run_size_records = opts.run_size_records;
  rc.max_ranges = kWorkers + 1;
  rc.batch_records = opts.io_chunk_bytes / kFormat.record_size;
  const ReplayResult replay =
      ReplayKernels(kFormat, input.value().data(), shape.records, rc);
  AddReplay(replay, &values);
  const bool crc_match = CrcsMatch(crcs, replay.crc, &tally);
  values["trace.replay_crc_match"] = crc_match ? 1 : 0;
  PrintStealStamp(steal_share);
  return Finish(crc_match, tally, kPerLayer, values);
}

// ---------------------------------------------------------------------------
// Network workload.
// ---------------------------------------------------------------------------

constexpr int kClients = 3;
constexpr int kInputsPerClient = 4;
constexpr uint64_t kNetRunSize = 10000;
constexpr size_t kNetChunkBytes = 64 * 1024;

net::NetServerOptions NetOptions(const std::string& data_root) {
  net::NetServerOptions o;
  o.port = 0;
  o.max_conns = 4 * kClients;
  o.data_root = data_root;
  o.service.max_running = 4;
  o.service.num_workers = kWorkers;
  o.service.io_threads = kIoThreads;
  // Quotas are not under test: make them unreachable so no job is
  // rejected for its ingest rate.
  o.quota.capacity_bytes = 1ull << 40;
  o.quota.refill_bytes_per_s = 1e12;
  o.job_defaults.memory_budget = 16ull << 20;
  o.job_defaults.io_chunk_bytes = kNetChunkBytes;
  o.job_defaults.run_size_records = kNetRunSize;
  return o;
}

struct NetInput {
  const std::vector<char>* data;
  SortValidator validator;  // has seen `*data`
};

struct NetJob {
  double latency_s = 0;
  bool traced = false;
  net::NetSortOutcome outcome;
};

// One closed-loop client: a connection to each server under test, its
// own inputs, and what it measured.
struct NetClient {
  std::string tenant;
  std::vector<std::unique_ptr<net::SortClient>> conns;
  std::vector<NetInput> inputs;
  std::string sorted;  // kept across jobs, so its memory is reused
  std::vector<NetJob> jobs;
  std::vector<uint32_t> input0_crcs;  // output CRCs of jobs on inputs[0]
  Tally tally;
};

// Submits input `k` on connection `c` and checks the sorted stream
// against the input. A broken connection is re-opened.
Status SubmitAndCheck(NetClient* cl, size_t c, size_t k, int port,
                      NetJob* job) {
  const NetInput& in = cl->inputs[k];
  net::SubmitSpec spec;
  spec.format = kFormat;
  std::string& sorted = cl->sorted;
  const uint64_t t0 = NowNs();
  Status s = cl->conns[c]->SubmitSort(spec, in.data->data(), in.data->size(),
                                      &sorted, &job->outcome);
  job->latency_s = SecondsSince(t0);
  if (!s.ok()) {
    cl->conns[c]->Close();
    cl->conns[c]->Connect("127.0.0.1", port, cl->tenant, 10.0);
    return s;
  }
  if (!job->outcome.status.ok()) return job->outcome.status;
  if (sorted.size() % kFormat.record_size != 0) {
    return Status::Corruption("output has a partial record");
  }
  SortValidator check = in.validator;
  check.AddOutput(sorted.data(), sorted.size() / kFormat.record_size);
  ALPHASORT_RETURN_IF_ERROR(check.Finish());
  if (k == 0) cl->input0_crcs.push_back(job->outcome.output_crc32c);
  return Status::OK();
}

int RunNetWorkload(const Args& args) {
  const uint64_t records = args.tiny ? 2000 : 50000;
  const double job_bytes = double(records * kFormat.record_size);
  // A traced run adds a second server over a timing Env; clients
  // alternate between the two.
  const size_t num_servers = args.trace ? 2 : 1;

  // Set-up: input generation, NetServer construction and start, and
  // client connect; repeated, reported as the median, the last one kept.
  std::unique_ptr<Env> env;
  std::unique_ptr<TimingEnv> count_env;   // byte counts for write_amp
  std::unique_ptr<TimingEnv> traced_env;  // probes for the traced server
  std::vector<std::unique_ptr<net::NetServer>> servers;
  std::vector<int> ports;
  std::vector<NetClient> clients;
  std::vector<double> setup_s;
  // Input buffers live across the repeats, so repeats after the first
  // reuse their pages (see WriteInput).
  std::vector<std::vector<char>> data(kClients * kInputsPerClient);
  for (int rep = 0; rep < (args.trace ? 1 : kSetupReps); ++rep) {
    clients.clear();
    servers.clear();
    ports.clear();
    traced_env.reset();
    count_env.reset();
    env.reset();

    const uint64_t t0 = NowNs();
    env = NewRamEnv();
    ParallelFor(data.size(), kSetupThreads, [&](size_t j) {
      const uint64_t i = j / kInputsPerClient, k = j % kInputsPerClient;
      data[j].resize(records * kFormat.record_size);
      RecordGenerator(kFormat, args.seed * 1000 + i * 100 + k)
          .Generate(KeyDistribution::kZipfian, records, data[j].data());
    });
    clients.resize(kClients);
    for (int i = 0; i < kClients; ++i) {
      clients[i].tenant = "bench-" + std::to_string(i);
      for (int k = 0; k < kInputsPerClient; ++k) {
        clients[i].inputs.push_back(
            {&data[i * kInputsPerClient + k], SortValidator(kFormat)});
      }
    }
    count_env = std::make_unique<TimingEnv>(env.get(), "", /*timed=*/false);
    servers.push_back(
        std::make_unique<net::NetServer>(count_env.get(), NetOptions("net")));
    if (args.trace) {
      traced_env = std::make_unique<TimingEnv>(env.get(), "", /*timed=*/true);
      servers.push_back(std::make_unique<net::NetServer>(
          traced_env.get(), NetOptions("net-traced")));
    }
    for (auto& server : servers) {
      if (Status s = server->Start(); !s.ok()) {
        return Abort("starting the server", s);
      }
      ports.push_back(server->port());
    }
    for (NetClient& cl : clients) {
      for (size_t c = 0; c < num_servers; ++c) {
        cl.conns.push_back(std::make_unique<net::SortClient>());
        if (Status s = cl.conns.back()->Connect("127.0.0.1", ports[c],
                                                cl.tenant, 10.0);
            !s.ok()) {
          return Abort("connecting", s);
        }
      }
    }
    setup_s.push_back(SecondsSince(t0));
  }
  for (NetClient& cl : clients) {
    for (NetInput& in : cl.inputs) {
      in.validator.AddInput(in.data->data(),
                            in.data->size() / kFormat.record_size);
    }
  }

  // Closed loop: each client waits for its job's result before sending
  // the next. The barrier's first phase ends when every client is done
  // warming up; the main thread then takes its "before" snapshots, sets
  // the deadline, and the second phase releases the measured loop.
  std::barrier sync(kClients + 1);
  uint64_t deadline = 0;  // written between the two phases
  std::vector<uint64_t> finished_at(kClients, 0);
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      NetClient& cl = clients[i];
      NetJob job;
      for (int w = 0; w < kWarmups; ++w) {
        for (size_t c = 0; c < num_servers; ++c) {
          cl.tally.Note(SubmitAndCheck(&cl, c, 0, ports[c], &job));
        }
      }
      sync.arrive_and_wait();
      sync.arrive_and_wait();
      for (uint64_t n = 0; (NowNs() < deadline || n < kMinSamples) &&
                           cl.tally.failed <= kMaxFailures;
           ++n) {
        const size_t c = n % num_servers;
        const size_t k = (n / num_servers) % kInputsPerClient;
        if (!cl.tally.Note(SubmitAndCheck(&cl, c, k, ports[c], &job))) {
          continue;
        }
        job.traced = c == 1;
        cl.jobs.push_back(job);
      }
      finished_at[i] = NowNs();
    });
  }
  sync.arrive_and_wait();
  const obs::RegistrySnapshot reg0 = obs::MetricsRegistry::Global()->Snapshot();
  const IoTotals count0 = count_env->Totals();
  const IoTotals traced0 = traced_env ? traced_env->Totals() : IoTotals();
  if (traced_env) traced_env->ResetLatency();
  const CpuSteal steal;
  const int64_t heap0 = heap::ResetPeak();
  const uint64_t t_start = NowNs();
  deadline = t_start + uint64_t(args.seconds * 1e9);
  sync.arrive_and_wait();
  for (auto& t : threads) t.join();
  const double wall_s =
      double(*std::max_element(finished_at.begin(), finished_at.end()) -
             t_start) /
      1e9;
  const double peak_heap_mb = PeakHeapMb(heap0);
  const double steal_share = steal.Share();
  const obs::RegistrySnapshot reg =
      obs::MetricsRegistry::Global()->Snapshot().DeltaSince(reg0);
  for (auto& server : servers) server->Stop();

  Tally tally;
  std::vector<NetJob> jobs;
  for (NetClient& cl : clients) {
    tally.Merge(cl.tally);
    jobs.insert(jobs.end(), cl.jobs.begin(), cl.jobs.end());
  }
  // The replay below sorts client 0's first input.
  const std::vector<uint32_t>& crcs = clients[0].input0_crcs;
  Values values;

  if (!args.trace) {
    std::vector<double> lat;
    for (const NetJob& j : jobs) lat.push_back(j.latency_s);
    const IoTotals io = count_env->Totals().Minus(count0);
    values["latency_p50_ms"] = Median(lat) * 1e3;
    values["latency_p90_ms"] = Quantile(lat, 0.9) * 1e3;
    values["mb_per_s"] = double(jobs.size()) * job_bytes / 1e6 / wall_s;
    values["setup_s"] = Median(setup_s);
    values["peak_heap_mb"] = peak_heap_mb;
    values["write_amp"] =
        double(io.WrittenBytes()) / (double(jobs.size()) * job_bytes);
    values["verified_rate"] = tally.VerifiedRate();
    PrintStealStamp(steal_share);
    return Finish(!jobs.empty(), tally, kEndToEnd, values);
  }

  std::vector<double> plain_lat, traced_lat;
  Samples samples;
  for (const NetJob& j : jobs) {
    (j.traced ? traced_lat : plain_lat).push_back(j.latency_s);
    if (!j.traced) continue;
    const net::NetSortOutcome& o = j.outcome;
    samples.Add("svc.queue_ms_p50", double(o.queue_us) / 1e3);
    samples.Add("net.ingest_ms_p50", double(o.ingest_us) / 1e3);
    samples.Add("net.sort_ms_p50", double(o.sort_us) / 1e3);
    samples.Add("net.merge_ms_p50", double(o.merge_us) / 1e3);
    samples.Add("net.stream_ms_p50", double(o.stream_us) / 1e3);
    samples.Add("net.server_elapsed_ms_p50",
                double(o.server_elapsed_us) / 1e3);
    samples.Add("net.client_overhead_ms_p50",
                j.latency_s * 1e3 - double(o.server_elapsed_us) / 1e3);
  }
  AddIoSamples(traced_env->Totals().Minus(traced0),
               std::max<double>(1, double(traced_lat.size())), &samples);
  samples.MediansInto(&values);
  AddIoLatency(*traced_env, &values);
  values["io.aio_queue_wait_p50_us"] = HistogramP50(reg, "aio.queue_wait_us");
  values["io.retries"] = CounterOf(reg, "io.retry.attempts");
  values["net.rejected"] = double(tally.rejected);
  values["trace.overhead_ms"] = (Median(traced_lat) - Median(plain_lat)) * 1e3;

  ReplayConfig rc;
  rc.run_size_records = kNetRunSize;
  rc.max_ranges = kWorkers + 1;
  rc.batch_records = kNetChunkBytes / kFormat.record_size;
  const ReplayResult replay =
      ReplayKernels(kFormat, clients[0].inputs[0].data->data(), records, rc);
  AddReplay(replay, &values);
  const bool crc_match = CrcsMatch(crcs, replay.crc, &tally);
  values["trace.replay_crc_match"] = crc_match ? 1 : 0;
  PrintStealStamp(steal_share);
  return Finish(crc_match, tally, kPerLayer, values);
}

bool ParseArgs(int argc, char** argv, Args* a) {
  if (argc % 2 != 1) return false;
  for (int i = 1; i < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atof(v.c_str());
    } else if (k == "--trace" && (v == "0" || v == "1")) {
      a->trace = v == "1";
    } else if (k == "--scale" && (v == "full" || v == "tiny")) {
      a->tiny = v == "tiny";
    } else {
      return false;
    }
  }
  return a->seconds > 0 && a->seconds <= 120 &&
         (a->workload == "onepass" || a->workload == "twopass" ||
          a->workload == "net");
}

}  // namespace
}  // namespace perfbench
}  // namespace alphasort

int main(int argc, char** argv) {
  using namespace alphasort::perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    fprintf(stderr,
            "usage: sortbench --workload onepass|twopass|net --seed N "
            "--seconds S --trace 0|1 [--scale full|tiny]\n");
    return 2;
  }
  alarm(kWatchdogSeconds);
  PrintEnvStamp(args);
  return args.workload == "net" ? RunNetWorkload(args)
                                : RunFileWorkload(args);
}
