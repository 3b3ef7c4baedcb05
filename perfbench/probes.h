#ifndef ALPHASORT_PERFBENCH_PROBES_H_
#define ALPHASORT_PERFBENCH_PROBES_H_

// Measurement probes the benchmark wraps around the library's public
// interfaces, so every per-layer number is taken from outside the code
// under test:
//   - TimingEnv:    an Env decorator that times every File read/write and
//                   charges it to the input, output or scratch class;
//   - TimingSource: a RecordSource decorator that times each Read() the
//                   pipeline blocks in;
//   - heap:         the peak C++ heap a sort allocates, counted at the
//                   global operator new/delete.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/record_source.h"
#include "io/env.h"
#include "obs/metrics.h"

namespace alphasort {
namespace perfbench {

inline uint64_t NowNs() {
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count());
}

// ---------------------------------------------------------------------------
// IO timing.
// ---------------------------------------------------------------------------

enum IoClass { kIoInput = 0, kIoOutput = 1, kIoScratch = 2, kNumIoClasses };

// Plain copy of one class's counters; subtract two to scope them to one
// sort.
struct IoClassTotals {
  uint64_t reads = 0, read_bytes = 0, read_ns = 0;
  uint64_t writes = 0, write_bytes = 0, write_ns = 0;

  IoClassTotals Minus(const IoClassTotals& o) const {
    return {reads - o.reads,   read_bytes - o.read_bytes,
            read_ns - o.read_ns, writes - o.writes,
            write_bytes - o.write_bytes, write_ns - o.write_ns};
  }
};

struct IoTotals {
  IoClassTotals cls[kNumIoClasses];

  IoTotals Minus(const IoTotals& o) const {
    IoTotals d;
    for (int c = 0; c < kNumIoClasses; ++c) d.cls[c] = cls[c].Minus(o.cls[c]);
    return d;
  }
  uint64_t WrittenBytes() const {
    uint64_t n = 0;
    for (const auto& c : cls) n += c.write_bytes;
    return n;
  }
};

// Env decorator. With `timed` false it only counts bytes (cheap enough to
// stay on in end-to-end runs); with `timed` true it also reads the clock
// around every call and records per-call latency histograms. Paths equal
// to `input_path` are input, paths containing "scratch" are scratch, and
// everything else is output.
class TimingEnv : public Env {
 public:
  TimingEnv(Env* base, std::string input_path, bool timed)
      : base_(base), input_path_(std::move(input_path)), timed_(timed) {}

  Result<std::unique_ptr<File>> OpenFile(const std::string& path,
                                         OpenMode mode) override {
    Result<std::unique_ptr<File>> f = base_->OpenFile(path, mode);
    if (!f.ok()) return f.status();
    return {std::unique_ptr<File>(
        new TimingFile(std::move(f).value(), this, Classify(path)))};
  }
  Status DeleteFile(const std::string& path) override {
    return base_->DeleteFile(path);
  }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  Result<uint64_t> GetFileSize(const std::string& path) override {
    return base_->GetFileSize(path);
  }
  Status ListFiles(const std::string& prefix,
                   std::vector<std::string>* out) override {
    return base_->ListFiles(prefix, out);
  }
  Status CreateDir(const std::string& path) override {
    return base_->CreateDir(path);
  }
  Status RemoveDir(const std::string& path) override {
    return base_->RemoveDir(path);
  }

  IoTotals Totals() const {
    IoTotals t;
    for (int c = 0; c < kNumIoClasses; ++c) {
      const Counters& k = counters_[c];
      t.cls[c] = {k.reads.load(), k.read_bytes.load(), k.read_ns.load(),
                  k.writes.load(), k.write_bytes.load(), k.write_ns.load()};
    }
    return t;
  }

  // Per-call latency, microseconds, over every class (timed mode only).
  obs::HistogramSnapshot ReadLatencyUs() const { return read_us_.Snapshot(); }
  obs::HistogramSnapshot WriteLatencyUs() const {
    return write_us_.Snapshot();
  }
  // Drops the latency samples taken so far (e.g. by warm-ups).
  void ResetLatency() {
    read_us_.Reset();
    write_us_.Reset();
  }

 private:
  struct Counters {
    std::atomic<uint64_t> reads{0}, read_bytes{0}, read_ns{0};
    std::atomic<uint64_t> writes{0}, write_bytes{0}, write_ns{0};
  };

  class TimingFile : public File {
   public:
    TimingFile(std::unique_ptr<File> base, TimingEnv* env, IoClass cls)
        : base_(std::move(base)), env_(env), c_(&env->counters_[cls]) {}

    Status Read(uint64_t offset, size_t n, char* scratch,
                size_t* bytes_read) override {
      const uint64_t t0 = env_->timed_ ? NowNs() : 0;
      Status s = base_->Read(offset, n, scratch, bytes_read);
      if (env_->timed_) {
        const uint64_t ns = NowNs() - t0;
        c_->read_ns.fetch_add(ns, std::memory_order_relaxed);
        env_->read_us_.Record(ns / 1000);
      }
      c_->reads.fetch_add(1, std::memory_order_relaxed);
      if (s.ok()) {
        c_->read_bytes.fetch_add(*bytes_read, std::memory_order_relaxed);
      }
      return s;
    }

    Status Write(uint64_t offset, const char* data, size_t n) override {
      const uint64_t t0 = env_->timed_ ? NowNs() : 0;
      Status s = base_->Write(offset, data, n);
      if (env_->timed_) {
        const uint64_t ns = NowNs() - t0;
        c_->write_ns.fetch_add(ns, std::memory_order_relaxed);
        env_->write_us_.Record(ns / 1000);
      }
      c_->writes.fetch_add(1, std::memory_order_relaxed);
      if (s.ok()) c_->write_bytes.fetch_add(n, std::memory_order_relaxed);
      return s;
    }

    Result<uint64_t> Size() override { return base_->Size(); }
    Status Truncate(uint64_t size) override { return base_->Truncate(size); }
    Status Sync() override { return base_->Sync(); }
    Status Close() override { return base_->Close(); }

   private:
    std::unique_ptr<File> base_;
    TimingEnv* env_;
    Counters* c_;
  };

  IoClass Classify(const std::string& path) const {
    if (!input_path_.empty() && path == input_path_) return kIoInput;
    if (path.find("scratch") != std::string::npos) return kIoScratch;
    return kIoOutput;
  }

  Env* const base_;
  const std::string input_path_;
  const bool timed_;
  Counters counters_[kNumIoClasses];
  obs::Histogram read_us_;
  obs::Histogram write_us_;
};

// ---------------------------------------------------------------------------
// Record source timing.
// ---------------------------------------------------------------------------

// Forwards to `inner` and times every Read(): the time the pipeline's
// root spent blocked waiting for input. Read only by the pipeline's root
// thread; the caller reads the totals after the job is done.
class TimingSource : public RecordSource {
 public:
  explicit TimingSource(std::shared_ptr<RecordSource> inner)
      : inner_(std::move(inner)) {}

  Status Open(Env* env, AsyncIO* aio) override {
    return inner_->Open(env, aio);
  }
  Status Read(char* dst, size_t n, size_t* got) override {
    const uint64_t t0 = NowNs();
    Status s = inner_->Read(dst, n, got);
    wait_ns_ += NowNs() - t0;
    ++calls_;
    if (s.ok()) bytes_ += *got;
    return s;
  }
  Status Close() override { return inner_->Close(); }
  bool TotalBytes(uint64_t* bytes) const override {
    return inner_->TotalBytes(bytes);
  }
  const char* ContiguousBytes(uint64_t* len) override {
    return inner_->ContiguousBytes(len);
  }
  const char* name() const override { return inner_->name(); }

  uint64_t wait_ns() const { return wait_ns_; }
  uint64_t calls() const { return calls_; }
  uint64_t bytes() const { return bytes_; }

 private:
  std::shared_ptr<RecordSource> inner_;
  uint64_t wait_ns_ = 0;
  uint64_t calls_ = 0;
  uint64_t bytes_ = 0;
};

// ---------------------------------------------------------------------------
// Heap accounting (defined in heap_probe.cc, which replaces the global
// operator new/delete).
// ---------------------------------------------------------------------------

namespace heap {

// Bytes the process holds in C++ heap allocations now.
int64_t LiveBytes();
// Highest LiveBytes() since the last ResetPeak().
int64_t PeakBytes();
// Restarts the peak at the current live bytes, and returns them.
int64_t ResetPeak();

}  // namespace heap

}  // namespace perfbench
}  // namespace alphasort

#endif  // ALPHASORT_PERFBENCH_PROBES_H_
