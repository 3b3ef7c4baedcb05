#ifndef ALPHASORT_CORE_RECORD_SOURCE_H_
#define ALPHASORT_CORE_RECORD_SOURCE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "io/async_io.h"
#include "io/env.h"
#include "record/generator.h"

namespace alphasort {

class StripeFile;  // io/stripe.h

// The pipeline's front end: a pull stream of record bytes.
//
// The paper overlaps every phase of the sort with IO, but a file path in
// SortOptions hard-codes "the input is a finished file on disk" — the
// read phase cannot start until the last byte has landed. A RecordSource
// decouples the pipeline from where records come from: a (striped) file,
// an mmap of already-resident data, an in-memory buffer, a generator, or
// a live network upload still in flight. The pipeline consumes every
// source strictly sequentially, so implementations only have to answer
// four questions:
//
//   Read()            give me the next n bytes (block until you have them)
//   ReadInto()        fill this block, telling me as its prefix fills
//                     (the pipeline's read; default: Read() per piece)
//   TotalBytes()      do you know how big you are? (planning: one pass
//                     vs spill; unknown totals plan adaptively at EOF)
//   ContiguousBytes() are you already resident in one buffer? (zero-copy
//                     one-pass: entries point straight into the source)
//
// Contract:
//   - Open() is called exactly once, before the first read, with the
//     effective Env (metrics/retry wrapping applied) and the shared
//     AsyncIO scheduler. Close() is called exactly once after the last
//     read, success or failure.
//   - Read() blocks until exactly `n` bytes are delivered or the stream
//     ends: `*got < n` happens only at end of input, and a later call
//     returns *got == 0. Errors (IO failure, a producer's Fail()) return
//     a non-OK status; the stream is then dead.
//   - ReadInto() is Read() with progress: the same bytes, end-of-input
//     rule and errors, plus an `on_ready(bytes_ready)` call each time the
//     filled prefix of `dst` grows. A non-OK `on_ready` stops the read
//     and is returned. However a ReadInto() returns, nothing writes to
//     `dst` after it, so the caller may free it at once.
//   - TotalBytes() must answer consistently for the source's lifetime;
//     sources fed incrementally answer false even after their producer
//     closes, because the planner asks exactly once, up front.
//   - ContiguousBytes() returning non-null promises the buffer holds the
//     entire input and stays valid and immutable until Close(). Callers
//     that use it skip reading entirely.
class RecordSource {
 public:
  virtual ~RecordSource() = default;

  virtual Status Open(Env* env, AsyncIO* aio) {
    (void)env;
    (void)aio;
    return Status::OK();
  }

  virtual Status Read(char* dst, size_t n, size_t* got) = 0;

  // Fills up to `n` bytes of `dst`; see the contract above. The default
  // pulls Read() in `piece`-byte pieces and reports each that delivered.
  using ReadyFn = std::function<Status(size_t bytes_ready)>;
  virtual Status ReadInto(char* dst, size_t n, size_t piece,
                          const ReadyFn& on_ready, size_t* got);

  virtual Status Close() { return Status::OK(); }

  // True with `*bytes` filled when the total input size is known up
  // front; false for streams still being produced.
  virtual bool TotalBytes(uint64_t* bytes) const = 0;

  // Zero-copy escape hatch; see the contract above. Valid only between
  // Open() and Close().
  virtual const char* ContiguousBytes(uint64_t* len) {
    (void)len;
    return nullptr;
  }

  // Short label for logs and bench configs ("file", "mmap", "stream"...).
  virtual const char* name() const = 0;
};

// How SortOptions carries a source: a factory invoked once per run, after
// option validation, so retried or copied option structs never share a
// half-consumed stream. Returning nullptr fails the run with
// InvalidArgument. Producers that must keep feeding the source (the
// network server) capture their own shared_ptr in the lambda.
using RecordSourceFactory = std::function<std::shared_ptr<RecordSource>()>;

// Plain or striped file (".str" suffix), read through the shared AsyncIO
// scheduler. ReadInto() keeps `depth` reads of `chunk_bytes` in flight,
// each aimed at its own slice of the caller's block (the paper's triple
// buffering, with the block as the buffers), and reports each chunk as
// it lands in order, so every input byte reaches memory once. Read() is
// the same loop with nobody listening. No read is in flight between
// calls. This is what `input_path` sugar builds.
class FileRecordSource : public RecordSource {
 public:
  explicit FileRecordSource(std::string path, size_t chunk_bytes = 1 << 20,
                            int depth = 3);
  ~FileRecordSource() override;

  Status Open(Env* env, AsyncIO* aio) override;
  Status Read(char* dst, size_t n, size_t* got) override;
  Status ReadInto(char* dst, size_t n, size_t piece,
                  const ReadyFn& on_ready, size_t* got) override;
  Status Close() override;
  bool TotalBytes(uint64_t* bytes) const override;
  const char* name() const override { return "file"; }

 private:
  const std::string path_;
  const size_t chunk_bytes_;
  const int depth_;
  AsyncIO* aio_ = nullptr;
  std::unique_ptr<StripeFile> file_;
  uint64_t size_ = 0;
  uint64_t offset_ = 0;  // next file byte to read
};

// An input already resident in memory. Borrows (data, len) — the caller
// keeps the buffer alive and immutable for the source's lifetime — or
// owns a moved-in string. Contiguous, so one-pass sorts build entries
// straight over it without a read phase.
class MemoryRecordSource : public RecordSource {
 public:
  MemoryRecordSource(const char* data, uint64_t len)
      : data_(data), len_(len) {}
  explicit MemoryRecordSource(std::string data)
      : owned_(std::move(data)),
        data_(owned_.data()),
        len_(owned_.size()) {}

  Status Read(char* dst, size_t n, size_t* got) override;
  bool TotalBytes(uint64_t* bytes) const override {
    *bytes = len_;
    return true;
  }
  const char* ContiguousBytes(uint64_t* len) override {
    *len = len_;
    return len_ > 0 ? data_ : nullptr;
  }
  const char* name() const override { return "memory"; }

 private:
  std::string owned_;
  const char* data_;
  uint64_t len_;
  uint64_t pos_ = 0;
};

// mmap(2) of a plain file on a real filesystem: the zero-copy source for
// input that is already page-cache resident. The mapping is read-only
// and advised MADV_SEQUENTIAL/WILLNEED; ContiguousBytes() exposes it so
// a fitting sort builds entries over the mapped pages and never copies a
// record until the gather. Striped inputs and in-memory Envs are not
// supported — this source goes straight to the kernel.
class MmapRecordSource : public RecordSource {
 public:
  explicit MmapRecordSource(std::string path) : path_(std::move(path)) {}
  ~MmapRecordSource() override;

  Status Open(Env* env, AsyncIO* aio) override;
  Status Read(char* dst, size_t n, size_t* got) override;
  Status Close() override;
  bool TotalBytes(uint64_t* bytes) const override;
  const char* ContiguousBytes(uint64_t* len) override;
  const char* name() const override { return "mmap"; }

 private:
  const std::string path_;
  int fd_ = -1;
  char* map_ = nullptr;
  uint64_t size_ = 0;
  uint64_t pos_ = 0;
  bool open_ = false;
};

// Datamation-style generated records (record/generator.h): `count`
// records of `format` in distribution `dist`, materialized once at
// Open(). Benches and tests sort synthetic inputs without writing an
// input file first; contiguous, so it also exercises the zero-copy path.
class GeneratedRecordSource : public RecordSource {
 public:
  GeneratedRecordSource(RecordFormat format, uint64_t count,
                        KeyDistribution dist = KeyDistribution::kUniform,
                        uint64_t seed = 1);

  Status Open(Env* env, AsyncIO* aio) override;
  Status Read(char* dst, size_t n, size_t* got) override;
  Status Close() override;
  bool TotalBytes(uint64_t* bytes) const override {
    *bytes = total_;
    return true;
  }
  const char* ContiguousBytes(uint64_t* len) override;
  const char* name() const override { return "generated"; }

 private:
  RecordFormat format_;
  uint64_t count_;
  KeyDistribution dist_;
  uint64_t seed_;
  uint64_t total_;
  std::vector<char> data_;
  uint64_t pos_ = 0;
};

// A source fed incrementally by a producer on another thread — the heart
// of the spool-free network path. The consumer (the pipeline) pulls with
// Read(); the producer pushes with Append()/TryAppend() against a
// bounded byte buffer (backpressure: a slow sort throttles the upload
// instead of buffering it all), then Close() for a clean end of input or
// Fail() to poison the stream. Total size is never known — the planner
// runs the adaptive path: one pass if everything arrives within the
// memory budget, spill as usual otherwise.
class StreamRecordSource : public RecordSource {
 public:
  static constexpr size_t kDefaultCapacityBytes = 8u << 20;

  explicit StreamRecordSource(size_t capacity_bytes = kDefaultCapacityBytes)
      : capacity_(capacity_bytes == 0 ? 1 : capacity_bytes) {}

  // --- consumer side (the pipeline).
  Status Read(char* dst, size_t n, size_t* got) override;
  bool TotalBytes(uint64_t* bytes) const override {
    (void)bytes;
    return false;
  }
  const char* name() const override { return "stream"; }

  // --- producer side.
  // Blocks until the chunk fits (or the buffer is empty — one oversized
  // chunk is always accepted rather than deadlocking). Returns false if
  // the stream was closed, failed, or abandoned by its consumer.
  bool Append(const char* data, size_t n);

  // Non-blocking-ish Append: waits at most `timeout_ms` for space.
  // On return, `*accepted` says whether the chunk was taken; a non-OK
  // status means the stream is dead (failed or already closed) and no
  // further appends can succeed.
  Status TryAppend(const char* data, size_t n, int timeout_ms,
                   bool* accepted);

  // End of input: readers drain what is buffered, then see EOF.
  void CloseWrite();

  // Consumer-side close (the pipeline, via the harness). A stream still
  // being fed is abandoned: poisoned so the producer's next append fails
  // instead of blocking on a reader that will never come back.
  Status Close() override;

  // Poisons the stream: readers get `status` once the call lands (no
  // drain), producers get false/non-OK. Used for mid-stream errors —
  // a dropped connection, a CRC mismatch discovered at DONE.
  void Fail(Status status);

  // Bytes currently buffered, and the most ever buffered at once
  // (diagnostics/tests). The high-water mark stays within the capacity
  // unless a single append was larger than it.
  size_t buffered() const;
  size_t peak_buffered() const;

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable can_append_;
  std::condition_variable can_read_;
  std::deque<std::string> chunks_;
  size_t buffered_ = 0;
  size_t peak_buffered_ = 0;
  size_t head_consumed_ = 0;  // bytes of chunks_.front() already read
  bool closed_ = false;
  Status error_;
};

}  // namespace alphasort

#endif  // ALPHASORT_CORE_RECORD_SOURCE_H_
