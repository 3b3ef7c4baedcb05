#ifndef ALPHASORT_IO_BUFFERED_WRITER_H_
#define ALPHASORT_IO_BUFFERED_WRITER_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "io/async_io.h"
#include "io/env.h"

namespace alphasort {

// The output ring: `num_buffers` buffers cycling fill → seal → async
// write → retire — the output half of the paper's multi-buffering
// discipline (§6). Its writers are the VMS-sort runs and the public
// record writer (RecordFileWriter); the sort's merges write through
// PartitionedMerge instead. Append copies bytes in, sealing each buffer
// as it fills. Bytes land at consecutive offsets from 0, and a running
// CRC-32C covers them in submit order, which is file order.
//
// A buffer's previous write is retired lazily, when the ring comes back
// round to it, so up to `num_buffers` writes are in flight. After an
// error the ring is dead; Abort() (and the destructor) waits out every
// outstanding write so no IO outlives the buffers.
class BufferedWriter {
 public:
  // `num_buffers` (at least 2) buffers of `buffer_bytes` each. `file`
  // must outlive the writer.
  BufferedWriter(File* file, AsyncIO* aio, size_t buffer_bytes,
                 int num_buffers = 2);

  // Abort(): waits out in-flight writes without reporting them.
  ~BufferedWriter();

  BufferedWriter(const BufferedWriter&) = delete;
  BufferedWriter& operator=(const BufferedWriter&) = delete;

  // Appends `n` bytes; may submit writes and retire earlier ones.
  Status Append(const char* data, size_t n);

  // Submits the partial tail and retires every write; returns the first
  // error. Idempotent.
  Status Finish();

  // Waits out every in-flight write, discarding its status.
  void Abort();

  uint64_t bytes_written() const { return offset_ + fill_; }
  // CRC-32C of the bytes submitted so far.
  uint32_t crc32c() const { return crc_; }
  size_t buffer_bytes() const { return buffer_bytes_; }

 private:
  struct Buffer {
    std::vector<char> data;
    AsyncIO::Handle pending = 0;
    bool in_flight = false;
  };

  Status Retire(Buffer* buf);
  // Submits the current buffer's bytes, if any, and moves to the next.
  void Seal();

  File* file_;
  AsyncIO* aio_;
  size_t buffer_bytes_;
  std::vector<Buffer> buffers_;
  size_t current_ = 0;
  size_t fill_ = 0;       // bytes in the current buffer
  uint64_t offset_ = 0;   // file offset of the current buffer's start
  uint32_t crc_ = 0;
  bool finished_ = false;
};

}  // namespace alphasort

#endif  // ALPHASORT_IO_BUFFERED_WRITER_H_
