#ifndef ALPHASORT_CORE_RUN_READER_H_
#define ALPHASORT_CORE_RUN_READER_H_

#include <vector>

#include "io/async_io.h"
#include "io/env.h"
#include "record/record.h"

namespace alphasort {

// Double-buffered sequential record reader over one spilled run file, or
// over the byte range [start, end) of one: a key range's slice of a run
// in the partitioned scratch merge. Read-ahead goes through the async
// scheduler so all runs' disks stream concurrently during a merge pass.
class RunReader {
 public:
  RunReader(File* file, uint64_t end, const RecordFormat& fmt,
            size_t buffer_records, AsyncIO* aio, uint64_t start = 0);

  // A pending read targets the internal buffers; it must finish before
  // destruction.
  ~RunReader();

  RunReader(const RunReader&) = delete;
  RunReader& operator=(const RunReader&) = delete;

  // Issues the first reads; call once before Current()/Advance().
  Status Init();

  // CRC-32C of every byte delivered so far, accumulated in file order.
  // After the run is exhausted this covers [start, end), so the merge
  // pass can check it against the checksum recorded at spill time.
  uint32_t crc32c() const { return crc_; }

  // Current record, or nullptr when the run is exhausted. The pointer is
  // valid until the second-next Advance() that crosses a buffer boundary.
  const char* Current() const {
    if (pos_ >= valid_[cur_]) return nullptr;
    return buffers_[cur_].data() + pos_;
  }

  // Steps to the next record. Inline for the in-buffer step, which is
  // every record but the last of each buffer; NextBuffer() swaps buffers.
  Status Advance() {
    pos_ += fmt_.record_size;
    if (pos_ < valid_[cur_]) return Status::OK();
    return NextBuffer();
  }

 private:
  Status NextBuffer();
  void SubmitNext(size_t buf);
  Status WaitPendingInto(size_t buf);

  File* file_;
  RecordFormat fmt_;
  uint64_t end_;
  size_t buf_bytes_;
  AsyncIO* aio_;
  std::vector<char> buffers_[2];
  size_t valid_[2] = {0, 0};
  size_t cur_ = 0;
  size_t pos_ = 0;
  uint64_t next_offset_ = 0;
  AsyncIO::Handle pending_ = 0;
  size_t pending_len_ = 0;
  bool pending_in_flight_ = false;
  uint32_t crc_ = 0;
};

}  // namespace alphasort

#endif  // ALPHASORT_CORE_RUN_READER_H_
