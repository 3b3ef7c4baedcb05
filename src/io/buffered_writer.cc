#include "io/buffered_writer.h"

#include <algorithm>
#include <cstring>

#include "common/checksum.h"

namespace alphasort {

BufferedWriter::BufferedWriter(File* file, AsyncIO* aio, size_t buffer_bytes,
                               int num_buffers)
    : file_(file),
      aio_(aio),
      buffer_bytes_(std::max<size_t>(1, buffer_bytes)),
      buffers_(static_cast<size_t>(std::max(2, num_buffers))) {
  for (auto& b : buffers_) b.data.resize(buffer_bytes_);
}

BufferedWriter::~BufferedWriter() { Abort(); }

Status BufferedWriter::Retire(Buffer* buf) {
  if (!buf->in_flight) return Status::OK();
  buf->in_flight = false;
  return aio_->Wait(buf->pending);
}

void BufferedWriter::Seal() {
  if (fill_ == 0) return;
  Buffer& buf = buffers_[current_];
  crc_ = Crc32c(buf.data.data(), fill_, crc_);
  buf.pending = aio_->SubmitWrite(file_, offset_, buf.data.data(), fill_);
  buf.in_flight = true;
  offset_ += fill_;
  fill_ = 0;
  current_ = (current_ + 1) % buffers_.size();
}

Status BufferedWriter::Append(const char* data, size_t n) {
  while (n > 0) {
    Buffer& buf = buffers_[current_];
    ALPHASORT_RETURN_IF_ERROR(Retire(&buf));
    const size_t take = std::min(n, buffer_bytes_ - fill_);
    memcpy(buf.data.data() + fill_, data, take);
    fill_ += take;
    data += take;
    n -= take;
    if (fill_ == buffer_bytes_) Seal();
  }
  return Status::OK();
}

Status BufferedWriter::Finish() {
  if (finished_) return Status::OK();
  finished_ = true;
  Status first_error;
  Seal();
  for (auto& b : buffers_) {
    Status s = Retire(&b);
    if (!s.ok() && first_error.ok()) first_error = s;
  }
  return first_error;
}

void BufferedWriter::Abort() {
  for (auto& b : buffers_) Retire(&b);
}

}  // namespace alphasort
