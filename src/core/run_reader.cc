#include "core/run_reader.h"

#include <algorithm>

#include "common/checksum.h"

namespace alphasort {

RunReader::RunReader(File* file, uint64_t end, const RecordFormat& fmt,
                     size_t buffer_records, AsyncIO* aio, uint64_t start)
    : file_(file),
      fmt_(fmt),
      end_(end),
      buf_bytes_(std::max<size_t>(1, buffer_records) * fmt.record_size),
      aio_(aio),
      next_offset_(start) {
  buffers_[0].resize(buf_bytes_);
  buffers_[1].resize(buf_bytes_);
}

RunReader::~RunReader() {
  if (pending_in_flight_) aio_->Wait(pending_);
}

Status RunReader::Init() {
  SubmitNext(0);
  ALPHASORT_RETURN_IF_ERROR(WaitPendingInto(0));
  if (valid_[0] > 0) SubmitNext(1);
  return Status::OK();
}

Status RunReader::NextBuffer() {
  // Current buffer drained: swap in the prefetched one and prefetch the
  // next stretch into the buffer just freed.
  if (!pending_in_flight_) {
    valid_[cur_] = 0;  // fully exhausted
    return Status::OK();
  }
  const size_t other = cur_ ^ 1;
  ALPHASORT_RETURN_IF_ERROR(WaitPendingInto(other));
  cur_ = other;
  pos_ = 0;
  if (valid_[cur_] > 0 && next_offset_ < end_) {
    SubmitNext(cur_ ^ 1);
  }
  return Status::OK();
}

void RunReader::SubmitNext(size_t buf) {
  const size_t len = static_cast<size_t>(
      std::min<uint64_t>(buf_bytes_, end_ - next_offset_));
  if (len == 0) return;
  pending_ = aio_->SubmitRead(file_, next_offset_, len,
                              buffers_[buf].data());
  pending_len_ = len;
  pending_in_flight_ = true;
  next_offset_ += len;
}

Status RunReader::WaitPendingInto(size_t buf) {
  if (!pending_in_flight_) {
    valid_[buf] = 0;
    return Status::OK();
  }
  size_t got = 0;
  Status s = aio_->Wait(pending_, &got);
  pending_in_flight_ = false;
  ALPHASORT_RETURN_IF_ERROR(s);
  if (got != pending_len_) {
    return Status::Corruption("short read from scratch run");
  }
  valid_[buf] = got;
  // Buffers are filled strictly in file order (one read in flight at a
  // time), so this accumulates the CRC of the whole byte stream.
  crc_ = Crc32c(buffers_[buf].data(), got, crc_);
  return Status::OK();
}

}  // namespace alphasort
