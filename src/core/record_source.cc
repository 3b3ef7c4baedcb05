#include "core/record_source.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>

#include "common/table.h"
#include "io/stripe.h"

namespace alphasort {

// --- RecordSource ----------------------------------------------------------

Status RecordSource::ReadInto(char* dst, size_t n, size_t piece,
                              const ReadyFn& on_ready, size_t* got) {
  *got = 0;
  piece = std::max<size_t>(1, piece);
  while (*got < n) {
    const size_t want = std::min(piece, n - *got);
    size_t pulled = 0;
    ALPHASORT_RETURN_IF_ERROR(Read(dst + *got, want, &pulled));
    *got += pulled;
    if (pulled > 0) ALPHASORT_RETURN_IF_ERROR(on_ready(*got));
    if (pulled < want) break;  // end of input
  }
  return Status::OK();
}

// --- FileRecordSource ------------------------------------------------------

FileRecordSource::FileRecordSource(std::string path, size_t chunk_bytes,
                                   int depth)
    : path_(std::move(path)),
      chunk_bytes_(std::max<size_t>(1, chunk_bytes)),
      depth_(std::max(1, depth)) {}

FileRecordSource::~FileRecordSource() = default;

Status FileRecordSource::Open(Env* env, AsyncIO* aio) {
  aio_ = aio;
  Result<std::unique_ptr<StripeFile>> file =
      StripeFile::Open(env, path_, OpenMode::kReadOnly, aio);
  ALPHASORT_RETURN_IF_ERROR(file.status());
  file_ = std::move(file).value();
  Result<uint64_t> size = file_->Size();
  ALPHASORT_RETURN_IF_ERROR(size.status());
  size_ = size.value();
  return Status::OK();
}

Status FileRecordSource::Read(char* dst, size_t n, size_t* got) {
  return ReadInto(dst, n, chunk_bytes_,
                  [](size_t) { return Status::OK(); }, got);
}

Status FileRecordSource::ReadInto(char* dst, size_t n, size_t /*piece*/,
                                  const ReadyFn& on_ready, size_t* got) {
  *got = 0;
  if (file_ == nullptr) return Status::IOError("source is not open");
  const uint64_t base = offset_;
  const size_t total =
      static_cast<size_t>(std::min<uint64_t>(n, size_ - offset_));
  auto chunk_at = [&](size_t at) { return std::min(chunk_bytes_, total - at); };
  // Reads of [*got, submitted), in file order; each lands at dst + its
  // offset, so no byte is copied again.
  std::deque<AsyncIO::Handle> in_flight;
  size_t submitted = 0;
  auto submit = [&] {
    while (in_flight.size() < static_cast<size_t>(depth_) &&
           submitted < total) {
      const size_t len = chunk_at(submitted);
      in_flight.push_back(aio_->SubmitRead(file_.get(), base + submitted,
                                           len, dst + submitted));
      submitted += len;
    }
  };
  submit();
  Status s;
  while (!in_flight.empty()) {
    size_t bytes = 0;
    Status done = aio_->Wait(in_flight.front(), &bytes);
    in_flight.pop_front();
    // After an error, only drain: the caller may free `dst` on return.
    if (!s.ok()) continue;
    const size_t len = chunk_at(*got);
    if (!done.ok()) {
      s = done;
    } else if (bytes != len) {
      s = Status::Corruption(StrFormat(
          "short read at offset %llu: wanted %zu got %zu",
          static_cast<unsigned long long>(base + *got), len, bytes));
    } else {
      *got += len;
      s = on_ready(*got);
      if (s.ok()) submit();
    }
  }
  offset_ += *got;
  return s;
}

Status FileRecordSource::Close() {
  if (file_ == nullptr) return Status::OK();
  Status s = file_->Close();
  file_.reset();
  return s;
}

bool FileRecordSource::TotalBytes(uint64_t* bytes) const {
  if (file_ == nullptr) return false;
  *bytes = size_;
  return true;
}

// --- MemoryRecordSource ----------------------------------------------------

Status MemoryRecordSource::Read(char* dst, size_t n, size_t* got) {
  const uint64_t left = len_ - pos_;
  *got = static_cast<size_t>(std::min<uint64_t>(n, left));
  memcpy(dst, data_ + pos_, *got);
  pos_ += *got;
  return Status::OK();
}

// --- MmapRecordSource ------------------------------------------------------

MmapRecordSource::~MmapRecordSource() {
  if (map_ != nullptr) munmap(map_, size_);
  if (fd_ >= 0) close(fd_);
}

Status MmapRecordSource::Open(Env* env, AsyncIO* aio) {
  (void)env;  // goes straight to the kernel; see the class comment
  (void)aio;
  fd_ = ::open(path_.c_str(), O_RDONLY);
  if (fd_ < 0) {
    return Status::IOError(
        StrFormat("mmap source: open %s failed (errno %d) — this source "
                  "needs a plain file on a real filesystem",
                  path_.c_str(), errno));
  }
  struct stat st;
  if (fstat(fd_, &st) != 0) {
    close(fd_);
    fd_ = -1;
    return Status::IOError(StrFormat("mmap source: fstat %s failed",
                                     path_.c_str()));
  }
  size_ = static_cast<uint64_t>(st.st_size);
  if (size_ > 0) {
    void* map = mmap(nullptr, size_, PROT_READ, MAP_SHARED, fd_, 0);
    if (map == MAP_FAILED) {
      close(fd_);
      fd_ = -1;
      return Status::IOError(StrFormat("mmap source: mmap %s failed",
                                       path_.c_str()));
    }
    map_ = static_cast<char*>(map);
    madvise(map_, size_, MADV_WILLNEED);
  }
  pos_ = 0;
  open_ = true;
  return Status::OK();
}

Status MmapRecordSource::Read(char* dst, size_t n, size_t* got) {
  *got = 0;
  if (!open_) return Status::IOError("source is not open");
  const uint64_t left = size_ - pos_;
  *got = static_cast<size_t>(std::min<uint64_t>(n, left));
  if (*got > 0) memcpy(dst, map_ + pos_, *got);
  pos_ += *got;
  return Status::OK();
}

Status MmapRecordSource::Close() {
  if (map_ != nullptr) {
    munmap(map_, size_);
    map_ = nullptr;
  }
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
  open_ = false;
  return Status::OK();
}

bool MmapRecordSource::TotalBytes(uint64_t* bytes) const {
  if (!open_) return false;
  *bytes = size_;
  return true;
}

const char* MmapRecordSource::ContiguousBytes(uint64_t* len) {
  *len = size_;
  return map_;
}

// --- GeneratedRecordSource -------------------------------------------------

GeneratedRecordSource::GeneratedRecordSource(RecordFormat format,
                                             uint64_t count,
                                             KeyDistribution dist,
                                             uint64_t seed)
    : format_(format),
      count_(count),
      dist_(dist),
      seed_(seed),
      total_(count * format.record_size) {}

Status GeneratedRecordSource::Open(Env* env, AsyncIO* aio) {
  (void)env;
  (void)aio;
  RecordGenerator gen(format_, seed_);
  data_.resize(static_cast<size_t>(total_));
  gen.Generate(dist_, count_, data_.data());
  pos_ = 0;
  return Status::OK();
}

Status GeneratedRecordSource::Read(char* dst, size_t n, size_t* got) {
  const uint64_t left = total_ - pos_;
  *got = static_cast<size_t>(std::min<uint64_t>(n, left));
  memcpy(dst, data_.data() + pos_, *got);
  pos_ += *got;
  return Status::OK();
}

Status GeneratedRecordSource::Close() {
  data_.clear();
  data_.shrink_to_fit();
  return Status::OK();
}

const char* GeneratedRecordSource::ContiguousBytes(uint64_t* len) {
  *len = total_;
  return total_ > 0 ? data_.data() : nullptr;
}

// --- StreamRecordSource ----------------------------------------------------

Status StreamRecordSource::Read(char* dst, size_t n, size_t* got) {
  *got = 0;
  std::unique_lock<std::mutex> lock(mu_);
  while (*got < n) {
    can_read_.wait(lock, [this] {
      return !chunks_.empty() || closed_ || !error_.ok();
    });
    if (!error_.ok()) return error_;
    if (chunks_.empty()) break;  // closed and drained: EOF
    const std::string& head = chunks_.front();
    const size_t take =
        std::min(n - *got, head.size() - head_consumed_);
    memcpy(dst + *got, head.data() + head_consumed_, take);
    head_consumed_ += take;
    *got += take;
    buffered_ -= take;
    if (head_consumed_ == head.size()) {
      chunks_.pop_front();
      head_consumed_ = 0;
    }
    can_append_.notify_all();
  }
  return Status::OK();
}

bool StreamRecordSource::Append(const char* data, size_t n) {
  std::unique_lock<std::mutex> lock(mu_);
  // No timeout: block until the consumer makes room or the stream dies.
  can_append_.wait(lock, [this, n] {
    return closed_ || !error_.ok() || buffered_ == 0 ||
           buffered_ + n <= capacity_;
  });
  if (closed_ || !error_.ok()) return false;
  if (n > 0) {
    chunks_.emplace_back(data, n);
    buffered_ += n;
    peak_buffered_ = std::max(peak_buffered_, buffered_);
  }
  can_read_.notify_all();
  return true;
}

void StreamRecordSource::CloseWrite() {
  std::lock_guard<std::mutex> lock(mu_);
  closed_ = true;
  can_read_.notify_all();
  can_append_.notify_all();
}

Status StreamRecordSource::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!closed_ && error_.ok()) {
    // The consumer walked away from a live stream (sort failed or was
    // cancelled mid-ingest). Poison it: the producer must see the death,
    // not block forever appending to a reader that is gone.
    error_ = Status::Aborted("stream abandoned by consumer");
    chunks_.clear();
    buffered_ = 0;
    head_consumed_ = 0;
  }
  closed_ = true;
  can_read_.notify_all();
  can_append_.notify_all();
  return Status::OK();
}

void StreamRecordSource::Fail(Status status) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!error_.ok()) return;  // first failure wins
  error_ = status.ok() ? Status::Aborted("stream failed") : std::move(status);
  // Drop the backlog: readers see the error immediately, not after a
  // drain of bytes that will never form a complete input.
  chunks_.clear();
  buffered_ = 0;
  head_consumed_ = 0;
  can_read_.notify_all();
  can_append_.notify_all();
}

size_t StreamRecordSource::buffered() const {
  std::lock_guard<std::mutex> lock(mu_);
  return buffered_;
}

size_t StreamRecordSource::peak_buffered() const {
  std::lock_guard<std::mutex> lock(mu_);
  return peak_buffered_;
}

}  // namespace alphasort
