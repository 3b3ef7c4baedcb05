#include "ram_env.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <vector>

namespace alphasort {
namespace perfbench {
namespace {

constexpr size_t kBlockBytes = size_t(1) << 20;

// Free blocks, shared by every file of one env. A file that outlives its
// name (deleted while open) keeps the pool alive until it returns its
// blocks.
class BlockPool {
 public:
  ~BlockPool() {
    for (char* b : free_) std::free(b);
  }

  // nullptr when memory is exhausted.
  char* Take() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!free_.empty()) {
        char* b = free_.back();
        free_.pop_back();
        return b;
      }
    }
    return static_cast<char*>(std::malloc(kBlockBytes));
  }

  void Give(char* b) {
    std::lock_guard<std::mutex> lock(mu_);
    free_.push_back(b);
  }

 private:
  std::mutex mu_;
  std::vector<char*> free_;
};

// Bytes [0, filled) of a block hold data; the rest of it, up to the file
// size, reads as zeros. A missing block (data == nullptr) is all zeros.
// So a recycled block never needs clearing: its stale bytes lie beyond
// `filled`, and a write that starts past `filled` zeroes the gap first.
struct Block {
  char* data = nullptr;
  size_t filled = 0;
};

struct RamFileData {
  explicit RamFileData(std::shared_ptr<BlockPool> p) : pool(std::move(p)) {}
  ~RamFileData() { TruncateLocked(0); }

  // Needs `mu` held (or no other reference).
  void TruncateLocked(uint64_t n) {
    const size_t keep = size_t((n + kBlockBytes - 1) / kBlockBytes);
    for (size_t i = keep; i < blocks.size(); ++i) {
      if (blocks[i].data != nullptr) pool->Give(blocks[i].data);
    }
    if (blocks.size() > keep) blocks.resize(keep);
    if (keep > 0 && keep <= blocks.size() && n % kBlockBytes != 0) {
      Block& b = blocks[keep - 1];
      b.filled = std::min(b.filled, size_t(n % kBlockBytes));
    }
    size = n;
  }

  std::mutex mu;
  std::shared_ptr<BlockPool> pool;
  std::vector<Block> blocks;
  uint64_t size = 0;
};

class RamFile : public File {
 public:
  explicit RamFile(std::shared_ptr<RamFileData> data)
      : data_(std::move(data)) {}

  Status Read(uint64_t offset, size_t n, char* scratch,
              size_t* bytes_read) override {
    if (closed_) return Status::IOError("read on closed file");
    RamFileData& f = *data_;
    std::lock_guard<std::mutex> lock(f.mu);
    if (offset >= f.size) {
      *bytes_read = 0;
      return Status::OK();
    }
    const uint64_t end = std::min<uint64_t>(f.size, offset + n);
    for (uint64_t pos = offset; pos < end;) {
      const size_t idx = size_t(pos / kBlockBytes);
      const size_t in = size_t(pos % kBlockBytes);
      const size_t len = size_t(std::min<uint64_t>(kBlockBytes - in, end - pos));
      char* dst = scratch + (pos - offset);
      size_t have = 0;
      if (idx < f.blocks.size() && f.blocks[idx].data != nullptr &&
          f.blocks[idx].filled > in) {
        have = std::min(len, f.blocks[idx].filled - in);
        memcpy(dst, f.blocks[idx].data + in, have);
      }
      if (have < len) memset(dst + have, 0, len - have);
      pos += len;
    }
    *bytes_read = size_t(end - offset);
    return Status::OK();
  }

  Status Write(uint64_t offset, const char* data, size_t n) override {
    if (closed_) return Status::IOError("write on closed file");
    RamFileData& f = *data_;
    std::lock_guard<std::mutex> lock(f.mu);
    const uint64_t end = offset + n;
    const size_t last = size_t((end + kBlockBytes - 1) / kBlockBytes);
    if (f.blocks.size() < last) f.blocks.resize(last);
    for (uint64_t pos = offset; pos < end;) {
      Block& b = f.blocks[size_t(pos / kBlockBytes)];
      const size_t in = size_t(pos % kBlockBytes);
      const size_t len = size_t(std::min<uint64_t>(kBlockBytes - in, end - pos));
      if (b.data == nullptr) {
        b.data = f.pool->Take();
        if (b.data == nullptr) return Status::IOError("out of memory");
        b.filled = 0;
      }
      if (in > b.filled) memset(b.data + b.filled, 0, in - b.filled);
      memcpy(b.data + in, data + (pos - offset), len);
      b.filled = std::max(b.filled, in + len);
      pos += len;
    }
    f.size = std::max(f.size, end);
    return Status::OK();
  }

  Result<uint64_t> Size() override {
    if (closed_) return Status::IOError("size on closed file");
    std::lock_guard<std::mutex> lock(data_->mu);
    return data_->size;
  }

  Status Truncate(uint64_t size) override {
    if (closed_) return Status::IOError("truncate on closed file");
    std::lock_guard<std::mutex> lock(data_->mu);
    data_->TruncateLocked(size);
    return Status::OK();
  }

  Status Sync() override {
    if (closed_) return Status::IOError("sync on closed file");
    return Status::OK();
  }

  Status Close() override {
    closed_ = true;
    return Status::OK();
  }

 private:
  std::shared_ptr<RamFileData> data_;
  std::atomic<bool> closed_{false};
};

class RamEnv : public Env {
 public:
  Result<std::unique_ptr<File>> OpenFile(const std::string& path,
                                         OpenMode mode) override {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = files_.find(path);
    if (mode == OpenMode::kCreateReadWrite) {
      if (it == files_.end()) {
        it = files_.emplace(path, std::make_shared<RamFileData>(pool_)).first;
      } else {
        std::lock_guard<std::mutex> file_lock(it->second->mu);
        it->second->TruncateLocked(0);
      }
    } else if (it == files_.end()) {
      return Status::NotFound("no such file: " + path);
    }
    return {std::unique_ptr<File>(new RamFile(it->second))};
  }

  Status DeleteFile(const std::string& path) override {
    std::lock_guard<std::mutex> lock(mu_);
    if (files_.erase(path) == 0) {
      return Status::NotFound("no such file: " + path);
    }
    return Status::OK();
  }

  bool FileExists(const std::string& path) override {
    std::lock_guard<std::mutex> lock(mu_);
    return files_.count(path) > 0;
  }

  Result<uint64_t> GetFileSize(const std::string& path) override {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = files_.find(path);
    if (it == files_.end()) return Status::NotFound("no such file: " + path);
    std::lock_guard<std::mutex> file_lock(it->second->mu);
    return it->second->size;
  }

  Status ListFiles(const std::string& prefix,
                   std::vector<std::string>* out) override {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = files_.lower_bound(prefix); it != files_.end(); ++it) {
      if (it->first.compare(0, prefix.size(), prefix) != 0) break;
      out->push_back(it->first);
    }
    return Status::OK();
  }

 private:
  std::mutex mu_;
  // Declared before files_ so it is destroyed after them.
  std::shared_ptr<BlockPool> pool_ = std::make_shared<BlockPool>();
  std::map<std::string, std::shared_ptr<RamFileData>> files_;
};

}  // namespace

std::unique_ptr<Env> NewRamEnv() { return std::make_unique<RamEnv>(); }

}  // namespace perfbench
}  // namespace alphasort
