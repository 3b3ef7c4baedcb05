#ifndef ALPHASORT_CORE_RECORD_IO_H_
#define ALPHASORT_CORE_RECORD_IO_H_

#include <memory>
#include <string>

#include "core/run_reader.h"
#include "io/async_io.h"
#include "io/buffered_writer.h"
#include "io/stripe.h"
#include "record/record.h"

namespace alphasort {

// Public record-stream IO over plain or striped files: buffered,
// read-ahead sequential record access for applications built on the
// library (scans, loaders, verifiers). Wraps the same machinery the sort
// passes use.
class RecordFileReader {
 public:
  // Opens `path` (".str" = striped) for sequential record reads.
  static Result<std::unique_ptr<RecordFileReader>> Open(
      Env* env, const std::string& path, const RecordFormat& format,
      size_t buffer_records = 8192);

  // Current record, or nullptr at end of file. The pointer stays valid
  // until the next-next buffer refill; copy out what you keep.
  const char* Current() const { return reader_->Current(); }

  Status Advance() { return reader_->Advance(); }

  // Copies up to `max_records` into `out`; returns the count delivered.
  Result<uint64_t> ReadBatch(char* out, uint64_t max_records);

  uint64_t num_records() const { return num_records_; }

 private:
  RecordFileReader(std::unique_ptr<StripeFile> file, RecordFormat format,
                   uint64_t num_records, size_t buffer_records);

  std::unique_ptr<StripeFile> file_;
  RecordFormat format_;
  uint64_t num_records_;
  AsyncIO aio_;
  std::unique_ptr<RunReader> reader_;
};

// Append-only record writer over the output ring (io/buffered_writer.h).
class RecordFileWriter {
 public:
  // Creates (truncates) `path`; a missing ".str" definition is an error —
  // create one with WriteStripeDefinition/MakeUniformStripe first.
  static Result<std::unique_ptr<RecordFileWriter>> Create(
      Env* env, const std::string& path, const RecordFormat& format,
      size_t buffer_bytes = 1 << 20);

  // Appends `n` records from `records`.
  Status Append(const char* records, uint64_t n);

  // Flushes and closes. Must be called; the destructor only prevents
  // dangling IO.
  Status Finish();

  uint64_t records_written() const { return records_written_; }

 private:
  RecordFileWriter(std::unique_ptr<StripeFile> file, RecordFormat format,
                   size_t buffer_bytes);

  std::unique_ptr<StripeFile> file_;
  RecordFormat format_;
  AsyncIO aio_;
  std::unique_ptr<BufferedWriter> writer_;
  uint64_t records_written_ = 0;
  bool finished_ = false;
};

}  // namespace alphasort

#endif  // ALPHASORT_CORE_RECORD_IO_H_
