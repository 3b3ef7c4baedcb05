#include "core/options.h"

#include "common/table.h"

namespace alphasort {

Status ValidatePoolSizes(int num_workers, int io_threads) {
  if (io_threads <= 0) {
    return Status::InvalidArgument("io_threads must be >= 1");
  }
  if (num_workers < 0) {
    return Status::InvalidArgument("num_workers must be >= 0");
  }
  return Status::OK();
}

Status SortOptions::Validate() const {
  if (input_path.empty() && !source) {
    return Status::InvalidArgument(
        "an input is required: set input_path or source");
  }
  if (!input_path.empty() && source) {
    return Status::InvalidArgument(
        "input_path and source are mutually exclusive — input_path is "
        "sugar for a file source");
  }
  if (output_path.empty()) {
    return Status::InvalidArgument("output_path is required");
  }
  if (!input_path.empty() && input_path == output_path) {
    return Status::InvalidArgument("input and output must differ");
  }
  if (!format.Valid()) {
    return Status::InvalidArgument("invalid record format");
  }
  if (run_size_records == 0) {
    return Status::InvalidArgument("run_size_records must be positive");
  }
  ALPHASORT_RETURN_IF_ERROR(ValidatePoolSizes(num_workers, io_threads));
  if (io_depth < 1) {
    return Status::InvalidArgument("io_depth must be >= 1");
  }
  if (io_chunk_bytes == 0) {
    return Status::InvalidArgument("io_chunk_bytes must be positive");
  }
  if (write_buffers < 1) {
    return Status::InvalidArgument("write_buffers must be >= 1");
  }
  if (max_merge_fanin < 2) {
    return Status::InvalidArgument(
        "max_merge_fanin must be >= 2 (a 1-way merge cannot make progress)");
  }
  if (scratch_path.empty()) {
    return Status::InvalidArgument("scratch_path is required");
  }
  if (scratch_stripe_width > kMaxScratchStripeWidth) {
    return Status::InvalidArgument(StrFormat(
        "scratch_stripe_width %zu exceeds the sane maximum %zu",
        scratch_stripe_width, kMaxScratchStripeWidth));
  }
  if (memory_budget < kMinMemoryBudgetChunks * io_chunk_bytes) {
    return Status::InvalidArgument(StrFormat(
        "memory_budget %llu is below %llu io chunks of %zu bytes — the "
        "two-pass planner needs room for at least a few IO buffers",
        static_cast<unsigned long long>(memory_budget),
        static_cast<unsigned long long>(kMinMemoryBudgetChunks),
        io_chunk_bytes));
  }
  if (force_passes < 0 || force_passes > 2) {
    return Status::InvalidArgument("force_passes must be 0, 1 or 2");
  }
  if (time_limit_s < 0) {
    return Status::InvalidArgument("time_limit_s must be >= 0");
  }
  if (retry_policy.max_attempts < 1) {
    return Status::InvalidArgument("retry_policy.max_attempts must be >= 1");
  }
  return Status::OK();
}

}  // namespace alphasort
