#include "core/merge_files.h"

#include <memory>

#include "common/table.h"
#include "core/chores.h"
#include "core/pipeline_internal.h"
#include "io/async_io.h"
#include "io/stripe.h"
#include "sort/merge_partition.h"

namespace alphasort {

namespace {

using core_internal::ScratchRun;
using core_internal::SortContext;

// Opens and sizes input `path` and reads the key of every
// kSampleStride-th record with positioned reads, as the spill pass
// samples a scratch run while writing it.
Status SampleInput(SortContext* ctx, const std::string& path,
                   ScratchRun* run) {
  const RecordFormat& fmt = ctx->options->format;
  Result<std::unique_ptr<StripeFile>> file =
      StripeFile::Open(ctx->env, path, OpenMode::kReadOnly, ctx->aio);
  ALPHASORT_RETURN_IF_ERROR(file.status());
  Result<uint64_t> size = file.value()->Size();
  ALPHASORT_RETURN_IF_ERROR(size.status());
  if (size.value() % fmt.record_size != 0) {
    return Status::InvalidArgument(path + ": size not a multiple of records");
  }
  const uint64_t records = size.value() / fmt.record_size;
  run->path = path;
  run->bytes = size.value();
  run->sample_keys.resize((records + kSampleStride - 1) / kSampleStride *
                          fmt.key_size);
  for (uint64_t i = 0; i * kSampleStride < records; ++i) {
    size_t got = 0;
    ALPHASORT_RETURN_IF_ERROR(file.value()->Read(
        i * kSampleStride * fmt.record_size + fmt.key_offset, fmt.key_size,
        run->sample_keys.data() + i * fmt.key_size, &got));
    if (got != fmt.key_size) {
      return Status::Corruption(path + ": short read sampling keys");
    }
  }
  return file.value()->Close();
}

// Startup (open, size and sample every input; create the output), the
// merge, and close, each a phase of the clock.
Status SampleMergeClose(SortContext* ctx,
                        const std::vector<std::string>& inputs,
                        const std::string& output) {
  SortMetrics* metrics = ctx->metrics;
  ctx->EnterPhase(obs::SortPhase::kStartup);
  std::vector<ScratchRun> runs(inputs.size());
  for (size_t r = 0; r < inputs.size(); ++r) {
    ALPHASORT_RETURN_IF_ERROR(SampleInput(ctx, inputs[r], &runs[r]));
    ctx->input_bytes += runs[r].bytes;
  }
  ctx->num_records = ctx->input_bytes / ctx->options->format.record_size;
  Result<std::unique_ptr<StripeFile>> out =
      StripeFile::Open(ctx->env, output, OpenMode::kCreateReadWrite, ctx->aio);
  ALPHASORT_RETURN_IF_ERROR(out.status());
  metrics->bytes_in = ctx->input_bytes;
  metrics->num_records = ctx->num_records;
  metrics->num_runs = runs.size();
  metrics->passes = 1;

  ctx->EnterPhase(obs::SortPhase::kMerge);
  uint32_t crc = 0;
  size_t ranges = 0;
  Status status = core_internal::MergeRunFiles(
      ctx, runs,
      core_internal::MergeOutput{out.value().get(),
                                 core_internal::ProgressMerged, nullptr},
      &crc, &ranges);
  if (status.ok()) status = out.value()->Truncate(ctx->input_bytes);

  ctx->EnterPhase(obs::SortPhase::kClose);
  Status closed = out.value()->Close();
  if (status.ok()) status = closed;
  if (status.ok()) {
    metrics->bytes_out = ctx->input_bytes;
    metrics->merge_ranges = ranges;
    metrics->output_crc32c = crc;
  }
  return status;
}

}  // namespace

Status MergeSortedFiles(Env* env, const std::vector<std::string>& inputs,
                        const std::string& output,
                        const SortOptions& options, SortMetrics* metrics) {
  if (!options.format.Valid()) {
    return Status::InvalidArgument("invalid record format");
  }
  ALPHASORT_RETURN_IF_ERROR(
      ValidatePoolSizes(options.num_workers, options.io_threads));
  AsyncIO aio(options.io_threads);
  ChorePool pool(options.num_workers, options.use_affinity);
  return core_internal::RunInHarness(
      env, options, &aio, &pool, /*control=*/nullptr, metrics,
      /*job_id=*/0, /*progress=*/nullptr,
      [&](SortContext* ctx) { return SampleMergeClose(ctx, inputs, output); });
}

}  // namespace alphasort
