#include "core/typed_sort.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "core/record_io.h"
#include "core/sorter.h"
#include "io/stripe.h"

namespace alphasort {

Status SortWithSchema(Env* env, const SortOptions& options,
                      const KeySchema& schema, SortMetrics* metrics) {
  SortMetrics local_metrics;
  if (metrics == nullptr) metrics = &local_metrics;
  ALPHASORT_RETURN_IF_ERROR(options.Validate());
  const RecordFormat& fmt = options.format;
  ALPHASORT_RETURN_IF_ERROR(schema.Validate(fmt));

  const size_t key_size = schema.ConditionedSize();
  const RecordFormat wide_fmt(key_size + fmt.record_size, key_size, 0);
  const std::string cond_path = options.scratch_path + ".cond";
  const std::string sorted_path = options.scratch_path + ".sorted";

  // Pass 1: stream-rewrite records with the conditioned key prepended.
  {
    Result<std::unique_ptr<RecordFileReader>> reader =
        RecordFileReader::Open(env, options.input_path, fmt);
    ALPHASORT_RETURN_IF_ERROR(reader.status());
    Result<std::unique_ptr<RecordFileWriter>> writer =
        RecordFileWriter::Create(env, cond_path, wide_fmt);
    ALPHASORT_RETURN_IF_ERROR(writer.status());
    std::vector<char> wide(wide_fmt.record_size);
    while (const char* rec = reader.value()->Current()) {
      schema.Condition(rec, wide.data());
      memcpy(wide.data() + key_size, rec, fmt.record_size);
      ALPHASORT_RETURN_IF_ERROR(writer.value()->Append(wide.data(), 1));
      ALPHASORT_RETURN_IF_ERROR(reader.value()->Advance());
    }
    ALPHASORT_RETURN_IF_ERROR(writer.value()->Finish());
  }

  // Pass 2: standard AlphaSort over the widened records.
  SortOptions wide_opts = options;
  wide_opts.format = wide_fmt;
  wide_opts.input_path = cond_path;
  wide_opts.output_path = sorted_path;
  wide_opts.scratch_path = options.scratch_path + ".typed";
  Status sort_status =
      core_internal::RunTransientJob(env, wide_opts, nullptr, metrics);
  env->DeleteFile(cond_path);
  if (!sort_status.ok()) {
    env->DeleteFile(sorted_path);
    return sort_status;
  }

  // Pass 3: strip the added key field while streaming to the output.
  Status strip_status = [&]() -> Status {
    Result<std::unique_ptr<RecordFileReader>> reader =
        RecordFileReader::Open(env, sorted_path, wide_fmt);
    ALPHASORT_RETURN_IF_ERROR(reader.status());
    Result<std::unique_ptr<RecordFileWriter>> writer =
        RecordFileWriter::Create(env, options.output_path, fmt);
    ALPHASORT_RETURN_IF_ERROR(writer.status());
    while (const char* rec = reader.value()->Current()) {
      ALPHASORT_RETURN_IF_ERROR(
          writer.value()->Append(rec + key_size, 1));
      ALPHASORT_RETURN_IF_ERROR(reader.value()->Advance());
    }
    return writer.value()->Finish();
  }();
  env->DeleteFile(sorted_path);
  return strip_status;
}

}  // namespace alphasort
