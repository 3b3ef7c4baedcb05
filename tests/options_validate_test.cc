// SortOptions::Validate() is the single gate every entry point
// (AlphaSort, VmsSort, HypercubeSort, SortWithSchema, SortService)
// passes options through before touching a file. These tests pin each
// invariant: a violation must come back InvalidArgument, and a default
// options struct with paths filled in must pass.

#include "core/options.h"

#include <gtest/gtest.h>

#include <memory>

#include "core/record_source.h"

namespace alphasort {
namespace {

SortOptions ValidOptions() {
  SortOptions opts;
  opts.input_path = "in.dat";
  opts.output_path = "out.dat";
  return opts;
}

void ExpectInvalid(const SortOptions& opts, const char* what) {
  Status s = opts.Validate();
  EXPECT_TRUE(s.IsInvalidArgument()) << what << ": " << s.ToString();
}

TEST(SortOptionsValidateTest, DefaultsWithPathsAreValid) {
  EXPECT_TRUE(ValidOptions().Validate().ok());
}

TEST(SortOptionsValidateTest, PathsRequiredAndDistinct) {
  SortOptions opts = ValidOptions();
  opts.input_path.clear();
  ExpectInvalid(opts, "empty input");

  opts = ValidOptions();
  opts.output_path.clear();
  ExpectInvalid(opts, "empty output");

  opts = ValidOptions();
  opts.output_path = opts.input_path;
  ExpectInvalid(opts, "input == output");
}

TEST(SortOptionsValidateTest, FormatMustBeValid) {
  SortOptions opts = ValidOptions();
  opts.format.key_size = 0;
  ExpectInvalid(opts, "zero key size");
}

TEST(SortOptionsValidateTest, RunSizeMustBePositive) {
  SortOptions opts = ValidOptions();
  opts.run_size_records = 0;
  ExpectInvalid(opts, "run_size_records 0");
}

TEST(SortOptionsValidateTest, IoGeometry) {
  SortOptions opts = ValidOptions();
  opts.io_threads = 0;
  ExpectInvalid(opts, "io_threads 0");

  opts = ValidOptions();
  opts.io_depth = 0;
  ExpectInvalid(opts, "io_depth 0");

  opts = ValidOptions();
  opts.io_chunk_bytes = 0;
  ExpectInvalid(opts, "io_chunk_bytes 0");

  opts = ValidOptions();
  opts.write_buffers = 0;
  ExpectInvalid(opts, "write_buffers 0");
}

TEST(SortOptionsValidateTest, MergeFaninNeedsTwoWays) {
  SortOptions opts = ValidOptions();
  opts.max_merge_fanin = 1;
  ExpectInvalid(opts, "fan-in 1");
}

TEST(SortOptionsValidateTest, ScratchNamespace) {
  SortOptions opts = ValidOptions();
  opts.scratch_path.clear();
  ExpectInvalid(opts, "empty scratch");

  opts = ValidOptions();
  opts.scratch_stripe_width = SortOptions::kMaxScratchStripeWidth + 1;
  ExpectInvalid(opts, "stripe width over max");
}

TEST(SortOptionsValidateTest, BudgetMustHoldMinimumChunks) {
  SortOptions opts = ValidOptions();
  opts.io_chunk_bytes = 1 << 20;
  opts.memory_budget =
      SortOptions::kMinMemoryBudgetChunks * opts.io_chunk_bytes;
  EXPECT_TRUE(opts.Validate().ok());
  opts.memory_budget -= 1;
  ExpectInvalid(opts, "budget below 4 chunks");
}

TEST(SortOptionsValidateTest, WorkersPassesDeadlineRetry) {
  SortOptions opts = ValidOptions();
  opts.num_workers = -1;
  ExpectInvalid(opts, "negative workers");

  opts = ValidOptions();
  opts.force_passes = 3;
  ExpectInvalid(opts, "force_passes 3");

  opts = ValidOptions();
  opts.force_passes = -1;
  ExpectInvalid(opts, "force_passes -1");

  opts = ValidOptions();
  opts.time_limit_s = -0.5;
  ExpectInvalid(opts, "negative deadline");

  opts = ValidOptions();
  opts.retry_policy.max_attempts = 0;
  ExpectInvalid(opts, "zero retry attempts");
}

TEST(SortOptionsValidateTest, SourceAndInputPathAreExactlyOne) {
  // No input at all: neither the sugar nor a factory.
  SortOptions opts = ValidOptions();
  opts.input_path.clear();
  ExpectInvalid(opts, "no input_path and no source");

  // A source factory alone is a complete input spec.
  opts.source = [] {
    return std::make_shared<MemoryRecordSource>(std::string(100, 'x'));
  };
  EXPECT_TRUE(opts.Validate().ok());

  // Both set is ambiguous and rejected.
  opts.input_path = "in.dat";
  ExpectInvalid(opts, "both input_path and source");
}

}  // namespace
}  // namespace alphasort
