#include <algorithm>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/checksum.h"
#include "common/table.h"
#include "core/pipeline_internal.h"
#include "core/run_reader.h"
#include "obs/perf_counters.h"
#include "sort/merge_partition.h"
#include "sort/merger.h"
#include "sort/tournament_tree.h"

namespace alphasort {
namespace core_internal {

std::string ScratchRunPath(const SortOptions& opts, int level,
                           size_t index) {
  return StrFormat("%s.l%d_run%04zu%s", opts.scratch_path.c_str(), level,
                   index, opts.scratch_stripe_width > 0 ? ".str" : "");
}

Result<std::unique_ptr<File>> OpenScratchRun(SortContext* ctx,
                                             const std::string& path,
                                             OpenMode mode) {
  const SortOptions& opts = *ctx->options;
  if (mode == OpenMode::kCreateReadWrite) {
    // Track before creating anything: even a half-created stripe (the
    // definition landed, a member open failed) must be swept on exit.
    ctx->scratch_created.push_back(path);
  }
  if (opts.scratch_stripe_width > 0 &&
      mode == OpenMode::kCreateReadWrite) {
    // Lay the run across dedicated scratch members (§6's scratch disks).
    const std::string base = path.substr(0, path.size() - 4);  // drop .str
    ALPHASORT_RETURN_IF_ERROR(WriteStripeDefinition(
        ctx->env, path,
        MakeUniformStripe(base, opts.scratch_stripe_width,
                          opts.io_chunk_bytes)));
  }
  Result<std::unique_ptr<StripeFile>> file =
      StripeFile::Open(ctx->env, path, mode, ctx->aio);
  ALPHASORT_RETURN_IF_ERROR(file.status());
  return {std::unique_ptr<File>(std::move(file).value())};
}

void RemoveScratchRun(SortContext* ctx, const std::string& path) {
  StripeFile::Remove(ctx->env, path);
}

void ScratchSweeper::Sweep() {
  for (const auto& path : ctx_->scratch_created) {
    if (ctx_->env->FileExists(path)) RemoveScratchRun(ctx_, path);
  }
  // Backstop for fragments the per-run removal cannot reach — e.g. stripe
  // members whose definition file was already deleted, or writes that
  // landed after a failed removal. The ".l" suffix keeps the sweep inside
  // the "<scratch>.l<level>_run<NNNN>" namespace this sort owns.
  std::vector<std::string> stray;
  if (ctx_->env->ListFiles(ctx_->options->scratch_path + ".l", &stray)
          .ok()) {
    for (const auto& path : stray) ctx_->env->DeleteFile(path);
  }
}

namespace {

// The first and last key one range of a merge emitted, kept when the
// merge checks key order.
struct RangeEnds {
  std::string first;
  std::string last;
};

// One key range of a scratch-run merge: a loser tree over the range's
// slice of every run (empty slices kept, so stream numbers — and the
// equal-key tie-break — match one global tournament), records copied
// straight into the batch. Once the range drains, each slice's CRC-32C
// lands in `slice_crc`. With `ends` set, it also checks that the keys it
// emits never decrease and records the range's first and last key there.
class ScratchRangeProducer : public RangeProducer {
 public:
  ScratchRangeProducer(SortContext* ctx, size_t k, SortStats* stats,
                       std::vector<uint32_t>* slice_crc, RangeEnds* ends)
      : ctx_(ctx),
        fmt_(ctx->options->format),
        tree_(k == 0 ? 1 : k, CountingEntryLess<>{fmt_, stats}),
        slice_crc_(slice_crc),
        ends_(ends) {}

  // Adds the next run's slice, the bytes [begin, end) of `file`, read
  // through two buffers of `buffer_records` records.
  Status AddSlice(File* file, uint64_t begin, uint64_t end,
                  size_t buffer_records) {
    const size_t s = readers_.size();
    readers_.push_back(std::make_unique<RunReader>(
        file, end, fmt_, buffer_records, ctx_->aio, begin));
    ALPHASORT_RETURN_IF_ERROR(readers_[s]->Init());
    if (const char* rec = readers_[s]->Current()) {
      tree_.SetLeaf(s, MakePrefixEntry(fmt_, rec));
    }
    return Status::OK();
  }

  void Start() { tree_.Rebuild(); }

  Status Fill(char* out, size_t n) override {
    obs::Stage stage(&ctx_->perf, "merge.batch", "cpu");
    const size_t rec_size = fmt_.record_size;
    for (size_t i = 0; i < n; ++i) {
      // Copy before advancing: the reader's buffer may recycle.
      const size_t s = tree_.WinnerStream();
      memcpy(out + i * rec_size, tree_.WinnerItem().record, rec_size);
      ALPHASORT_RETURN_IF_ERROR(readers_[s]->Advance());
      if (const char* rec = readers_[s]->Current()) {
        tree_.ReplaceWinner(MakePrefixEntry(fmt_, rec));
      } else {
        tree_.ExhaustWinner();
      }
    }
    if (ends_ != nullptr) ALPHASORT_RETURN_IF_ERROR(CheckOrder(out, n));
    if (tree_.Empty()) {
      for (size_t s = 0; s < readers_.size(); ++s) {
        (*slice_crc_)[s] = readers_[s]->crc32c();
      }
    }
    return Status::OK();
  }

 private:
  // A tournament over sorted slices emits nondecreasing keys, and an
  // order violation inside a slice shows as a decrease at the very next
  // emission, so checking the `n` records just written to `out` against
  // each other and the previous batch's last key finds every one.
  Status CheckOrder(const char* out, size_t n) {
    const size_t rec_size = fmt_.record_size;
    const size_t key_size = fmt_.key_size;
    const char* prev = ends_->last.empty() ? nullptr : ends_->last.data();
    for (size_t i = 0; i < n; ++i) {
      const char* key = fmt_.KeyPtr(out + i * rec_size);
      if (prev != nullptr && memcmp(prev, key, key_size) > 0) {
        return Status::Corruption(
            "input is not sorted (a key decreases inside one key range)");
      }
      prev = key;
    }
    if (ends_->first.empty()) ends_->first.assign(fmt_.KeyPtr(out), key_size);
    ends_->last.assign(prev, key_size);
    return Status::OK();
  }

  SortContext* ctx_;
  const RecordFormat fmt_;
  std::vector<std::unique_ptr<RunReader>> readers_;
  LoserTree<PrefixEntry, CountingEntryLess<>> tree_;
  std::vector<uint32_t>* slice_crc_;
  RangeEnds* ends_;
};

}  // namespace

Status MergeRunFiles(SortContext* ctx, const std::vector<ScratchRun>& runs,
                     const MergeOutput& out, uint32_t* crc,
                     size_t* num_ranges) {
  const SortOptions& opts = *ctx->options;
  const RecordFormat& fmt = opts.format;
  const size_t rec = fmt.record_size;
  const size_t k = runs.size();

  // Every range reads every run: each run file is opened once, shared.
  std::vector<std::unique_ptr<File>> files(k);
  std::vector<SampledRun> sampled(k);
  for (size_t s = 0; s < k; ++s) {
    Result<std::unique_ptr<File>> f =
        OpenScratchRun(ctx, runs[s].path, OpenMode::kReadOnly);
    ALPHASORT_RETURN_IF_ERROR(f.status());
    files[s] = std::move(f).value();
    sampled[s] = SampledRun{runs[s].bytes / rec, Slice(runs[s].sample_keys)};
  }

  RunSlices slices;
  {
    obs::Stage stage(&ctx->perf, "merge.partition", "io");
    ALPHASORT_RETURN_IF_ERROR(PartitionSampledRuns(
        fmt, sampled, MergeRanges(ctx),
        [&](size_t s, uint64_t first, uint64_t n, char* dst) {
          size_t got = 0;
          ALPHASORT_RETURN_IF_ERROR(ctx->aio->Wait(
              ctx->aio->SubmitRead(files[s].get(), first * rec, n * rec, dst),
              &got));
          if (got != n * rec) {
            return Status::Corruption("short read from run file");
          }
          return Status::OK();
        },
        &slices));
  }
  const size_t ranges = slices.NumRanges();

  // Each slice gets two read-ahead buffers. Only num_workers ranges are
  // filled at once, so sizing them as if every range were live keeps the
  // merge within half the memory budget at two ranges per worker (§6:
  // the two-pass sort's whole point is using less memory).
  const uint64_t per_slice_budget =
      k == 0 ? opts.io_chunk_bytes
             : std::max<uint64_t>(rec, opts.memory_budget / (2 * k * ranges));
  const size_t buffer_records = static_cast<size_t>(std::max<uint64_t>(
      1, std::min<uint64_t>(opts.io_chunk_bytes, per_slice_budget) / rec));

  // Runs the sort wrote itself carry their CRC; runs without one are
  // outside input, whose order is checked as it merges.
  const bool check_order =
      std::any_of(runs.begin(), runs.end(),
                  [](const ScratchRun& run) { return !run.crc32c; });
  std::vector<RangeEnds> ends(check_order ? ranges : 0);
  std::vector<std::vector<uint32_t>> slice_crc(ranges,
                                               std::vector<uint32_t>(k, 0));
  ALPHASORT_RETURN_IF_ERROR(PartitionedMerge(
      ctx, slices.RangeRecords(),
      [&](size_t r, SortStats* stats)
          -> Result<std::unique_ptr<RangeProducer>> {
        auto producer = std::make_unique<ScratchRangeProducer>(
            ctx, k, stats, &slice_crc[r], check_order ? &ends[r] : nullptr);
        for (size_t s = 0; s < k; ++s) {
          ALPHASORT_RETURN_IF_ERROR(producer->AddSlice(
              files[s].get(), slices.bounds[r][s] * rec,
              slices.bounds[r + 1][s] * rec, buffer_records));
        }
        producer->Start();
        return std::unique_ptr<RangeProducer>(std::move(producer));
      },
      out, crc));
  if (num_ranges != nullptr) *num_ranges = ranges;

  // Each range's keys rose; the ranges must rise too, from the last key
  // of each non-empty range to the first key of the next. Slice bounds
  // are exact upper bounds, which never fall on a decrease, so an
  // unsorted input shows inside a range first; this check keeps the
  // guarantee from depending on how the slices were cut.
  const std::string* prev_last = nullptr;
  for (const RangeEnds& range : ends) {
    if (range.first.empty()) continue;
    if (prev_last != nullptr &&
        memcmp(prev_last->data(), range.first.data(), fmt.key_size) > 0) {
      return Status::Corruption(
          "input is not sorted (a key decreases across key ranges)");
    }
    prev_last = &range.last;
  }

  // Every slice has been read whole; compare the CRC of what the merge
  // actually consumed against what the spill pass wrote. A mismatch means
  // the scratch bytes changed between write and read — surface it as
  // corruption, never as silently wrong output.
  if (opts.verify_run_checksums) {
    for (size_t s = 0; s < k; ++s) {
      if (!runs[s].crc32c) continue;
      uint32_t read_crc = 0;
      for (size_t r = 0; r < ranges; ++r) {
        read_crc = Crc32cCombine(read_crc, slice_crc[r][s],
                                 slices.SliceRecords(r, s) * rec);
      }
      if (read_crc != *runs[s].crc32c) {
        return Status::Corruption(StrFormat(
            "scratch run %s corrupted: crc32c %08x on read, %08x on write",
            runs[s].path.c_str(), read_crc, *runs[s].crc32c));
      }
      ++ctx->metrics->runs_checksum_verified;
    }
  }
  return Status::OK();
}

Status WriteScratchRun(SortContext* ctx, int level, uint64_t records,
                       const ScratchMerge& merge,
                       std::vector<ScratchRun>* runs) {
  const SortOptions& opts = *ctx->options;
  const std::string path = ScratchRunPath(opts, level, runs->size());
  Result<std::unique_ptr<File>> file =
      OpenScratchRun(ctx, path, OpenMode::kCreateReadWrite);
  ALPHASORT_RETURN_IF_ERROR(file.status());
  ScratchRun run{path, records * opts.format.record_size, std::nullopt, {}};
  run.sample_keys.resize(
      (records + kSampleStride - 1) / kSampleStride * opts.format.key_size);
  uint32_t crc = 0;
  Status s = merge(MergeOutput{file.value().get(),
                               level == 0 ? ProgressSpilled : ProgressMerged,
                               &run.sample_keys},
                   &crc);
  run.crc32c = crc;
  Status close_status = file.value()->Close();
  ALPHASORT_RETURN_IF_ERROR(s);
  ALPHASORT_RETURN_IF_ERROR(close_status);
  ctx->metrics->scratch_bytes_written += run.bytes;
  runs->push_back(std::move(run));
  return Status::OK();
}

Status MergeScratchRuns(SortContext* ctx, std::vector<ScratchRun> runs) {
  const SortOptions& opts = *ctx->options;
  const size_t fanin = std::max<size_t>(2, opts.max_merge_fanin);
  const size_t rec = opts.format.record_size;

  auto cleanup = [ctx](const std::vector<ScratchRun>& spent) {
    for (const auto& run : spent) RemoveScratchRun(ctx, run.path);
  };

  // Cascade: while too many runs remain, merge groups of `fanin` into
  // next-level scratch runs (classic multi-level external merge). Spent
  // runs are deleted as soon as they are merged; on error the caller's
  // ScratchSweeper removes whatever is left.
  for (int level = 1; runs.size() > fanin; ++level) {
    std::vector<ScratchRun> next;
    for (size_t start = 0; start < runs.size(); start += fanin) {
      const std::vector<ScratchRun> group(
          runs.begin() + start,
          runs.begin() + std::min(runs.size(), start + fanin));
      uint64_t records = 0;
      for (const auto& run : group) records += run.bytes / rec;
      // Cascade levels count as merged bytes, so merged bytes can exceed
      // the plan on deep cascades; the tracker clamps the fraction below
      // 1.0.
      ALPHASORT_RETURN_IF_ERROR(WriteScratchRun(
          ctx, level, records,
          [&](const MergeOutput& out, uint32_t* crc) {
            return MergeRunFiles(ctx, group, out, crc);
          },
          &next));
      cleanup(group);
    }
    runs = std::move(next);
  }

  uint32_t crc = 0;
  size_t ranges = 0;
  Status s = MergeRunFiles(ctx, runs,
                           MergeOutput{ctx->output, ProgressMerged, nullptr},
                           &crc, &ranges);
  cleanup(runs);
  ALPHASORT_RETURN_IF_ERROR(s);
  ctx->metrics->merge_ranges = ranges;
  ctx->metrics->output_crc32c = crc;
  return ctx->output->Truncate(ctx->input_bytes);
}

}  // namespace core_internal
}  // namespace alphasort
