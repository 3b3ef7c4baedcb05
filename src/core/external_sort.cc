#include <algorithm>
#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "common/table.h"
#include "core/pipeline_internal.h"
#include "core/run_reader.h"
#include "obs/perf_counters.h"
#include "obs/trace.h"
#include "sort/quicksort.h"
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

// Streams `runs` through a tournament of RunReaders into `out`, verifying
// each run's CRC-32C as it drains. On return the ring is finished, or
// aborted on error.
Status MergeScratchRunsToWriter(SortContext* ctx,
                                const std::vector<ScratchRun>& runs,
                                BufferedWriter* out) {
  const SortOptions& opts = *ctx->options;
  const RecordFormat& fmt = opts.format;
  const size_t k = runs.size();

  std::vector<std::unique_ptr<File>> files(k);
  std::vector<std::unique_ptr<RunReader>> readers(k);
  // Each run gets two read-ahead buffers; at wide fan-ins the buffers
  // must shrink so the merge stays within the memory budget (§6: the
  // two-pass sort's whole point is using less memory).
  const uint64_t per_run_budget =
      k == 0 ? opts.io_chunk_bytes
             : std::max<uint64_t>(fmt.record_size,
                                  opts.memory_budget / (2 * k));
  const size_t buffer_records = static_cast<size_t>(std::max<uint64_t>(
      1, std::min<uint64_t>(opts.io_chunk_bytes, per_run_budget) /
             fmt.record_size));
  for (size_t r = 0; r < k; ++r) {
    Result<std::unique_ptr<File>> f =
        OpenScratchRun(ctx, runs[r].path, OpenMode::kReadOnly);
    ALPHASORT_RETURN_IF_ERROR(f.status());
    files[r] = std::move(f).value();
    readers[r] = std::make_unique<RunReader>(files[r].get(), runs[r].bytes,
                                             fmt, buffer_records, ctx->aio);
    ALPHASORT_RETURN_IF_ERROR(readers[r]->Init());
  }

  struct Item {
    uint64_t prefix;
    const char* record;
  };
  struct ItemLess {
    RecordFormat format;
    SortStats* stats;
    bool operator()(const Item& a, const Item& b) const {
      ++stats->compares;
      if (a.prefix != b.prefix) return a.prefix < b.prefix;
      if (format.key_size <= 8) return false;
      ++stats->tie_breaks;
      return format.CompareKeys(a.record, b.record) < 0;
    }
  };
  LoserTree<Item, ItemLess> tree(
      k == 0 ? 1 : k, ItemLess{fmt, &ctx->metrics->merge_stats});
  for (size_t r = 0; r < k; ++r) {
    if (const char* rec = readers[r]->Current()) {
      tree.SetLeaf(r, Item{fmt.KeyPrefix(rec), rec});
    }
  }
  tree.Rebuild();

  // Copy winners straight into the ring's buffers. Records are copied
  // immediately (their reader buffer may recycle on the next refill), so
  // the gather is serial on the root here — the merge pass is disk-bound
  // anyway (§6: a second pass "uses twice the disk bandwidth").
  auto abandon = [out](Status why) {
    out->Abort();
    return why;
  };
  while (!tree.Empty()) {
    // Cancellation/deadline poll, once per merge output batch.
    if (Status ctl = CheckControl(ctx); !ctl.ok()) return abandon(ctl);
    char* buf = nullptr;
    size_t room = 0;
    {
      // Output seal step, kept out of the "merge" region so that region
      // stays a pure tournament measurement (docs/perf.md).
      obs::ScopedPerfRegion perf("merge.seal");
      if (Status s = out->Acquire(&buf, &room); !s.ok()) return abandon(s);
    }
    size_t fill = 0;
    {
      obs::TraceSpan span("merge.batch", "cpu");
      obs::ScopedPerfRegion perf("merge");
      while (fill < room && !tree.Empty()) {
        const size_t r = tree.WinnerStream();
        memcpy(buf + fill, tree.WinnerItem().record, fmt.record_size);
        fill += fmt.record_size;
        Status s = readers[r]->Advance();
        if (!s.ok()) return abandon(s);
        if (const char* rec = readers[r]->Current()) {
          tree.ReplaceWinner(Item{fmt.KeyPrefix(rec), rec});
        } else {
          tree.ExhaustWinner();
        }
      }
    }
    {
      obs::TraceSpan span("merge.seal", "io");
      obs::ScopedPerfRegion perf("merge.seal");
      out->Seal(fill);
    }
    // Cascade levels also land here, so merged bytes can exceed the plan
    // on deep cascades; the tracker clamps the fraction below 1.0.
    ProgressMerged(ctx, fill);
  }
  ALPHASORT_RETURN_IF_ERROR(out->Finish());
  // Every reader has drained its whole file; compare the CRC of what the
  // merge actually consumed against what the spill pass wrote. A mismatch
  // means the scratch bytes changed between write and read — surface it
  // as corruption, never as silently wrong output.
  if (opts.verify_run_checksums) {
    for (size_t r = 0; r < k; ++r) {
      if (readers[r]->crc32c() != runs[r].crc32c) {
        return Status::Corruption(StrFormat(
            "scratch run %s corrupted: crc32c %08x on read, %08x on write",
            runs[r].path.c_str(), readers[r]->crc32c(), runs[r].crc32c));
      }
      ++ctx->metrics->runs_checksum_verified;
    }
  }
  return Status::OK();
}

}  // namespace

Status WriteScratchRun(SortContext* ctx, int level,
                       const std::function<Status(BufferedWriter*)>& fill,
                       std::vector<ScratchRun>* runs) {
  const SortOptions& opts = *ctx->options;
  const std::string path = ScratchRunPath(opts, level, runs->size());
  Result<std::unique_ptr<File>> file =
      OpenScratchRun(ctx, path, OpenMode::kCreateReadWrite);
  ALPHASORT_RETURN_IF_ERROR(file.status());
  BufferedWriter ring(file.value().get(), ctx->aio, MergeBatchBytes(opts),
                      opts.write_buffers);
  Status s = fill(&ring);
  Status close_status = file.value()->Close();
  ALPHASORT_RETURN_IF_ERROR(s);
  ALPHASORT_RETURN_IF_ERROR(close_status);
  runs->push_back(ScratchRun{path, ring.bytes_written(), ring.crc32c()});
  ctx->metrics->scratch_bytes_written += ring.bytes_written();
  return Status::OK();
}

Status MergeScratchRuns(SortContext* ctx, std::vector<ScratchRun> runs) {
  const SortOptions& opts = *ctx->options;
  const size_t fanin = std::max<size_t>(2, opts.max_merge_fanin);

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
      ALPHASORT_RETURN_IF_ERROR(WriteScratchRun(
          ctx, level,
          [&](BufferedWriter* out) {
            return MergeScratchRunsToWriter(ctx, group, out);
          },
          &next));
      cleanup(group);
    }
    runs = std::move(next);
  }

  BufferedWriter out(ctx->output, ctx->aio, MergeBatchBytes(opts),
                     opts.write_buffers);
  Status s = MergeScratchRunsToWriter(ctx, runs, &out);
  cleanup(runs);
  ALPHASORT_RETURN_IF_ERROR(s);
  ctx->metrics->output_crc32c = out.crc32c();
  return ctx->output->Truncate(ctx->input_bytes);
}

}  // namespace core_internal
}  // namespace alphasort
