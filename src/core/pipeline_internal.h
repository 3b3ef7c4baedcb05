#ifndef ALPHASORT_CORE_PIPELINE_INTERNAL_H_
#define ALPHASORT_CORE_PIPELINE_INTERNAL_H_

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/chores.h"
#include "core/options.h"
#include "core/record_source.h"
#include "core/sort_control.h"
#include "io/async_io.h"
#include "io/stripe.h"
#include "obs/perf_counters.h"
#include "obs/progress.h"
#include "obs/sort_metrics.h"
#include "sort/merger.h"

namespace alphasort {
namespace core_internal {

// Shared context for one sort execution (the "root process" state).
struct SortContext {
  Env* env = nullptr;
  const SortOptions* options = nullptr;
  SortMetrics* metrics = nullptr;
  AsyncIO* aio = nullptr;
  ChorePool* pool = nullptr;
  // The input stream (core/record_source.h), opened by the harness; the
  // pipeline consumes it strictly sequentially.
  RecordSource* source = nullptr;
  StripeFile* output = nullptr;
  // Input totals. With size_known they are set before the pass bodies
  // run (and drive one-pass vs two-pass planning); for streamed sources
  // they start 0 and are filled at end of input by RunPasses.
  bool size_known = true;
  uint64_t input_bytes = 0;
  uint64_t num_records = 0;

  // The planner's one decision for RunPasses: how many records its
  // first block holds.
  uint64_t first_block_records = 0;

  // Input bytes consumed so far; advanced only by ReadRecords and the
  // zero-copy ingest.
  uint64_t bytes_read = 0;

  // Cooperative cancellation/deadline token, optional. The pipeline
  // polls it at run/merge-batch boundaries via CheckControl.
  const SortControl* control = nullptr;

  // Live progress, optional: receives the byte flow at every IO-buffer
  // quantum.
  obs::JobProgressTracker* progress = nullptr;

  // Every scratch-run path this sort has created, whether or not it was
  // later cleaned up in-line. Only the root thread creates scratch runs,
  // so plain vector access is safe. The ScratchSweeper uses it (plus an
  // Env::ListFiles backstop) to guarantee a failed sort leaks nothing.
  std::vector<std::string> scratch_created;

  // The job's hardware-counter sink: every obs::Stage the sort opens is
  // charged here, and RunInHarness hands it over as SortMetrics::perf.
  // Lifetime condition: every chore that opens a Stage finishes before
  // the body returns. Each fan-out waits on its own ChoreGroup, so no
  // sample outlives the context.
  obs::PerfAccumulator perf;

  // The phase clock, the one place phases change. Laps the time since
  // the previous change into the SortMetrics field of the phase being
  // left, closes that phase's stage, opens `next`'s (sort.startup,
  // sort.read_phase, sort.last_run, sort.merge_phase, sort.close) and
  // publishes `next` to progress. kDone only ends the last phase; the
  // job's outcome is published by its executor.
  void EnterPhase(obs::SortPhase next);

 private:
  obs::SortPhase phase_ = obs::SortPhase::kQueued;
  PhaseTimer phase_timer_;
  std::optional<obs::Stage> phase_stage_;
};

// Cancellation/deadline poll, called once per IO-buffer quantum (read
// chunk, spill chunk, merge output batch). OK when no token is set.
inline Status CheckControl(const SortContext* ctx) {
  return ctx->control == nullptr ? Status::OK() : ctx->control->Check();
}

// Null-safe progress publication helpers; same call frequency as
// CheckControl (once per buffer, never per record).
inline void ProgressRead(SortContext* ctx, uint64_t bytes) {
  if (ctx->progress != nullptr) ctx->progress->AddRead(bytes);
}
inline void ProgressSorted(SortContext* ctx, uint64_t bytes) {
  if (ctx->progress != nullptr) ctx->progress->AddSorted(bytes);
}
inline void ProgressSpilled(SortContext* ctx, uint64_t bytes) {
  if (ctx->progress != nullptr) ctx->progress->AddSpilled(bytes);
}
inline void ProgressMerged(SortContext* ctx, uint64_t bytes) {
  if (ctx->progress != nullptr) ctx->progress->AddMerged(bytes);
}

// A pass body: the part of the sort between "input opened, plan chosen"
// and "output written". The default body is RunPasses; the legacy entry
// points (VmsSort, HypercubeSort) inject their own bodies and inherit the
// whole harness — env wrapping, observability, metrics — from the one
// RunInHarness path.
using PipelineBody = std::function<Status(SortContext*)>;

// The harness every execution runs in, sorts and merges of sorted files
// alike: resets `*metrics` (may be null), wraps `env` as `options`
// prescribe (metrics, retry), builds the SortContext over the shared
// `aio` and `pool`, and runs `run`, which opens and closes its own ends
// and walks the phase clock from kStartup. Every exit fills total_s, the
// retry and IO-latency summaries, the hardware counters and the
// registry delta. `options` is used as given, not validated.
Status RunInHarness(Env* env, const SortOptions& options, AsyncIO* aio,
                    ChorePool* pool, const SortControl* control,
                    SortMetrics* metrics, obs::JobProgressTracker* progress,
                    const PipelineBody& run);

// A sort's `run` for RunInHarness: startup, the pass body and close.
// Builds and opens the source, creates the output, plans the passes,
// runs `body` (RunPasses when empty) and closes both ends whatever
// happened, returning the first error. Every Sorter and SortService job
// lands here.
Status OpenRunClose(SortContext* ctx, const PipelineBody& body);

// Records per spilled block: half the budget's worth, leaving the other
// half as headroom for the merge that follows (§6).
inline uint64_t SpillBlockRecords(const SortOptions& opts) {
  const uint64_t per_record =
      opts.format.record_size + SortOptions::kEntryOverheadBytes;
  return std::max<uint64_t>(opts.run_size_records,
                            opts.memory_budget / (2 * per_record));
}

// Output buffer size for every merge: whole records, about one IO chunk.
inline size_t MergeBatchBytes(const SortOptions& opts) {
  const size_t rec = opts.format.record_size;
  return std::max<size_t>(1, opts.io_chunk_bytes / rec) * rec;
}

// Key ranges every merge asks for: two per worker, because the root
// drives the IO and merges no range itself (docs/perf.md "Derived, not
// set"). Without workers the root fills one range.
inline size_t MergeRanges(const SortContext* ctx) {
  const int workers = ctx->pool->num_workers();
  return workers == 0 ? 1 : 2 * static_cast<size_t>(workers);
}

// One key range's records, produced in key order batch by batch. Made
// inside the range's chore, so only the ranges being filled hold their
// producers' memory.
class RangeProducer {
 public:
  RangeProducer() = default;
  virtual ~RangeProducer() = default;
  RangeProducer(const RangeProducer&) = delete;
  RangeProducer& operator=(const RangeProducer&) = delete;

  // Writes the range's next `n` records to `out`; PartitionedMerge never
  // asks for more than the range holds.
  virtual Status Fill(char* out, size_t n) = 0;
};

// Makes range `range`'s producer, which counts its compares into `stats`.
using RangeProducerFactory =
    std::function<Result<std::unique_ptr<RangeProducer>>(size_t range,
                                                         SortStats* stats)>;

// Where a PartitionedMerge writes.
struct MergeOutput {
  File* file = nullptr;
  // Receives the bytes of every batch written (ProgressMerged or
  // ProgressSpilled).
  void (*progress)(SortContext*, uint64_t) = nullptr;
  // When set, sized for the output's ⌈records / kSampleStride⌉ keys: the
  // key of every kSampleStride-th record lands here as its batch seals.
  std::string* sample_keys = nullptr;
};

// The one merge loop (paper §5: the root subdivides the sort "into
// sub-sorts on key ranges" so every processor drives its own tournament).
// Range r holds `range_records[r]` records and lands at a known offset, so
// each range is a chore that fills pooled buffers through its producer
// while the root owns all IO. `*crc_out` is the CRC-32C of the whole
// output, folded from the per-range CRCs. The first producer or write
// error aborts the merge and is returned.
Status PartitionedMerge(SortContext* ctx,
                        const std::vector<uint64_t>& range_records,
                        const RangeProducerFactory& make_producer,
                        const MergeOutput& out, uint32_t* crc_out);

// The default pass body — the one ingest path for every source. It
// reads the input block by block (records copied out of the source, or
// referenced in place when the source is resident in one buffer) and
// dispatches an entry-build + run-sort chore at each run boundary as the
// read front passes it, sorting each block's tail inline. If the input
// ends inside the first block, and the plan allows one pass, the runs are
// merged in memory straight to the output (paper §7). Otherwise every
// block is merged into a scratch run and the runs are cascaded into the
// output (§6). Only the first block's size comes from the planner
// (ctx->first_block_records); later blocks hold SpillBlockRecords. Sets
// ctx->input_bytes / num_records / the progress plan at end of input.
Status RunPasses(SortContext* ctx);

// The pipeline's one read: a single RecordSource::ReadInto of up to
// `cap_records` records into `dst` (io_chunk_bytes pieces; a file source
// aims its chunk reads straight at `dst`). Each time the filled prefix
// grows it advances ctx->bytes_read and the progress, calls
// `on_pull(records_ready)` (may be empty), and polls cancellation, whose
// non-OK status stops the read. `*eof` reports the end of input: the
// known total reached, or a stream's short read. A known-size source that
// ends early, or a stream that ends mid-record, is Status::Corruption. On
// error, work dispatched by `on_pull` may still reference `dst`; the
// caller drains it.
Status ReadRecords(SortContext* ctx, char* dst, uint64_t cap_records,
                   const std::function<void(uint64_t)>& on_pull,
                   uint64_t* records, bool* eof);

// A sorted run in a file: a scratch run the sort spilled, or a sorted
// input of MergeSortedFiles. A spilled run's CRC-32C is computed as it is
// written, and the merge pass always verifies it as it streams the run
// back, so an undetected scratch-disk corruption surfaces as
// Status::Corruption instead of silently wrong output. An input file has
// no recorded CRC; the merge checks its key order instead. `sample_keys`
// holds the key of every kSampleStride-th record
// (sort/merge_partition.h), from which the merge partitions the run into
// key ranges.
struct ScratchRun {
  std::string path;
  uint64_t bytes = 0;
  std::optional<uint32_t> crc32c;
  std::string sample_keys;
};

// Scope guard for the scratch namespace: on destruction deletes every
// scratch run recorded in ctx->scratch_created that still exists, then
// sweeps Env::ListFiles for stray stripe fragments under the scratch
// prefix. The success path has already deleted everything, so this is a
// no-op there; on any error or early return it guarantees a failed sort
// never leaks scratch files.
class ScratchSweeper {
 public:
  explicit ScratchSweeper(SortContext* ctx) : ctx_(ctx) {}
  ~ScratchSweeper() { Sweep(); }

  ScratchSweeper(const ScratchSweeper&) = delete;
  ScratchSweeper& operator=(const ScratchSweeper&) = delete;

 private:
  void Sweep();

  SortContext* ctx_;
};

// Scratch file name for run `index` of cascade level `level`; carries a
// ".str" suffix when the options ask for striped scratch.
std::string ScratchRunPath(const SortOptions& opts, int level, size_t index);

// Creates (or opens read-only) one scratch run, honoring
// options->scratch_stripe_width: striped runs get a definition file and
// member files, plain runs a single file.
Result<std::unique_ptr<File>> OpenScratchRun(SortContext* ctx,
                                             const std::string& path,
                                             OpenMode mode);

// Removes a scratch run (definition + members for striped runs).
void RemoveScratchRun(SortContext* ctx, const std::string& path);

// Creates scratch run `runs->size()` of cascade `level`, has `merge`
// write its `records` records through PartitionedMerge to the output it
// is given (progress counted as spilled at level 0, as merged above it;
// keys sampled into the run) and report their CRC-32C, closes the run
// and appends it to `*runs`.
using ScratchMerge =
    std::function<Status(const MergeOutput& out, uint32_t* crc)>;
Status WriteScratchRun(SortContext* ctx, int level, uint64_t records,
                       const ScratchMerge& merge,
                       std::vector<ScratchRun>* runs);

// Merges the sorted run files `runs` into `out` through PartitionedMerge
// (the scratch-run merge): the runs' samples pick up to MergeRanges(ctx)
// key ranges, and each range reads its own slice of every run. A run with
// a recorded CRC is verified against it. If any run has none, the merged
// key stream is checked instead, within each range and across range
// boundaries: a decrease is Status::Corruption ("input is not sorted").
// Reports the output CRC and, if asked, the range count.
Status MergeRunFiles(SortContext* ctx, const std::vector<ScratchRun>& runs,
                     const MergeOutput& out, uint32_t* crc,
                     size_t* num_ranges = nullptr);

// Merges `runs` into ctx->output, cascading through intermediate levels
// while more than options->max_merge_fanin runs remain. Consumed scratch
// files are deleted; the output is truncated to the input size.
Status MergeScratchRuns(SortContext* ctx, std::vector<ScratchRun> runs);

}  // namespace core_internal
}  // namespace alphasort

#endif  // ALPHASORT_CORE_PIPELINE_INTERNAL_H_
