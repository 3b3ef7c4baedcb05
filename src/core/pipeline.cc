#include <algorithm>
#include <condition_variable>
#include <deque>
#include <mutex>

#include "common/checksum.h"
#include "common/huge_pages.h"
#include "common/table.h"
#include "core/pipeline_internal.h"
#include "obs/metrics.h"
#include "obs/perf_counters.h"
#include "obs/trace.h"
#include "sort/merge_partition.h"
#include "sort/merger.h"
#include "sort/quicksort.h"
#include "sort/radix_partition.h"

namespace alphasort {
namespace core_internal {
namespace {

// Gathers `ptrs[0..n)` into `out` in parallel slices across the pool.
void ParallelGather(SortContext* ctx, const char* const* ptrs, size_t n,
                    char* out) {
  const RecordFormat& fmt = ctx->options->format;
  const size_t prefetch = ctx->options->prefetch_distance;
  const size_t slices = static_cast<size_t>(ctx->pool->num_workers()) + 1;
  const size_t per_slice = (n + slices - 1) / slices;
  ctx->pool->ParallelFor(slices, [&](size_t s) {
    obs::ScopedJobId job_scope(ctx->job_id);
    obs::ScopedTraceId trace_scope(ctx->trace_id);
    const size_t lo = s * per_slice;
    const size_t hi = std::min(n, lo + per_slice);
    if (lo < hi) {
      obs::Stage stage(&ctx->perf, "gather.slice", "cpu");
      GatherRecords(fmt, ptrs + lo, hi - lo, out + lo * fmt.record_size,
                    prefetch);
    }
  });
}

// Aggregates per-chore sort stats under a lock (chores run concurrently).
class StatsSink {
 public:
  void Add(const SortStats& stats) {
    std::lock_guard<std::mutex> lock(mu_);
    total_.Merge(stats);
  }

  SortStats Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return total_;
  }

 private:
  std::mutex mu_;
  SortStats total_;
};

// svc-style process counters for the partitioned merge, resolved once.
struct PartitionCounters {
  obs::Counter* sorts;    // merges that ran partitioned
  obs::Counter* ranges;   // total key ranges across those merges
  obs::Counter* batches;  // output batches sealed by workers

  static PartitionCounters* Get() {
    static PartitionCounters* c = [] {
      auto* registry = obs::MetricsRegistry::Global();
      return new PartitionCounters{
          registry->GetCounter("merge.partitioned_sorts"),
          registry->GetCounter("merge.ranges"),
          registry->GetCounter("merge.sealed_batches")};
    }();
    return c;
  }
};

// One gather buffer cycling through the partitioned merge's
// fill → seal → write → recycle loop. `offset`/`len` pin the batch to its
// absolute position in the output file, so batches from different ranges
// can complete in any order.
struct RangeBuffer {
  std::vector<char> data;
  uint64_t offset = 0;
  size_t len = 0;
  AsyncIO::Handle pending = 0;
};

// The key-range-partitioned merge (paper §5: the root subdivides the sort
// "into sub-sorts on key ranges" so every processor drives its own
// tournament). Each range becomes one chore: a worker merges the range's
// run slices through its own loser tree and gathers each batch into a
// pooled buffer, stamped with its exact output offset
// (range.first_record is known up front, so no coordination on where
// bytes land). The root keeps owning all IO, exactly as in the
// sequential path: it drains sealed buffers into AsyncIO writes, keeps
// up to write_buffers of them in flight, and recycles retired buffers
// back to the workers.
//
// Output bytes are identical to the sequential merge by construction
// (sort/merge_partition.h documents the boundary contract); the output
// CRC is the per-range CRCs folded in range order with Crc32cCombine.
//
// Deadlock discipline: workers block only on the free-buffer pool; the
// root blocks on the sealed queue only while nothing is in flight
// (otherwise it retires the oldest write first, which is what frees
// buffers). An abort — IO error or cancellation — raises `abort` under
// the lock and wakes every waiter; workers drain out at their next
// buffer acquisition.
//
// This root loop is the one writer that does not stream through the
// output ring (io/buffered_writer.h). Its buffers are filled by many
// workers at once, sealed out of file order at per-range offsets and
// checksummed per range; the ring has one producer, writes consecutive
// offsets and folds a single CRC in submit order. Serving both would
// make the ring branch on its caller.
Status PartitionedMerge(SortContext* ctx, const MergePartition& partition,
                        uint32_t* crc_out) {
  const SortOptions& opts = *ctx->options;
  const RecordFormat& fmt = opts.format;
  const size_t num_ranges = partition.NumRanges();
  const size_t batch_records =
      std::max<size_t>(1, opts.io_chunk_bytes / fmt.record_size);
  const size_t write_depth =
      static_cast<size_t>(std::max(2, opts.write_buffers));

  // Enough buffers for every worker to fill one while the root keeps a
  // full write pipe in flight.
  const size_t num_bufs =
      write_depth + std::min<size_t>(
                        static_cast<size_t>(ctx->pool->num_workers()),
                        num_ranges);
  std::vector<RangeBuffer> storage(num_bufs);
  for (auto& b : storage) b.data.resize(batch_records * fmt.record_size);

  struct Shared {
    std::mutex mu;
    std::condition_variable free_cv;    // workers: a buffer came free
    std::condition_variable sealed_cv;  // root: sealed batch / range done
    std::vector<RangeBuffer*> free_bufs;
    std::deque<RangeBuffer*> sealed;
    size_t ranges_done = 0;
    bool abort = false;
  } shared;
  for (auto& b : storage) shared.free_bufs.push_back(&b);

  std::vector<uint32_t> range_crc(num_ranges, 0);
  StatsSink merge_stats;

  for (size_t r = 0; r < num_ranges; ++r) {
    // Everything captured by reference outlives the chore: the root
    // WaitIdle()s before this function returns.
    ctx->pool->Submit([&, r] {
      // Chores from concurrent jobs interleave on shared workers, so the
      // ambient job and trace ids must be re-established per chore.
      obs::ScopedJobId job_scope(ctx->job_id);
      obs::ScopedTraceId trace_scope(ctx->trace_id);
      const MergeRange& range = partition.ranges[r];
      obs::Stage range_stage(&ctx->perf, "merge.range", "cpu");
      SortStats stats;
      RunMerger<> merger(fmt, range.runs, TreeLayout::kFlat, nullptr,
                         &stats, opts.merge_prefetch);
      std::vector<const char*> ptrs(batch_records);
      uint64_t offset = range.first_record * fmt.record_size;
      while (!merger.Done()) {
        RangeBuffer* buf = nullptr;
        {
          std::unique_lock<std::mutex> lock(shared.mu);
          shared.free_cv.wait(lock, [&shared] {
            return shared.abort || !shared.free_bufs.empty();
          });
          if (shared.abort) break;
          buf = shared.free_bufs.back();
          shared.free_bufs.pop_back();
        }
        size_t got;
        {
          obs::Stage stage(&ctx->perf, "merge.batch", "cpu");
          got = merger.NextBatch(ptrs.data(), batch_records);
        }
        {
          obs::Stage stage(&ctx->perf, "gather.slice", "cpu");
          GatherRecords(fmt, ptrs.data(), got, buf->data.data(),
                        opts.prefetch_distance);
        }
        buf->offset = offset;
        buf->len = got * fmt.record_size;
        offset += buf->len;
        // A range's batches are produced front to back by this one
        // chore, so its CRC folds sequentially right here.
        range_crc[r] = Crc32c(buf->data.data(), buf->len, range_crc[r]);
        {
          std::lock_guard<std::mutex> lock(shared.mu);
          shared.sealed.push_back(buf);
        }
        shared.sealed_cv.notify_one();
      }
      merge_stats.Add(stats);
      {
        std::lock_guard<std::mutex> lock(shared.mu);
        ++shared.ranges_done;
      }
      shared.sealed_cv.notify_one();
    });
  }

  std::deque<RangeBuffer*> in_flight;
  Status status;

  // Waits the oldest in-flight write and returns its buffer to the pool.
  auto retire_oldest = [&] {
    RangeBuffer* buf = in_flight.front();
    in_flight.pop_front();
    Status write_status = ctx->aio->Wait(buf->pending);
    if (!write_status.ok() && status.ok()) status = write_status;
    {
      std::lock_guard<std::mutex> lock(shared.mu);
      shared.free_bufs.push_back(buf);
    }
    shared.free_cv.notify_one();
  };
  auto raise_abort = [&shared] {
    std::lock_guard<std::mutex> lock(shared.mu);
    shared.abort = true;
    shared.free_cv.notify_all();
  };

  for (;;) {
    RangeBuffer* buf = nullptr;
    bool all_done = false;
    {
      std::unique_lock<std::mutex> lock(shared.mu);
      if (shared.sealed.empty() && in_flight.empty()) {
        shared.sealed_cv.wait(lock, [&shared, num_ranges] {
          return !shared.sealed.empty() ||
                 shared.ranges_done == num_ranges;
        });
      }
      if (!shared.sealed.empty()) {
        buf = shared.sealed.front();
        shared.sealed.pop_front();
      } else if (in_flight.empty()) {
        all_done = shared.ranges_done == num_ranges;
      }
    }
    if (buf != nullptr) {
      // Cancellation/deadline poll, once per sealed batch.
      if (Status ctl = CheckControl(ctx); !ctl.ok()) {
        if (status.ok()) status = ctl;
        std::lock_guard<std::mutex> lock(shared.mu);
        shared.free_bufs.push_back(buf);  // never submitted
        break;
      }
      {
        obs::Stage stage(&ctx->perf, "merge.seal", "io");
        buf->pending = ctx->aio->SubmitWrite(ctx->output, buf->offset,
                                             buf->data.data(), buf->len);
      }
      in_flight.push_back(buf);
      ProgressMerged(ctx, buf->len);
      PartitionCounters::Get()->batches->Add();
      if (in_flight.size() < write_depth) continue;
    } else if (all_done) {
      break;
    }
    // Write pipe full, or nothing sealed while writes are outstanding:
    // retiring the oldest write is the only way buffers come free.
    if (!in_flight.empty()) {
      obs::Stage stage(&ctx->perf, "merge.seal", "io");
      retire_oldest();
      if (!status.ok()) break;
    }
  }

  // Unwind: wake every worker (on error they drain out; on success they
  // are already done), let the pool go idle, then retire whatever writes
  // are still outstanding — the buffers must outlive them.
  if (!status.ok()) raise_abort();
  ctx->pool->WaitIdle();
  while (!in_flight.empty()) retire_oldest();

  ctx->metrics->merge_stats.Merge(merge_stats.Take());
  if (status.ok()) {
    uint32_t crc = 0;
    for (size_t r = 0; r < num_ranges; ++r) {
      crc = Crc32cCombine(
          crc, range_crc[r],
          partition.ranges[r].num_records * fmt.record_size);
    }
    *crc_out = crc;
  }
  return status;
}

// Merges sorted entry `runs` batch by batch through one tournament and
// gathers each batch in parallel straight into the ring's next buffer —
// the in-memory merge's output and every spilled run alike. `progress`
// receives the bytes of each sealed batch. On return the ring is
// finished, or aborted on error.
Status MergeToWriter(SortContext* ctx, std::vector<EntryRun> runs,
                     BufferedWriter* out,
                     void (*progress)(SortContext*, uint64_t)) {
  const SortOptions& opts = *ctx->options;
  const RecordFormat& fmt = opts.format;
  RunMerger<> merger(fmt, std::move(runs), TreeLayout::kFlat, nullptr,
                     &ctx->metrics->merge_stats, opts.merge_prefetch);
  const size_t batch_records = out->buffer_bytes() / fmt.record_size;
  std::vector<const char*> ptrs(batch_records);
  Status status;
  while (status.ok() && !merger.Done()) {
    // Cancellation/deadline poll, once per output batch.
    status = CheckControl(ctx);
    char* dst = nullptr;
    size_t room = 0;
    if (status.ok()) {
      // Reclaiming the buffer from its earlier write is part of the
      // output seal step, not the merge proper — account it there so the
      // "merge.batch" stage stays a pure tournament measurement
      // (docs/perf.md).
      obs::Stage stage(&ctx->perf, "merge.seal", "io");
      status = out->Acquire(&dst, &room);
    }
    if (!status.ok()) break;
    size_t got;
    {
      obs::Stage stage(&ctx->perf, "merge.batch", "cpu");
      got = merger.NextBatch(ptrs.data(), batch_records);
    }
    ParallelGather(ctx, ptrs.data(), got, dst);
    {
      obs::Stage stage(&ctx->perf, "merge.seal", "io");
      out->Seal(got * fmt.record_size);
    }
    progress(ctx, got * fmt.record_size);
  }
  if (!status.ok()) {
    out->Abort();
    return status;
  }
  return out->Finish();
}

// Touches one page in every 4 KiB of the fresh block and entry arrays,
// in parallel slices (§5: "the workers sweep through the address space
// touching pages... zeroing a 1 GB address space takes 12 cpu seconds"),
// so page faults don't serialize inside the read and sort loops. Never
// called on a resident source's (read-only) buffer.
void Prefault(SortContext* ctx, char* block, size_t block_len,
              PrefixEntry* entries, size_t num_entries) {
  constexpr size_t kPage = 4096;
  const size_t slices = static_cast<size_t>(ctx->pool->num_workers()) + 1;
  auto touch = [slices](char* base, size_t len, size_t slice) {
    const size_t per = (len + slices - 1) / slices;
    const size_t lo = slice * per;
    const size_t hi = std::min(len, lo + per);
    for (size_t i = lo; i < hi; i += kPage) base[i] = 0;
  };
  char* entry_bytes = reinterpret_cast<char*>(entries);
  const size_t entry_len = num_entries * sizeof(PrefixEntry);
  ctx->pool->ParallelFor(slices, [&](size_t s) {
    if (block != nullptr) touch(block, block_len, s);
    touch(entry_bytes, entry_len, s);
  });
}

// EntryRun views over the first `n` entries, one per sorted run.
std::vector<EntryRun> BlockRuns(const PrefixEntry* entries, uint64_t n,
                                uint64_t run_records) {
  std::vector<EntryRun> runs;
  for (uint64_t start = 0; start < n; start += run_records) {
    const uint64_t len = std::min<uint64_t>(run_records, n - start);
    runs.push_back(EntryRun{entries + start, entries + start + len});
  }
  return runs;
}

// The in-memory merge phase: merges the sorted `entry_runs` (entry arrays
// over resident records) into ctx->output — partitioned across workers
// when configured, a single sequential tournament otherwise — then
// truncates to the input size and records the output CRC.
Status MergeEntryRunsToOutput(SortContext* ctx,
                              const std::vector<EntryRun>& entry_runs) {
  const SortOptions& opts = *ctx->options;
  const RecordFormat& fmt = opts.format;

  // Merge strategy (§5): with workers available, split the key space
  // into ~workers+1 disjoint ranges and let every worker drive its own
  // tournament; without workers (or when the split degenerates — all
  // keys equal, a single run) fall through to the classic single global
  // tournament. A zero-worker pool must stay sequential: its Submit()
  // runs chores inline on the root, which would deadlock the fill/seal
  // handshake of the partitioned merge.
  size_t want_ranges = 1;
  if (ctx->pool->num_workers() > 0) {
    want_ranges = opts.merge_parallelism == -1
                      ? static_cast<size_t>(ctx->pool->num_workers()) + 1
                      : static_cast<size_t>(opts.merge_parallelism);
  }
  MergePartition partition;
  if (want_ranges > 1) {
    obs::Stage stage(&ctx->perf, "merge.partition", "cpu");
    partition = PartitionEntryRuns(fmt, entry_runs, want_ranges);
  }
  uint32_t crc = 0;
  if (partition.NumRanges() > 1) {
    PartitionCounters::Get()->sorts->Add();
    PartitionCounters::Get()->ranges->Add(partition.NumRanges());
    ctx->metrics->merge_ranges = partition.NumRanges();
    ALPHASORT_RETURN_IF_ERROR(PartitionedMerge(ctx, partition, &crc));
  } else {
    BufferedWriter ring(ctx->output, ctx->aio, MergeBatchBytes(opts),
                        opts.write_buffers);
    ALPHASORT_RETURN_IF_ERROR(
        MergeToWriter(ctx, entry_runs, &ring, ProgressMerged));
    crc = ring.crc32c();
  }
  ALPHASORT_RETURN_IF_ERROR(ctx->output->Truncate(ctx->input_bytes));
  ctx->metrics->output_crc32c = crc;
  return Status::OK();
}

}  // namespace

Status ReadRecords(SortContext* ctx, char* dst, uint64_t cap_records,
                   const std::function<void(uint64_t)>& on_pull,
                   uint64_t* records, bool* eof) {
  const size_t rec = ctx->options->format.record_size;
  uint64_t cap = cap_records * rec;
  if (ctx->size_known) {
    cap = std::min<uint64_t>(cap, ctx->input_bytes - ctx->bytes_read);
  }
  uint64_t filled = 0;
  bool ended = false;
  while (filled < cap) {
    // Cancellation/deadline poll, once per pull.
    ALPHASORT_RETURN_IF_ERROR(CheckControl(ctx));
    const size_t want = static_cast<size_t>(
        std::min<uint64_t>(ctx->options->io_chunk_bytes, cap - filled));
    size_t got = 0;
    ALPHASORT_RETURN_IF_ERROR(ctx->source->Read(dst + filled, want, &got));
    filled += got;
    ctx->bytes_read += got;
    ProgressRead(ctx, got);
    if (on_pull) on_pull(filled / rec);
    if (got < want) {
      ended = true;
      if (ctx->size_known) {
        // The source promised TotalBytes and delivered fewer: the input
        // was truncated (or a producer lied about its size).
        return Status::Corruption(StrFormat(
            "short read at offset %llu: wanted %zu got %zu",
            static_cast<unsigned long long>(ctx->bytes_read - got), want,
            got));
      }
      break;
    }
  }
  if (ended && filled % rec != 0) {
    return Status::Corruption(StrFormat(
        "stream ended mid-record: %llu trailing bytes (record size %zu)",
        static_cast<unsigned long long>(filled % rec), rec));
  }
  *records = filled / rec;
  *eof = ctx->size_known ? ctx->bytes_read == ctx->input_bytes : ended;
  return Status::OK();
}

Status RunPasses(SortContext* ctx) {
  const SortOptions& opts = *ctx->options;
  const size_t rec = opts.format.record_size;
  const uint64_t run_records = opts.run_size_records;

  // Zero-copy: a source whose entire input is already resident in one
  // immutable buffer (mmap, memory, generated) needs no record block and
  // no read loop — entries reference the source's bytes directly, and
  // the only copy left in a one-pass sort is the gather.
  uint64_t resident_len = 0;
  const char* resident = ctx->source->ContiguousBytes(&resident_len);
  if (!ctx->size_known || resident_len != ctx->input_bytes) {
    resident = nullptr;
  }

  // One block and entry array, sized for the first block; later blocks
  // (spill sizing) never exceed it. Raw uninitialized allocation:
  // zero-filling here would touch every page serially, which is exactly
  // the cost §5 offloads to the workers. Streams skip the prefault and
  // the huge-page advice — they rarely fill their optimistic first
  // block. A known-size block is advised before anything touches it, so
  // the prefault and the read fault in 2 MiB pages and the gather's
  // random reads stay within the TLB's reach (docs/perf.md).
  const uint64_t cap0 = ctx->first_block_records;
  std::unique_ptr<char[]> block(resident ? nullptr : new char[cap0 * rec]);
  std::unique_ptr<PrefixEntry[]> entries(new PrefixEntry[cap0]);
  PrefixEntry* const ents = entries.get();
  if (block != nullptr && ctx->size_known) {
    obs::MetricsRegistry::Global()
        ->GetCounter("memory.huge_page_advised_bytes")
        ->Add(AdviseHugePages(block.get(), cap0 * rec));
  }
  if (opts.prefault_memory && ctx->size_known) {
    Prefault(ctx, block.get(), cap0 * rec, ents, cap0);
  }

  StatsSink qs_stats;
  // Builds and sorts the entries of run [start, start + len) of the block
  // at `base`.
  auto sort_run = [ctx, &opts, rec, ents, &qs_stats](
                      const char* base, uint64_t start, uint64_t len) {
    obs::Stage stage(&ctx->perf, "quicksort.run", "cpu");
    SortStats stats;
    BuildPrefixEntryArray(opts.format, base + start * rec, len, ents + start,
                          opts.prefetch_distance);
    SortPrefixEntryArrayWithKernel(opts.format, ents + start, len,
                                   opts.sort_kernel, &stats);
    qs_stats.Add(stats);
    ProgressSorted(ctx, len * rec);
  };

  // Phases: read until the input ends; last_run from there to the merge
  // (the tail sort that cannot overlap any input, §7, and a spilling
  // sort's final spill).
  ctx->EnterPhase(obs::SortPhase::kRead);
  auto merge_begins = [&] {
    ctx->metrics->quicksort_stats = qs_stats.Take();
    if (!ctx->size_known) {
      ctx->num_records = ctx->bytes_read / rec;
      ctx->input_bytes = ctx->num_records * rec;
      if (ctx->progress != nullptr) {
        ctx->progress->SetPlan(ctx->input_bytes, ctx->metrics->passes);
      }
    }
    ctx->EnterPhase(obs::SortPhase::kMerge);
  };

  // Ingests one block of up to `cap` records: sorts every run as the read
  // front passes it (a chore per run), the tail inline, and drains the
  // pool, so the caller may merge or reuse the block.
  auto ingest_block = [&](uint64_t cap, uint64_t* n, bool* at_end) {
    uint64_t next_run = 0;
    auto dispatch_runs_below = [&](const char* data, uint64_t ready) {
      for (; ready - next_run >= run_records; next_run += run_records) {
        ctx->pool->Submit([ctx, &sort_run, data, start = next_run,
                           run_records] {
          obs::ScopedJobId job_scope(ctx->job_id);
          obs::ScopedTraceId trace_scope(ctx->trace_id);
          sort_run(data, start, run_records);
        });
      }
    };
    const char* base = block.get();
    Status s;
    if (resident != nullptr) {
      base = resident + ctx->bytes_read;
      *n = std::min<uint64_t>(cap,
                              (ctx->input_bytes - ctx->bytes_read) / rec);
      ctx->bytes_read += *n * rec;
      *at_end = ctx->bytes_read == ctx->input_bytes;
      ProgressRead(ctx, *n * rec);
      s = CheckControl(ctx);
      if (s.ok()) dispatch_runs_below(base, *n);
    } else {
      s = ReadRecords(
          ctx, block.get(), cap,
          [&](uint64_t ready) { dispatch_runs_below(block.get(), ready); },
          n, at_end);
    }
    if (!s.ok()) {
      // Dispatched chores reference the block; they must finish before
      // the error unwinds it.
      ctx->pool->WaitIdle();
      return s;
    }
    if (*at_end) ctx->EnterPhase(obs::SortPhase::kLastRun);
    if (next_run < *n) sort_run(base, next_run, *n - next_run);
    ctx->pool->WaitIdle();
    return Status::OK();
  };

  uint64_t n = 0;
  bool eof = false;
  ALPHASORT_RETURN_IF_ERROR(ingest_block(cap0, &n, &eof));
  // What the kernel granted, not what was asked: read once, with the
  // first block filled.
  if (block != nullptr) {
    ctx->metrics->record_block_huge_page_bytes =
        HugePageBytes(block.get(), cap0 * rec);
  }

  // The whole input arrived within the first block: one pass, unless a
  // known-size plan already chose two.
  if (eof && !(ctx->size_known && ctx->metrics->passes == 2)) {
    ctx->metrics->passes = 1;
    ctx->metrics->num_runs = (n + run_records - 1) / run_records;
    merge_begins();
    if (n == 0) return Status::OK();
    return MergeEntryRunsToOutput(ctx, BlockRuns(ents, n, run_records));
  }

  // Two passes: every block becomes one scratch run.
  ScratchSweeper sweeper(ctx);
  std::vector<ScratchRun> runs;
  Status s;
  while (s.ok() && n > 0) {
    s = WriteScratchRun(
        ctx, /*level=*/0,
        [&](BufferedWriter* out) {
          return MergeToWriter(ctx, BlockRuns(ents, n, run_records), out,
                               ProgressSpilled);
        },
        &runs);
    if (!s.ok() || eof) break;
    s = ingest_block(SpillBlockRecords(opts), &n, &eof);
  }
  // The merge gets the memory back: free the block before it starts.
  block.reset();
  entries.reset();
  ctx->metrics->passes = 2;
  ctx->metrics->num_runs = runs.size();
  merge_begins();
  if (!s.ok()) return s;
  return MergeScratchRuns(ctx, std::move(runs));
}

}  // namespace core_internal
}  // namespace alphasort
