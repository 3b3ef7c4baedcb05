#include <algorithm>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>

#include "common/checksum.h"
#include "common/huge_pages.h"
#include "common/table.h"
#include "core/pipeline_internal.h"
#include "obs/metrics.h"
#include "obs/perf_counters.h"
#include "sort/merge_partition.h"
#include "sort/merger.h"
#include "sort/quicksort.h"
#include "sort/radix_partition.h"

namespace alphasort {
namespace core_internal {
namespace {

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
  obs::Counter* batches;  // output batches sealed by fillers

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

// One gather buffer cycling through the merge's fill → seal → write →
// recycle loop. `offset`/`len` pin the batch to its absolute position in
// the output file, so batches from different ranges can complete in any
// order.
struct RangeBuffer {
  std::vector<char> data;
  uint64_t offset = 0;
  size_t len = 0;
  AsyncIO::Handle pending = 0;
};

// Copies the key of every kSampleStride-th output record in a batch of
// `n` records, the first of which is output record `first`, into its
// slot of `samples`. Ranges seal disjoint records, so concurrent calls
// write disjoint bytes.
void SampleKeys(const RecordFormat& fmt, const char* batch, uint64_t first,
                size_t n, std::string* samples) {
  const uint64_t end = first + n;
  for (uint64_t i = (first + kSampleStride - 1) / kSampleStride *
                    kSampleStride;
       i < end; i += kSampleStride) {
    memcpy(samples->data() + i / kSampleStride * fmt.key_size,
           fmt.KeyPtr(batch + (i - first) * fmt.record_size), fmt.key_size);
  }
}

}  // namespace

// Each range is one chore: a worker makes the range's producer, fills
// pooled buffers from it batch by batch and stamps each with its exact
// output offset (the per-range record counts are known up front, so no
// coordination on where bytes land). The root owns all IO: it drains
// sealed buffers into AsyncIO writes, keeps up to write_buffers of them
// in flight, and recycles retired buffers back to the fillers. A
// zero-worker pool has nobody to fill, so the root fills the ranges
// itself, in order, through the same buffers, writing out a batch
// whenever it needs a buffer back.
//
// Output bytes are identical to one global tournament's by construction
// (sort/merge_partition.h documents the boundary contract); the output
// CRC is the per-range CRCs folded in range order with Crc32cCombine.
//
// Deadlock discipline: workers block only on the free-buffer pool; the
// root blocks on the sealed queue only while nothing is in flight
// (otherwise it retires the oldest write first, which is what frees
// buffers). An abort — a write or producer error, or cancellation —
// raises `abort` under the lock and wakes every waiter; fillers drain out
// at their next buffer acquisition.
//
// This root loop is the one writer that does not stream through the
// output ring (io/buffered_writer.h): its buffers are filled by many
// ranges at once, sealed out of file order and checksummed per range.
Status PartitionedMerge(SortContext* ctx,
                        const std::vector<uint64_t>& range_records,
                        const RangeProducerFactory& make_producer,
                        const MergeOutput& out, uint32_t* crc_out) {
  const SortOptions& opts = *ctx->options;
  const RecordFormat& fmt = opts.format;
  const size_t rec = fmt.record_size;
  const size_t num_ranges = range_records.size();
  const size_t batch_records = MergeBatchBytes(opts) / rec;
  const size_t write_depth =
      static_cast<size_t>(std::max(2, opts.write_buffers));
  const size_t workers = static_cast<size_t>(ctx->pool->num_workers());
  // A zero-worker pool runs each range inline as it is submitted.
  const bool root_fills = workers == 0;
  if (num_ranges > 1) {
    PartitionCounters::Get()->sorts->Add();
    PartitionCounters::Get()->ranges->Add(num_ranges);
  }

  // Enough buffers for every worker to fill one while the root keeps a
  // full write pipe in flight.
  const size_t num_bufs = write_depth + std::min(workers, num_ranges);
  std::vector<RangeBuffer> storage(num_bufs);
  for (auto& b : storage) b.data.resize(batch_records * rec);

  std::vector<uint64_t> first_record(num_ranges, 0);
  for (size_t r = 1; r < num_ranges; ++r) {
    first_record[r] = first_record[r - 1] + range_records[r - 1];
  }

  struct Shared {
    std::mutex mu;
    std::condition_variable free_cv;    // fillers: a buffer came free
    std::condition_variable sealed_cv;  // root: sealed batch / range done
    std::vector<RangeBuffer*> free_bufs;
    std::deque<RangeBuffer*> sealed;
    size_t ranges_done = 0;
    bool abort = false;
    Status error;  // the first producer error
  } shared;
  for (auto& b : storage) shared.free_bufs.push_back(&b);

  std::vector<uint32_t> range_crc(num_ranges, 0);
  StatsSink merge_stats;
  // Root-only state: the write pipe and the root's own first error (a
  // write, or the control token).
  std::deque<RangeBuffer*> in_flight;
  Status status;

  auto raise_abort = [&shared] {
    std::lock_guard<std::mutex> lock(shared.mu);
    shared.abort = true;
    shared.free_cv.notify_all();
    shared.sealed_cv.notify_all();
  };
  // Waits the oldest in-flight write and returns its buffer to the pool.
  auto retire_oldest = [&] {
    obs::Stage stage(&ctx->perf, "merge.seal", "io");
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
  // One step of the root's write side: submits the next sealed batch, or
  // retires the oldest write when the pipe is full or nothing is sealed.
  // Returns false once every range is written, or on abort.
  auto pump = [&]() -> bool {
    RangeBuffer* buf = nullptr;
    {
      std::unique_lock<std::mutex> lock(shared.mu);
      if (!root_fills && shared.sealed.empty() && in_flight.empty()) {
        shared.sealed_cv.wait(lock, [&shared, num_ranges] {
          return shared.abort || !shared.sealed.empty() ||
                 shared.ranges_done == num_ranges;
        });
      }
      if (shared.abort) return false;
      if (!shared.sealed.empty()) {
        buf = shared.sealed.front();
        shared.sealed.pop_front();
      } else if (in_flight.empty()) {
        return false;  // every range is done and written
      }
    }
    if (buf != nullptr) {
      // Cancellation/deadline poll, once per sealed batch.
      if (Status ctl = CheckControl(ctx); !ctl.ok()) {
        status = ctl;
        std::lock_guard<std::mutex> lock(shared.mu);
        shared.free_bufs.push_back(buf);  // never submitted
        return false;
      }
      {
        obs::Stage stage(&ctx->perf, "merge.seal", "io");
        buf->pending = ctx->aio->SubmitWrite(out.file, buf->offset,
                                             buf->data.data(), buf->len);
      }
      in_flight.push_back(buf);
      out.progress(ctx, buf->len);
      PartitionCounters::Get()->batches->Add();
      if (in_flight.size() < write_depth) return true;
    }
    // Write pipe full, or nothing sealed while writes are outstanding:
    // retiring the oldest write is the only way buffers come free.
    retire_oldest();
    return status.ok();
  };
  // A free buffer for a filler, or nullptr on abort. A worker waits for
  // the root to recycle one; the root, filling, first writes out what it
  // has sealed and then retires writes until one comes free.
  auto acquire = [&]() -> RangeBuffer* {
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(shared.mu);
        if (!root_fills) {
          shared.free_cv.wait(lock, [&shared] {
            return shared.abort || !shared.free_bufs.empty();
          });
        }
        if (shared.abort) return nullptr;
        if (!shared.free_bufs.empty() &&
            (!root_fills || shared.sealed.empty())) {
          RangeBuffer* buf = shared.free_bufs.back();
          shared.free_bufs.pop_back();
          return buf;
        }
      }
      if (!pump()) {
        raise_abort();
        return nullptr;
      }
    }
  };
  auto fill_range = [&](size_t r) {
    obs::Stage range_stage(&ctx->perf, "merge.range", "cpu");
    SortStats stats;
    Status s;
    {
      Result<std::unique_ptr<RangeProducer>> producer =
          make_producer(r, &stats);
      s = producer.status();
      uint64_t next = first_record[r];
      const uint64_t end = next + range_records[r];
      while (s.ok() && next < end) {
        RangeBuffer* buf = acquire();
        if (buf == nullptr) break;
        const size_t n =
            static_cast<size_t>(std::min<uint64_t>(batch_records, end - next));
        s = producer.value()->Fill(buf->data.data(), n);
        if (!s.ok()) {
          std::lock_guard<std::mutex> lock(shared.mu);
          shared.free_bufs.push_back(buf);
          break;
        }
        buf->offset = next * rec;
        buf->len = n * rec;
        if (out.sample_keys != nullptr) {
          SampleKeys(fmt, buf->data.data(), next, n, out.sample_keys);
        }
        // A range's batches are produced front to back by this one
        // filler, so its CRC folds sequentially right here.
        range_crc[r] = Crc32c(buf->data.data(), buf->len, range_crc[r]);
        next += n;
        {
          std::lock_guard<std::mutex> lock(shared.mu);
          shared.sealed.push_back(buf);
        }
        shared.sealed_cv.notify_one();
      }
    }  // the producer's memory goes before the range counts as done
    merge_stats.Add(stats);
    {
      std::lock_guard<std::mutex> lock(shared.mu);
      if (!s.ok()) {
        if (shared.error.ok()) shared.error = s;
        shared.abort = true;
        shared.free_cv.notify_all();
      }
      ++shared.ranges_done;
    }
    shared.sealed_cv.notify_one();
  };

  // Declared after everything the fills reference, so it waits for them
  // on every way out of this function.
  ChoreGroup fills(ctx->pool);
  for (size_t r = 0; r < num_ranges; ++r) {
    fills.Submit([&fill_range, r] { fill_range(r); });
  }
  while (pump()) {
  }

  // Unwind: wake every filler (on error they drain out; on success they
  // are already done), wait for this merge's fills, then retire whatever
  // writes are still outstanding — the buffers must outlive them.
  if (!status.ok()) raise_abort();
  fills.Wait();
  while (!in_flight.empty()) retire_oldest();
  if (status.ok()) status = shared.error;

  ctx->metrics->merge_stats.Merge(merge_stats.Take());
  ALPHASORT_RETURN_IF_ERROR(status);
  uint32_t crc = 0;
  for (size_t r = 0; r < num_ranges; ++r) {
    crc = Crc32cCombine(crc, range_crc[r], range_records[r] * rec);
  }
  *crc_out = crc;
  return Status::OK();
}

namespace {

// One key range of in-memory entry runs: its own tournament, whose
// pointer stream is gathered straight into the batch. The one-pass merge
// and every spill are made of these.
class EntryRangeProducer : public RangeProducer {
 public:
  EntryRangeProducer(SortContext* ctx, std::vector<EntryRun> runs,
                     SortStats* stats)
      : ctx_(ctx),
        merger_(ctx->options->format, std::move(runs), TreeLayout::kFlat,
                nullptr, stats),
        ptrs_(MergeBatchBytes(*ctx->options) /
              ctx->options->format.record_size) {}

  Status Fill(char* out, size_t n) override {
    const SortOptions& opts = *ctx_->options;
    {
      obs::Stage stage(&ctx_->perf, "merge.batch", "cpu");
      merger_.NextBatch(ptrs_.data(), n);
    }
    {
      obs::Stage stage(&ctx_->perf, "gather.slice", "cpu");
      GatherRecords(opts.format, ptrs_.data(), n, out);
    }
    return Status::OK();
  }

 private:
  SortContext* ctx_;
  RunMerger<> merger_;
  std::vector<const char*> ptrs_;
};

// Merges the sorted entry `runs` (over resident records) into `out`: split
// into up to MergeRanges(ctx) key ranges, each merged by its own
// tournament. Reports the output CRC and, if asked, the range count.
Status MergeEntryRuns(SortContext* ctx, const std::vector<EntryRun>& runs,
                      const MergeOutput& out, uint32_t* crc,
                      size_t* num_ranges = nullptr) {
  MergePartition partition;
  {
    obs::Stage stage(&ctx->perf, "merge.partition", "cpu");
    partition =
        PartitionEntryRuns(ctx->options->format, runs, MergeRanges(ctx));
  }
  std::vector<uint64_t> range_records;
  for (const MergeRange& range : partition.ranges) {
    range_records.push_back(range.num_records);
  }
  if (num_ranges != nullptr) *num_ranges = partition.NumRanges();
  return PartitionedMerge(
      ctx, range_records,
      [ctx, &partition](size_t r, SortStats* stats)
          -> Result<std::unique_ptr<RangeProducer>> {
        return std::unique_ptr<RangeProducer>(
            new EntryRangeProducer(ctx, partition.ranges[r].runs, stats));
      },
      out, crc);
}

// Touches one page in every 4 KiB of the fresh block and entry arrays,
// one slice per worker plus the root's slice 0 (§5: "the workers sweep
// through the address space touching pages... zeroing a 1 GB address
// space takes 12 cpu seconds"; "in its spare time, the root performs
// sorting chores"), so page faults don't serialize inside the read and
// sort loops. Never called on a resident source's (read-only) buffer.
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
  auto touch_slice = [&](size_t s) {
    if (block != nullptr) touch(block, block_len, s);
    touch(entry_bytes, entry_len, s);
  };
  ChoreGroup sweep(ctx->pool);
  for (size_t s = 1; s < slices; ++s) {
    sweep.Submit([&touch_slice, s] { touch_slice(s); });
  }
  touch_slice(0);
  sweep.Wait();
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

}  // namespace

Status ReadRecords(SortContext* ctx, char* dst, uint64_t cap_records,
                   const std::function<void(uint64_t)>& on_pull,
                   uint64_t* records, bool* eof) {
  const size_t rec = ctx->options->format.record_size;
  uint64_t cap = cap_records * rec;
  if (ctx->size_known) {
    cap = std::min<uint64_t>(cap, ctx->input_bytes - ctx->bytes_read);
  }
  // Cancellation/deadline poll before the read, then once per piece.
  ALPHASORT_RETURN_IF_ERROR(CheckControl(ctx));
  size_t reported = 0;
  size_t filled = 0;
  ALPHASORT_RETURN_IF_ERROR(ctx->source->ReadInto(
      dst, cap, ctx->options->io_chunk_bytes,
      [&](size_t ready) {
        const size_t grown = ready - reported;
        reported = ready;
        ctx->bytes_read += grown;
        ProgressRead(ctx, grown);
        if (on_pull) on_pull(ready / rec);
        return CheckControl(ctx);
      },
      &filled));
  const bool ended = filled < cap;
  if (ended && ctx->size_known) {
    // The source promised TotalBytes and delivered fewer: the input was
    // truncated (or a producer lied about its size).
    return Status::Corruption(StrFormat(
        "short read at offset %llu: wanted %llu got %zu",
        static_cast<unsigned long long>(ctx->bytes_read - filled),
        static_cast<unsigned long long>(cap), filled));
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
  // A block of `cap` records is cut into at least workers + 1 runs, so the
  // workers sort while the read goes on and the root sorts only the tail.
  const uint64_t sorters = static_cast<uint64_t>(ctx->pool->num_workers()) + 1;
  auto run_length = [&opts, sorters](uint64_t cap) {
    return std::max<uint64_t>(
        1, std::min<uint64_t>(opts.run_size_records,
                              (cap + sorters - 1) / sorters));
  };
  uint64_t run_records = 0;  // the current block's run length

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
  if (ctx->size_known) {
    Prefault(ctx, block.get(), cap0 * rec, ents, cap0);
  }

  StatsSink qs_stats;
  // Builds and sorts the entries of run [start, start + len) of the block
  // at `base`.
  auto sort_run = [ctx, &opts, rec, ents, &qs_stats](
                      const char* base, uint64_t start, uint64_t len) {
    obs::Stage stage(&ctx->perf, "quicksort.run", "cpu");
    SortStats stats;
    BuildPrefixEntryArray(opts.format, base + start * rec, len, ents + start);
    SortPrefixEntryArrayWithKernel(opts.format, ents + start, len,
                                   SortKernel::kAuto, &stats);
    qs_stats.Add(stats);
    ProgressSorted(ctx, len * rec);
  };
  // The run sorts this sort dispatched; declared after what they
  // reference, so it waits for them on every way out.
  ChoreGroup run_sorts(ctx->pool);

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

  // Ingests one block of up to `cap` records, cut into runs of
  // run_length(cap): sorts every run as the read front passes it (a chore
  // per run), the tail inline, and waits for its run sorts, so the caller
  // may merge or reuse the block.
  auto ingest_block = [&](uint64_t cap, uint64_t* n, bool* at_end) {
    run_records = run_length(cap);
    uint64_t next_run = 0;
    auto dispatch_runs_below = [&](const char* data, uint64_t ready) {
      for (; ready - next_run >= run_records; next_run += run_records) {
        run_sorts.Submit([&sort_run, data, start = next_run, run_records] {
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
      run_sorts.Wait();
      return s;
    }
    if (*at_end) ctx->EnterPhase(obs::SortPhase::kLastRun);
    if (next_run < *n) sort_run(base, next_run, *n - next_run);
    run_sorts.Wait();
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
    uint32_t crc = 0;
    size_t ranges = 0;
    ALPHASORT_RETURN_IF_ERROR(MergeEntryRuns(
        ctx, BlockRuns(ents, n, run_records),
        MergeOutput{ctx->output, ProgressMerged, nullptr}, &crc, &ranges));
    ALPHASORT_RETURN_IF_ERROR(ctx->output->Truncate(ctx->input_bytes));
    ctx->metrics->merge_ranges = ranges;
    ctx->metrics->output_crc32c = crc;
    return Status::OK();
  }

  // Two passes: every block becomes one scratch run.
  ScratchSweeper sweeper(ctx);
  std::vector<ScratchRun> runs;
  Status s;
  while (s.ok() && n > 0) {
    s = WriteScratchRun(
        ctx, /*level=*/0, n,
        [&](const MergeOutput& out, uint32_t* crc) {
          return MergeEntryRuns(ctx, BlockRuns(ents, n, run_records), out,
                                crc);
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
