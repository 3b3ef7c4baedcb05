#include "core/vms_sort.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "common/table.h"
#include "core/chores.h"
#include "core/pipeline_internal.h"
#include "core/sorter.h"
#include "io/buffered_writer.h"
#include "io/stripe.h"
#include "sort/merge_partition.h"
#include "sort/replacement_selection.h"

namespace alphasort {

namespace {

using core_internal::ScratchRun;
using core_internal::ScratchRunPath;

// Streams the input through a replacement-selection tournament. When the
// tournament holds the whole input (the paper's memory-rich single-disk
// configuration) the single run streams directly to the output —
// `*direct_to_output` reports that, and no scratch is written. Otherwise
// each run spills to its own scratch file for the merge pass. Sources
// with unknown totals always spill (direct output needs the record count
// up front) and fill ctx->input_bytes/num_records at end of input.
Status GenerateRuns(core_internal::SortContext* ctx,
                    std::vector<ScratchRun>* runs,
                    bool* direct_to_output) {
  const SortOptions& opts = *ctx->options;
  const RecordFormat& fmt = opts.format;
  const size_t r = fmt.record_size;

  // Tournament of W records plus one spare slot the incoming record lands
  // in; emitting a winner frees its slot, which becomes the next spare.
  uint64_t cap = std::max<uint64_t>(16, opts.memory_budget / (2 * r));
  if (ctx->size_known) {
    cap = std::max<uint64_t>(
        16, std::min<uint64_t>(
                cap, ctx->num_records == 0 ? 16 : ctx->num_records));
  }
  const size_t capacity = static_cast<size_t>(cap);
  *direct_to_output = ctx->size_known && capacity >= ctx->num_records;
  std::vector<char> workspace((capacity + 1) * r);

  // Sink state: an output ring per run; its running CRC becomes the
  // scratch run's checksum, verified when the merge reads the run back.
  // Every kSampleStride-th record's key is sampled, as for every other
  // scratch run, so the merge can partition the runs into key ranges.
  Status sink_error;
  std::unique_ptr<File> run_file;
  std::unique_ptr<BufferedWriter> writer;
  size_t current_run = static_cast<size_t>(-1);
  uint64_t run_records = 0;
  size_t spare_slot = capacity;  // last workspace slot starts free

  const bool direct = *direct_to_output;
  auto close_current = [&]() -> Status {
    if (writer == nullptr) return Status::OK();
    Status s = writer->Finish();
    const uint64_t bytes = writer->bytes_written();
    const uint32_t crc = writer->crc32c();
    writer.reset();
    ALPHASORT_RETURN_IF_ERROR(s);
    if (!direct) {
      Status close_status = run_file->Close();
      run_file.reset();
      ALPHASORT_RETURN_IF_ERROR(close_status);
      runs->back().bytes = bytes;
      runs->back().crc32c = crc;
      ctx->metrics->scratch_bytes_written += bytes;
      core_internal::ProgressSpilled(ctx, bytes);
    }
    return Status::OK();
  };

  auto sink = [&](size_t run, const char* record) {
    if (!sink_error.ok()) return;
    if (run != current_run) {
      Status s = close_current();
      if (!s.ok()) {
        sink_error = s;
        return;
      }
      current_run = run;
      if (direct) {
        // The whole input fits the tournament: exactly one run, written
        // straight to the output (the paper's memory-rich OpenVMS sort).
        writer = std::make_unique<BufferedWriter>(
            ctx->output, ctx->aio, opts.io_chunk_bytes, opts.write_buffers);
      } else {
        const std::string path = ScratchRunPath(opts, 0, run);
        Result<std::unique_ptr<File>> f = core_internal::OpenScratchRun(
            ctx, path, OpenMode::kCreateReadWrite);
        if (!f.ok()) {
          sink_error = f.status();
          return;
        }
        run_file = std::move(f).value();
        runs->push_back(ScratchRun{path, 0, 0, {}});
        writer = std::make_unique<BufferedWriter>(
            run_file.get(), ctx->aio, opts.io_chunk_bytes,
            opts.write_buffers);
        run_records = 0;
      }
    }
    Status s = writer->Append(record, fmt.record_size);
    if (!s.ok()) {
      sink_error = s;
      return;
    }
    if (!direct && run_records++ % kSampleStride == 0) {
      runs->back().sample_keys.append(fmt.KeyPtr(record), fmt.key_size);
    }
    // The emitted record's slot is free for the next arrival. Safe
    // because the tournament's "below last output?" check dereferences
    // the emitted record only within the same Add() call that frees it —
    // the slot is overwritten no earlier than the next Add().
    spare_slot =
        static_cast<size_t>(record - workspace.data()) / fmt.record_size;
  };

  ReplacementSelection<NullTracer> rs(fmt, capacity, sink,
                                      TreeLayout::kFlat, nullptr,
                                      &ctx->metrics->quicksort_stats);

  // Chunked streaming read of the input: pull until the source ends.
  const uint64_t chunk_records =
      std::max<uint64_t>(1, opts.io_chunk_bytes / r);
  std::vector<char> read_buf(chunk_records * r);
  uint64_t filled = 0;  // slots used during the initial fill
  for (bool eof = false; !eof;) {
    uint64_t got = 0;
    ALPHASORT_RETURN_IF_ERROR(core_internal::ReadRecords(
        ctx, read_buf.data(), chunk_records, nullptr, &got, &eof));
    for (uint64_t i = 0; i < got; ++i) {
      char* slot;
      if (filled < capacity) {
        slot = workspace.data() + filled * r;
        ++filled;
      } else {
        slot = workspace.data() + spare_slot * r;
      }
      memcpy(slot, read_buf.data() + i * r, r);
      rs.Add(slot);
      ALPHASORT_RETURN_IF_ERROR(sink_error);
    }
  }
  if (!ctx->size_known) {
    ctx->num_records = ctx->bytes_read / r;
    ctx->input_bytes = ctx->num_records * r;
  }
  rs.Finish();
  ALPHASORT_RETURN_IF_ERROR(sink_error);
  return close_current();
}

// The replacement-selection pass structure, run inside the shared
// RunSortPipeline harness (which owns validation, env wrapping, file
// opens, metrics, and observability).
Status VmsBody(core_internal::SortContext* ctx) {
  core_internal::ScratchSweeper sweeper(ctx);
  ctx->metrics->passes = 2;

  ctx->EnterPhase(obs::SortPhase::kRead);
  std::vector<ScratchRun> runs;
  bool direct_to_output = false;
  Status s = GenerateRuns(ctx, &runs, &direct_to_output);
  ctx->metrics->num_runs =
      direct_to_output ? (ctx->num_records > 0 ? 1 : 0) : runs.size();
  if (!s.ok()) return s;  // the sweeper removes spilled runs

  if (direct_to_output) {
    // The single run already streamed to the output: one pass, no merge.
    ctx->metrics->passes = 1;
    ctx->EnterPhase(obs::SortPhase::kMerge);
    return ctx->output->Truncate(ctx->input_bytes);
  }
  if (ctx->progress != nullptr) {
    // Totals are final now (a streamed input has fully arrived); replace
    // the harness's estimate with the real two-pass plan.
    ctx->progress->SetPlan(ctx->input_bytes, 2);
  }
  ctx->EnterPhase(obs::SortPhase::kMerge);
  return core_internal::MergeScratchRuns(ctx, std::move(runs));
}

}  // namespace

Status VmsSort::Run(Env* env, const SortOptions& options,
                    SortMetrics* metrics) {
  // Thin shim: the replacement-selection body inside the one shared
  // pipeline harness, via a transient Sorter.
  return core_internal::RunTransientJob(env, options, VmsBody, metrics);
}

}  // namespace alphasort
