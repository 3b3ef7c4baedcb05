#include "core/alphasort.h"

#include "common/table.h"
#include "core/pipeline_internal.h"
#include "core/sorter.h"
#include "io/env_stack.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/metrics_env.h"
#include "obs/perf_counters.h"
#include "obs/trace.h"

namespace alphasort {

namespace {

// Summarizes one direction of a MetricsEnv snapshot into the plain
// percentile struct SortMetrics carries.
IoLatencyStats Summarize(uint64_t ops, uint64_t bytes,
                         const obs::HistogramSnapshot& latency_us) {
  IoLatencyStats out;
  out.ops = ops;
  out.bytes = bytes;
  out.p50_us = latency_us.Percentile(50);
  out.p95_us = latency_us.Percentile(95);
  out.p99_us = latency_us.Percentile(99);
  out.max_us = double(latency_us.max);
  return out;
}

}  // namespace

namespace core_internal {

namespace {

// The SortMetrics lap and the stage each phase of the clock owns; null
// for the phases outside a sort's run (queued, done, failed).
struct PhaseSlot {
  double SortMetrics::*lap;
  const char* stage;
};

PhaseSlot SlotOf(obs::SortPhase phase) {
  switch (phase) {
    case obs::SortPhase::kStartup:
      return {&SortMetrics::startup_s, "sort.startup"};
    case obs::SortPhase::kRead:
      return {&SortMetrics::read_phase_s, "sort.read_phase"};
    case obs::SortPhase::kLastRun:
      return {&SortMetrics::last_run_s, "sort.last_run"};
    case obs::SortPhase::kMerge:
      return {&SortMetrics::merge_phase_s, "sort.merge_phase"};
    case obs::SortPhase::kClose:
      return {&SortMetrics::close_s, "sort.close"};
    default:
      return {nullptr, nullptr};
  }
}

// Startup, the pass body and close: builds and opens the source, creates
// the output, plans the passes, runs `body` (RunPasses when empty) and
// closes both ends whatever happened, returning the first error.
Status OpenRunClose(SortContext* ctx, const PipelineBody& body) {
  const SortOptions& options = *ctx->options;
  SortMetrics* metrics = ctx->metrics;
  ctx->EnterPhase(obs::SortPhase::kStartup);

  // Build and open the input source, and create the output, members in
  // parallel (§6). `input_path` is sugar for a FileRecordSource shaped by
  // the options' IO knobs; the factory covers everything else (mmap,
  // memory, generated, live streams).
  std::shared_ptr<RecordSource> source;
  if (options.source) {
    source = options.source();
    if (source == nullptr) {
      return Status::InvalidArgument("source factory returned nullptr");
    }
  } else {
    source = std::make_shared<FileRecordSource>(
        options.input_path, options.io_chunk_bytes, options.io_depth);
  }
  ALPHASORT_RETURN_IF_ERROR(source->Open(ctx->env, ctx->aio));
  Result<std::unique_ptr<StripeFile>> output = StripeFile::Open(
      ctx->env, options.output_path, OpenMode::kCreateReadWrite, ctx->aio);
  if (!output.ok()) {
    source->Close();
    return output.status();
  }
  ctx->source = source.get();
  ctx->output = output.value().get();

  uint64_t total = 0;
  ctx->size_known = source->TotalBytes(&total);
  if (ctx->size_known) {
    if (total % options.format.record_size != 0) {
      source->Close();
      output.value()->Close();
      return Status::InvalidArgument(StrFormat(
          "input size %llu is not a multiple of the record size %zu",
          static_cast<unsigned long long>(total),
          options.format.record_size));
    }
    ctx->input_bytes = total;
    ctx->num_records = total / options.format.record_size;
  }
  metrics->bytes_in = ctx->input_bytes;
  metrics->num_records = ctx->num_records;

  // One pass if the records plus their entries fit in the budget (§6:
  // "the Datamation sort benchmark should be done in one pass"). The plan
  // only sizes the first ingest block: the whole input for one pass, a
  // spill block for two. Sources with unknown totals (live streams) start
  // optimistic with the full budget and spill only if the stream outgrows
  // it; RunPasses sets the real plan at end of input.
  if (ctx->size_known) {
    const uint64_t entry_bytes =
        ctx->num_records * SortOptions::kEntryOverheadBytes;
    const bool fits = ctx->input_bytes + entry_bytes <= options.memory_budget;
    const bool one_pass =
        options.force_passes == 1 || (options.force_passes == 0 && fits);
    metrics->passes = one_pass ? 1 : 2;
    ctx->first_block_records =
        one_pass ? ctx->num_records
                 : std::min(ctx->num_records, SpillBlockRecords(options));
    if (ctx->progress != nullptr) {
      ctx->progress->SetPlan(ctx->input_bytes, metrics->passes);
    }
  } else {
    ctx->first_block_records = std::max<uint64_t>(
        options.run_size_records,
        options.memory_budget /
            (options.format.record_size + SortOptions::kEntryOverheadBytes));
    if (ctx->progress != nullptr) {
      ctx->progress->SetPlanUnknown(/*passes_hint=*/1);
    }
  }
  ALPHASORT_LOG(kDebug, "sort.plan")
      .Str("source", source->name())
      .U64("bytes", ctx->input_bytes)
      .U64("records", ctx->num_records)
      .I64("passes", metrics->passes);

  Status status = CheckControl(ctx);
  if (status.ok()) status = body ? body(ctx) : RunPasses(ctx);
  // Custom bodies and streamed inputs discover (or refine) the input
  // shape themselves; re-read it from the context either way.
  metrics->bytes_in = ctx->input_bytes;
  metrics->num_records = ctx->num_records;

  // Close both ends whatever happened; the first error wins.
  ctx->EnterPhase(obs::SortPhase::kClose);
  Status source_closed = source->Close();
  Status output_closed = output.value()->Close();
  if (status.ok()) status = source_closed;
  if (status.ok()) status = output_closed;
  if (status.ok()) metrics->bytes_out = ctx->input_bytes;
  return status;
}

}  // namespace

void SortContext::EnterPhase(obs::SortPhase next) {
  const double lap = phase_timer_.Lap();
  if (double SortMetrics::*field = SlotOf(phase_).lap) metrics->*field += lap;
  phase_stage_.reset();
  phase_ = next;
  if (const char* stage = SlotOf(next).stage) {
    phase_stage_.emplace(&perf, stage);
  }
  if (progress != nullptr && next != obs::SortPhase::kDone) {
    progress->SetPhase(next);
  }
}

Status RunInHarness(Env* env, const SortOptions& options, AsyncIO* aio,
                    ChorePool* pool, const SortControl* control,
                    SortMetrics* metrics, uint64_t job_id,
                    obs::JobProgressTracker* progress,
                    const PipelineBody& run) {
  SortMetrics local_metrics;
  if (metrics == nullptr) metrics = &local_metrics;
  *metrics = SortMetrics();

  // The registry snapshot scopes the process-global counters to this
  // run: back-to-back sorts each report their own delta.
  const obs::RegistrySnapshot registry_before =
      obs::MetricsRegistry::Global()->Snapshot();

  // Env wrapping per the canonical EnvStack order: metrics above the
  // caller's env so every physical attempt is timed individually, retry
  // on top so each re-attempt passes back through metrics.
  EnvStack stack(env);
  stack.PushMetrics();
  if (options.retry_policy.enabled()) stack.PushRetry(options.retry_policy);

  SortContext ctx;
  ctx.env = stack.top();
  ctx.options = &options;
  ctx.metrics = metrics;
  ctx.aio = aio;
  ctx.pool = pool;
  ctx.control = control;
  ctx.job_id = job_id;
  // The ambient trace id was established by the caller (ExecuteJob's
  // ScopedTraceId); capture it so chore lambdas can re-establish it on
  // whichever worker thread picks them up.
  ctx.trace_id = obs::CurrentTraceId();
  ctx.progress = progress;

  Status status;
  {
    obs::Stage run_stage(&ctx.perf, "sort.run");
    // Started and read right beside the phase clock's first and last
    // laps, so total_s and PhaseSum() cover the same interval.
    PhaseTimer total_timer;
    status = run(&ctx);
    ctx.EnterPhase(obs::SortPhase::kDone);
    metrics->total_s = total_timer.Lap();
  }
  // Every exit reports the retry counters, the IO-latency summaries and
  // the observability brackets, success or not.
  if (stack.retry() != nullptr) {
    const RetryStats rs = stack.retry()->stats();
    metrics->io_retries = rs.retries;
    metrics->io_retries_recovered = rs.ops_recovered;
    metrics->io_retries_exhausted = rs.ops_exhausted;
  }
  if (stack.metrics() != nullptr) {
    const obs::IoModeSnapshot io = stack.metrics()->Snapshot().Total();
    metrics->read_io = Summarize(io.reads, io.read_bytes,
                                 io.read_latency_us);
    metrics->write_io = Summarize(io.writes, io.write_bytes,
                                  io.write_latency_us);
  }
  metrics->perf.attempted = true;
  metrics->perf.regions = ctx.perf.Regions();
  metrics->registry_delta =
      obs::MetricsRegistry::Global()->Snapshot().DeltaSince(registry_before);
  return status;
}

Status RunSortPipeline(Env* env, const SortOptions& options, AsyncIO* aio,
                       ChorePool* pool, const SortControl* control,
                       SortMetrics* metrics, uint64_t job_id,
                       obs::JobProgressTracker* progress,
                       const PipelineBody& body) {
  ALPHASORT_RETURN_IF_ERROR(options.Validate());
  return RunInHarness(
      env, options, aio, pool, control, metrics, job_id, progress,
      [&body](SortContext* ctx) { return OpenRunClose(ctx, body); });
}

}  // namespace core_internal

Status AlphaSort::Run(Env* env, const SortOptions& options,
                      SortMetrics* metrics) {
  // Thin wrapper over the instance API: one transient Sorter, one job.
  // New code should hold a Sorter (or a svc::SortService) and Start()
  // jobs against it.
  return core_internal::RunTransientJob(env, options, nullptr, metrics);
}

}  // namespace alphasort
