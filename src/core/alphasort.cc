#include "core/alphasort.h"

#include <optional>

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

Status RunSortPipeline(Env* env, const SortOptions& options, AsyncIO* aio,
                       ChorePool* pool, const SortControl* control,
                       SortMetrics* metrics, uint64_t job_id,
                       obs::JobProgressTracker* progress,
                       const PipelineBody& body) {
  ALPHASORT_RETURN_IF_ERROR(options.Validate());
  SortMetrics local_metrics;
  if (metrics == nullptr) metrics = &local_metrics;
  *metrics = SortMetrics();

  PhaseTimer total_timer;
  PhaseTimer phase;
  obs::TraceSpan run_span("sort.run");

  // Observability brackets. The registry snapshot scopes the process
  // global counters to this run (back-to-back sorts each report their
  // own delta); the perf accumulator collects hardware counters from
  // every ScopedPerfRegion the pipeline enters. TryInstall can lose to
  // a concurrent sort in the same process — that sort keeps collecting,
  // this one reports attempted=false. Declaration order matters:
  // total_perf must die before perf_acc, and perf_acc's destructor
  // uninstalls itself so the early error returns below cannot leave a
  // dangling global.
  obs::RegistrySnapshot registry_before;
  if (options.collect_registry_delta) {
    registry_before = obs::MetricsRegistry::Global()->Snapshot();
  }
  std::optional<obs::PerfAccumulator> perf_acc;
  if (options.collect_perf_counters) {
    perf_acc.emplace();
    if (!perf_acc->TryInstall()) perf_acc.reset();
  }
  std::optional<obs::ScopedPerfRegion> total_perf;
  if (perf_acc) total_perf.emplace("total");
  auto finish_observability = [&] {
    total_perf.reset();
    if (perf_acc) {
      perf_acc->Uninstall();
      metrics->perf.attempted = true;
      metrics->perf.regions = perf_acc->Regions();
    }
    if (options.collect_registry_delta) {
      metrics->registry_delta =
          obs::MetricsRegistry::Global()->Snapshot().DeltaSince(
              registry_before);
    }
  };

  // Env wrapping per the canonical EnvStack order: metrics above the
  // caller's env so every physical attempt is timed individually, retry
  // on top so each re-attempt passes back through metrics.
  EnvStack stack(env);
  if (options.collect_io_metrics) stack.PushMetrics();
  if (options.retry_policy.enabled()) stack.PushRetry(options.retry_policy);
  env = stack.top();
  // Every exit from here on reports the retry counters, the IO-latency
  // summaries and the observability brackets, success or not.
  auto finish = [&](Status status) {
    metrics->total_s = total_timer.Lap();
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
    finish_observability();
    return status;
  };

  // Build and open the input source, and create the output, members in
  // parallel (§6). `input_path` is sugar for a FileRecordSource shaped by
  // the options' IO knobs; the factory covers everything else (mmap,
  // memory, generated, live streams).
  std::optional<obs::TraceSpan> startup_span;
  startup_span.emplace("sort.startup");
  std::shared_ptr<RecordSource> source;
  if (options.source) {
    source = options.source();
    if (source == nullptr) {
      return finish(
          Status::InvalidArgument("source factory returned nullptr"));
    }
  } else {
    source = std::make_shared<FileRecordSource>(
        options.input_path, options.io_chunk_bytes, options.io_depth);
  }
  if (Status s = source->Open(env, aio); !s.ok()) return finish(s);
  Result<std::unique_ptr<StripeFile>> output = StripeFile::Open(
      env, options.output_path, OpenMode::kCreateReadWrite, aio);
  if (!output.ok()) {
    source->Close();
    return finish(output.status());
  }

  core_internal::SortContext ctx;
  ctx.env = env;
  ctx.options = &options;
  ctx.metrics = metrics;
  ctx.aio = aio;
  ctx.pool = pool;
  ctx.source = source.get();
  ctx.output = output.value().get();
  ctx.control = control;
  ctx.job_id = job_id;
  // The ambient trace id was established by the caller (ExecuteJob's
  // ScopedTraceId); capture it so chore lambdas can re-establish it on
  // whichever worker thread picks them up.
  ctx.trace_id = obs::CurrentTraceId();
  ctx.progress = progress;

  uint64_t total = 0;
  ctx.size_known = source->TotalBytes(&total);
  if (ctx.size_known) {
    if (total % options.format.record_size != 0) {
      source->Close();
      output.value()->Close();
      return finish(Status::InvalidArgument(StrFormat(
          "input size %llu is not a multiple of the record size %zu",
          static_cast<unsigned long long>(total),
          options.format.record_size)));
    }
    ctx.input_bytes = total;
    ctx.num_records = total / options.format.record_size;
  }

  metrics->bytes_in = ctx.input_bytes;
  metrics->num_records = ctx.num_records;
  metrics->startup_s = phase.Lap();
  startup_span.reset();

  // One pass if the records plus their entries fit in the budget (§6:
  // "the Datamation sort benchmark should be done in one pass"). The plan
  // only sizes the first ingest block: the whole input for one pass, a
  // spill block for two. Sources with unknown totals (live streams) start
  // optimistic with the full budget and spill only if the stream outgrows
  // it; RunPasses sets the real plan at end of input.
  if (ctx.size_known) {
    const uint64_t entry_bytes =
        ctx.num_records * SortOptions::kEntryOverheadBytes;
    const bool fits = ctx.input_bytes + entry_bytes <= options.memory_budget;
    const bool one_pass =
        options.force_passes == 1 || (options.force_passes == 0 && fits);
    metrics->passes = one_pass ? 1 : 2;
    ctx.first_block_records =
        one_pass ? ctx.num_records
                 : std::min(ctx.num_records, SpillBlockRecords(options));
    if (progress != nullptr) {
      progress->SetPlan(ctx.input_bytes, metrics->passes);
    }
  } else {
    ctx.first_block_records = std::max<uint64_t>(
        options.run_size_records,
        options.memory_budget /
            (options.format.record_size + SortOptions::kEntryOverheadBytes));
    if (progress != nullptr) progress->SetPlanUnknown(/*passes_hint=*/1);
  }
  ALPHASORT_LOG(kDebug, "sort.plan")
      .Str("source", source->name())
      .U64("bytes", ctx.input_bytes)
      .U64("records", ctx.num_records)
      .I64("passes", metrics->passes);

  Status status = CheckControl(&ctx);
  if (status.ok()) status = body ? body(&ctx) : RunPasses(&ctx);
  // Custom bodies and streamed inputs discover (or refine) the input
  // shape themselves; re-read it from the context either way.
  metrics->bytes_in = ctx.input_bytes;
  metrics->num_records = ctx.num_records;

  // Close both ends whatever happened; the first error wins.
  phase.Lap();
  if (status.ok()) ProgressPhase(&ctx, obs::SortPhase::kClose);
  {
    obs::TraceSpan close_span("sort.close");
    Status source_closed = source->Close();
    Status output_closed = output.value()->Close();
    if (status.ok()) status = source_closed;
    if (status.ok()) status = output_closed;
  }
  metrics->close_s = phase.Lap();
  if (status.ok()) metrics->bytes_out = ctx.input_bytes;
  return finish(status);
}

}  // namespace core_internal

Status AlphaSort::Run(Env* env, const SortOptions& options,
                      SortMetrics* metrics) {
  // Thin wrapper over the instance API: one transient Sorter sized from
  // the options, one job, wait. New code should hold a Sorter (or a
  // svc::SortService) and Start() jobs against it.
  Sorter::Resources resources;
  resources.num_workers = options.num_workers;
  resources.io_threads = options.io_threads;
  resources.use_affinity = options.use_affinity;
  Sorter sorter(env, resources);
  SortJob job = sorter.Start(options);
  const SortResult& result = job.Wait();
  if (metrics != nullptr) *metrics = result.metrics;
  return result.status;
}

}  // namespace alphasort
