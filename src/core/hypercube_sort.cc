#include "core/hypercube_sort.h"

#include <algorithm>
#include <barrier>
#include <memory>
#include <thread>
#include <vector>

#include "common/table.h"
#include "core/pipeline_internal.h"
#include "core/sorter.h"
#include "io/stripe.h"
#include "sort/merge_partition.h"
#include "sort/merger.h"
#include "sort/quicksort.h"

namespace alphasort {

namespace {

// The sample-sort pass structure, run inside the shared RunSortPipeline
// harness. Needs the whole input resident and evenly divided up front,
// so it requires a source with a known total.
Status HypercubeBody(core_internal::SortContext* ctx,
                     const HypercubeOptions& hyper,
                     HypercubeMetrics* metrics) {
  if (!ctx->size_known) {
    return Status::InvalidArgument(
        "hypercube sort needs the input size up front; streamed sources "
        "are not supported");
  }
  const RecordFormat fmt = ctx->options->format;
  const size_t P = static_cast<size_t>(hyper.nodes);
  const uint64_t bytes = ctx->input_bytes;
  const uint64_t n = ctx->num_records;
  metrics->num_records = n;
  ctx->metrics->passes = 1;

  // --- read: in the original each node reads its own disk; here the
  // input is streamed once into shared memory and divided evenly.
  ctx->EnterPhase(obs::SortPhase::kRead);
  std::unique_ptr<char[]> records(new char[bytes]);
  {
    uint64_t got = 0;
    bool eof = false;
    ALPHASORT_RETURN_IF_ERROR(core_internal::ReadRecords(
        ctx, records.get(), n, nullptr, &got, &eof));
  }
  ctx->EnterPhase(obs::SortPhase::kMerge);
  metrics->read_s = ctx->metrics->read_phase_s;

  // Per-node state.
  std::vector<uint64_t> node_begin(P + 1);
  for (size_t i = 0; i <= P; ++i) node_begin[i] = n * i / P;
  std::unique_ptr<PrefixEntry[]> entries(new PrefixEntry[n]);
  std::vector<std::vector<PrefixEntry>> samples(P);
  std::vector<PrefixEntry> splitters;  // P-1 boundaries
  // slices[i][j] = node i's sorted sub-range destined for node j.
  std::vector<std::vector<EntryRun>> slices(P,
                                            std::vector<EntryRun>(P));
  std::vector<uint64_t> out_offset(P + 1, 0);
  std::vector<Status> node_status(P);
  std::vector<double> sort_s(P, 0), merge_s(P, 0);

  const EntryKeyLess less{&fmt};
  std::barrier barrier(static_cast<ptrdiff_t>(P));

  auto node_main = [&](size_t me) {
    PhaseTimer node_phase;
    const uint64_t lo = node_begin[me];
    const uint64_t hi = node_begin[me + 1];
    const uint64_t local_n = hi - lo;

    // Phase A: local preliminary sort + sample.
    BuildPrefixEntryArray(fmt, records.get() + lo * fmt.record_size,
                          local_n, entries.get() + lo);
    SortStats stats;
    SortPrefixEntryArray(fmt, entries.get() + lo, local_n, &stats);
    samples[me].clear();
    for (size_t s = 0; s < hyper.samples_per_node && local_n > 0; ++s) {
      // Stratified sample from the locally sorted data.
      const uint64_t idx = (2 * s + 1) * local_n /
                           (2 * hyper.samples_per_node);
      samples[me].push_back(entries[lo + std::min(idx, local_n - 1)]);
    }
    sort_s[me] = node_phase.Lap();
    barrier.arrive_and_wait();

    // Node 0 plays coordinator: gather samples, choose splitters.
    if (me == 0) {
      std::vector<PrefixEntry> all;
      for (const auto& s : samples) all.insert(all.end(), s.begin(), s.end());
      std::sort(all.begin(), all.end(), less);
      splitters.clear();
      for (size_t j = 1; j < P; ++j) {
        if (!all.empty()) {
          splitters.push_back(all[j * all.size() / P]);
        }
      }
    }
    barrier.arrive_and_wait();

    // Phase B: partition the local sorted run by the splitters (binary
    // search — the "send to target partitions" step; here the transfer
    // is the EntryRun view).
    {
      const PrefixEntry* begin = entries.get() + lo;
      const PrefixEntry* end = begin + local_n;
      const PrefixEntry* cursor = begin;
      for (size_t j = 0; j < P; ++j) {
        const PrefixEntry* stop =
            (j + 1 < P && j < splitters.size())
                ? std::lower_bound(cursor, end, splitters[j], less)
                : end;
        slices[me][j] = EntryRun{cursor, stop};
        cursor = stop;
      }
    }
    barrier.arrive_and_wait();

    // Node 0 sizes the output partitions.
    if (me == 0) {
      for (size_t j = 0; j < P; ++j) {
        uint64_t total = 0;
        for (size_t i = 0; i < P; ++i) total += slices[i][j].size();
        out_offset[j + 1] = out_offset[j] + total;
        metrics->max_skew =
            std::max(metrics->max_skew,
                     static_cast<double>(total) * P / std::max<uint64_t>(n, 1));
      }
      metrics->split_exchange_s = node_phase.Lap();
    }
    barrier.arrive_and_wait();
    node_phase.Lap();  // restart for the merge phase

    // Phase C: merge my incoming streams, gather, write my partition.
    {
      std::vector<EntryRun> incoming;
      for (size_t i = 0; i < P; ++i) {
        if (slices[i][me].size() > 0) incoming.push_back(slices[i][me]);
      }
      RunMerger<> merger(fmt, incoming);
      const uint64_t my_records = out_offset[me + 1] - out_offset[me];
      std::vector<char> out_buf(my_records * fmt.record_size);
      std::vector<const char*> ptrs(my_records);
      const size_t got = merger.NextBatch(ptrs.data(), my_records);
      if (got != my_records) {
        node_status[me] = Status::Corruption("partition lost records");
        return;
      }
      GatherRecords(fmt, ptrs.data(), got, out_buf.data());
      if (my_records > 0) {
        node_status[me] = ctx->output->Write(
            out_offset[me] * fmt.record_size, out_buf.data(),
            out_buf.size());
        core_internal::ProgressMerged(ctx, out_buf.size());
      }
    }
    merge_s[me] = node_phase.Lap();
  };

  std::vector<std::thread> threads;
  threads.reserve(P);
  for (size_t i = 0; i < P; ++i) threads.emplace_back(node_main, i);
  for (auto& t : threads) t.join();
  for (const Status& s : node_status) ALPHASORT_RETURN_IF_ERROR(s);

  metrics->local_sort_s = *std::max_element(sort_s.begin(), sort_s.end());
  metrics->merge_write_s =
      *std::max_element(merge_s.begin(), merge_s.end());

  return ctx->output->Truncate(bytes);
}

}  // namespace

Status HypercubeSort::Run(Env* env, const SortOptions& options,
                          const HypercubeOptions& hyper,
                          HypercubeMetrics* metrics) {
  HypercubeMetrics local_metrics;
  if (metrics == nullptr) metrics = &local_metrics;
  *metrics = HypercubeMetrics();
  if (hyper.nodes <= 0) {
    return Status::InvalidArgument("nodes must be positive");
  }

  // Thin shim: the sample-sort body inside the one shared pipeline
  // harness, via a transient Sorter. RunTransientJob waits for the job,
  // so `metrics` outlives the body's use of it.
  HypercubeMetrics* out = metrics;
  auto body = [out, hyper](core_internal::SortContext* ctx) {
    return HypercubeBody(ctx, hyper, out);
  };
  Status s = core_internal::RunTransientJob(env, options, body,
                                            &metrics->sort);
  if (s.ok()) metrics->total_s = metrics->sort.total_s;
  return s;
}

}  // namespace alphasort
