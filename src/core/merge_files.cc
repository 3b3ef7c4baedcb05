#include "core/merge_files.h"

#include <algorithm>
#include <memory>

#include "common/table.h"
#include "core/run_reader.h"
#include "io/async_io.h"
#include "io/buffered_writer.h"
#include "io/stripe.h"
#include "sort/quicksort.h"
#include "sort/tournament_tree.h"

namespace alphasort {

Status MergeSortedFiles(Env* env, const std::vector<std::string>& inputs,
                        const std::string& output,
                        const SortOptions& options, SortMetrics* metrics) {
  SortMetrics local_metrics;
  if (metrics == nullptr) metrics = &local_metrics;
  *metrics = SortMetrics();
  if (!options.format.Valid()) {
    return Status::InvalidArgument("invalid record format");
  }
  const RecordFormat fmt = options.format;
  PhaseTimer total_timer;

  AsyncIO aio(options.io_threads);
  const size_t k = inputs.size();

  // Open every input and size it.
  std::vector<std::unique_ptr<StripeFile>> files(k);
  std::vector<std::unique_ptr<RunReader>> readers(k);
  const size_t buffer_records =
      std::max<size_t>(1, options.io_chunk_bytes / fmt.record_size);
  uint64_t total_bytes = 0;
  for (size_t r = 0; r < k; ++r) {
    Result<std::unique_ptr<StripeFile>> f =
        StripeFile::Open(env, inputs[r], OpenMode::kReadOnly, &aio);
    ALPHASORT_RETURN_IF_ERROR(f.status());
    files[r] = std::move(f).value();
    Result<uint64_t> size = files[r]->Size();
    ALPHASORT_RETURN_IF_ERROR(size.status());
    if (size.value() % fmt.record_size != 0) {
      return Status::InvalidArgument(inputs[r] +
                                     ": size not a multiple of records");
    }
    total_bytes += size.value();
    readers[r] = std::make_unique<RunReader>(files[r].get(), size.value(),
                                             fmt, buffer_records, &aio);
    ALPHASORT_RETURN_IF_ERROR(readers[r]->Init());
  }

  Result<std::unique_ptr<StripeFile>> out =
      StripeFile::Open(env, output, OpenMode::kCreateReadWrite, &aio);
  ALPHASORT_RETURN_IF_ERROR(out.status());
  metrics->bytes_in = total_bytes;
  metrics->num_records = total_bytes / fmt.record_size;
  metrics->num_runs = k;
  metrics->passes = 1;

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
      k == 0 ? 1 : k, ItemLess{fmt, &metrics->merge_stats});
  for (size_t r = 0; r < k; ++r) {
    if (const char* rec = readers[r]->Current()) {
      tree.SetLeaf(r, Item{fmt.KeyPrefix(rec), rec});
    }
  }
  tree.Rebuild();

  BufferedWriter writer(out.value().get(), &aio, options.io_chunk_bytes);
  // Detect unsorted inputs: a tournament over sorted runs emits a
  // nondecreasing stream, and any in-run order violation surfaces as a
  // decrease on the very next emission.
  std::string prev_key;
  uint64_t emitted = 0;
  while (!tree.Empty()) {
    const size_t r = tree.WinnerStream();
    const char* rec = tree.WinnerItem().record;
    if (emitted > 0 &&
        memcmp(prev_key.data(), fmt.KeyPtr(rec), fmt.key_size) > 0) {
      writer.Abort();
      return Status::Corruption(StrFormat(
          "input is not sorted (order violation at output record %llu)",
          static_cast<unsigned long long>(emitted)));
    }
    prev_key.assign(fmt.KeyPtr(rec), fmt.key_size);
    ALPHASORT_RETURN_IF_ERROR(writer.Append(rec, fmt.record_size));
    ++emitted;
    ALPHASORT_RETURN_IF_ERROR(readers[r]->Advance());
    if (const char* next = readers[r]->Current()) {
      tree.ReplaceWinner(Item{fmt.KeyPrefix(next), next});
    } else {
      tree.ExhaustWinner();
    }
  }
  ALPHASORT_RETURN_IF_ERROR(writer.Finish());
  ALPHASORT_RETURN_IF_ERROR(out.value()->Truncate(total_bytes));
  for (auto& f : files) ALPHASORT_RETURN_IF_ERROR(f->Close());
  ALPHASORT_RETURN_IF_ERROR(out.value()->Close());
  metrics->bytes_out = total_bytes;
  metrics->total_s = total_timer.Lap();
  return Status::OK();
}

}  // namespace alphasort
