#include "sort/merge_partition.h"

#include <algorithm>
#include <cstring>

namespace alphasort {

namespace {

// How many splitter candidates each wanted range contributes per run.
// Oversampling keeps the quantile splitters close to the true key-space
// quantiles even when runs disagree about the distribution (skewed
// inputs), which is what bounds range imbalance.
constexpr size_t kSplitterOversample = 8;

MergePartition SingleRange(const std::vector<EntryRun>& runs,
                           uint64_t total) {
  MergePartition out;
  MergeRange all;
  all.runs = runs;
  all.first_record = 0;
  all.num_records = total;
  out.ranges.push_back(std::move(all));
  return out;
}

// Splitters at quantiles of the sorted `samples`, adjacent duplicates
// dropped, so an all-equal or heavily clustered key population collapses
// to fewer ranges instead of producing empty ones. Upper-bound searches
// then put every key equal to a splitter in the range below it, which is
// what keeps equal keys from straddling a boundary.
template <typename T, typename Equal>
std::vector<T> PickSplitters(const std::vector<T>& samples, size_t max_ranges,
                             const Equal& equal) {
  std::vector<T> splitters;
  splitters.reserve(max_ranges - 1);
  for (size_t p = 1; p < max_ranges; ++p) {
    const T& cand = samples[p * samples.size() / max_ranges];
    if (!splitters.empty() && equal(splitters.back(), cand)) continue;
    splitters.push_back(cand);
  }
  return splitters;
}

// Index of the first of `n` keys, `stride` bytes apart from `base`, that
// compares greater than `key` (`n` when none does). The keys ascend.
size_t KeyUpperBound(const char* base, size_t stride, size_t n,
                     const char* key, size_t key_size) {
  size_t lo = 0;
  size_t hi = n;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (memcmp(base + mid * stride, key, key_size) <= 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

std::vector<uint64_t> RunSlices::RangeRecords() const {
  std::vector<uint64_t> records(NumRanges(), 0);
  for (size_t r = 0; r < NumRanges(); ++r) {
    for (size_t s = 0; s < bounds[r].size(); ++s) {
      records[r] += SliceRecords(r, s);
    }
  }
  return records;
}

Status PartitionSampledRuns(const RecordFormat& format,
                            const std::vector<SampledRun>& runs,
                            size_t max_ranges, const RunRecordReader& read,
                            RunSlices* out) {
  const size_t k = runs.size();
  const size_t key_size = format.key_size;
  std::vector<uint64_t> ends(k);
  uint64_t total = 0;
  for (size_t s = 0; s < k; ++s) {
    ends[s] = runs[s].records;
    total += ends[s];
  }
  out->bounds.assign(1, std::vector<uint64_t>(k, 0));

  std::vector<const char*> samples;
  if (max_ranges > 1 && k > 1 && total > 0) {
    for (const SampledRun& run : runs) {
      for (size_t i = 0; i + key_size <= run.sample_keys.size();
           i += key_size) {
        samples.push_back(run.sample_keys.data() + i);
      }
    }
  }
  auto less = [key_size](const char* a, const char* b) {
    return memcmp(a, b, key_size) < 0;
  };
  auto equal = [key_size](const char* a, const char* b) {
    return memcmp(a, b, key_size) == 0;
  };
  std::sort(samples.begin(), samples.end(), less);

  std::vector<char> bracket;
  const std::vector<const char*> splitters =
      samples.empty() ? std::vector<const char*>()
                      : PickSplitters(samples, max_ranges, equal);
  for (const char* splitter : splitters) {
    std::vector<uint64_t> row(k);
    for (size_t s = 0; s < k; ++s) {
      const SampledRun& run = runs[s];
      const uint64_t prev = out->bounds.back()[s];
      const size_t num_samples = run.sample_keys.size() / key_size;
      // Sample i - 1 is ≤ the splitter and sample i is above it, so the
      // upper bound lies among the records strictly between them.
      const size_t i = KeyUpperBound(run.sample_keys.data(), key_size,
                                     num_samples, splitter, key_size);
      uint64_t lo = 0;
      uint64_t hi = 0;
      if (i > 0) {
        lo = std::max<uint64_t>(prev, (i - 1) * kSampleStride + 1);
        hi = i < num_samples ? std::min<uint64_t>(i * kSampleStride, ends[s])
                             : ends[s];
      }
      uint64_t bound = lo;
      if (lo < hi) {
        bracket.resize((hi - lo) * format.record_size);
        ALPHASORT_RETURN_IF_ERROR(read(s, lo, hi - lo, bracket.data()));
        bound += KeyUpperBound(format.KeyPtr(bracket.data()),
                               format.record_size, hi - lo, splitter,
                               key_size);
      }
      row[s] = std::clamp(bound, prev, ends[s]);
    }
    out->bounds.push_back(std::move(row));
  }
  out->bounds.push_back(std::move(ends));
  // The last range is empty when the largest splitter is the maximum key
  // (see PartitionEntryRuns); drop it.
  while (out->NumRanges() > 1 &&
         out->bounds[out->NumRanges() - 1] == out->bounds.back()) {
    out->bounds.erase(out->bounds.end() - 2);
  }
  return Status::OK();
}

MergePartition PartitionEntryRuns(const RecordFormat& format,
                                  const std::vector<EntryRun>& runs,
                                  size_t max_ranges) {
  uint64_t total = 0;
  for (const auto& run : runs) total += run.size();
  if (max_ranges <= 1 || runs.size() <= 1 || total == 0) {
    return SingleRange(runs, total);
  }

  const EntryKeyLess less{&format};
  auto equal = [&less](const PrefixEntry& a, const PrefixEntry& b) {
    return !less(a, b) && !less(b, a);
  };

  // Sample evenly spaced entries from every run. Each run is sorted, so
  // its samples are order statistics of that run; pooled and sorted they
  // approximate the order statistics of the whole key population.
  std::vector<PrefixEntry> samples;
  const size_t per_run = max_ranges * kSplitterOversample;
  samples.reserve(per_run * runs.size());
  for (const auto& run : runs) {
    const size_t n = run.size();
    if (n == 0) continue;
    const size_t step = std::max<size_t>(1, n / per_run);
    for (size_t i = step - 1; i < n; i += step) {
      samples.push_back(run.begin[i]);
    }
  }
  std::sort(samples.begin(), samples.end(), less);

  const std::vector<PrefixEntry> splitters =
      PickSplitters(samples, max_ranges, equal);

  // Per-run boundary cursors: bounds[s][r] is where run s's slice for
  // range r begins. Search resumes from the previous splitter's bound —
  // splitters ascend, so each run is scanned monotonically.
  const size_t num_ranges = splitters.size() + 1;
  std::vector<std::vector<const PrefixEntry*>> bounds(
      runs.size(), std::vector<const PrefixEntry*>(num_ranges + 1));
  for (size_t s = 0; s < runs.size(); ++s) {
    bounds[s][0] = runs[s].begin;
    for (size_t r = 0; r < splitters.size(); ++r) {
      bounds[s][r + 1] =
          std::upper_bound(bounds[s][r], runs[s].end, splitters[r], less);
    }
    bounds[s][num_ranges] = runs[s].end;
  }

  MergePartition out;
  out.ranges.resize(num_ranges);
  uint64_t first = 0;
  for (size_t r = 0; r < num_ranges; ++r) {
    MergeRange& range = out.ranges[r];
    range.runs.reserve(runs.size());
    uint64_t count = 0;
    for (size_t s = 0; s < runs.size(); ++s) {
      range.runs.push_back(EntryRun{bounds[s][r], bounds[s][r + 1]});
      count += range.runs.back().size();
    }
    range.first_record = first;
    range.num_records = count;
    first += count;
  }
  // Interior ranges always hold at least their sampled splitter key, but
  // the last range is empty when the largest splitter equals the maximum
  // key (all-equal inputs, clustered tails). An empty range is a no-op
  // chore — drop it so NumRanges() reflects real parallelism.
  while (out.ranges.size() > 1 && out.ranges.back().num_records == 0) {
    out.ranges.pop_back();
  }
  return out;
}

}  // namespace alphasort
