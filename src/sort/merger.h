#ifndef ALPHASORT_SORT_MERGER_H_
#define ALPHASORT_SORT_MERGER_H_

#include <cstddef>
#include <type_traits>
#include <vector>

#include "common/prefetch.h"
#include "common/tracer.h"
#include "record/record.h"
#include "sort/entry.h"
#include "sort/quicksort.h"
#include "sort/tournament_tree.h"

namespace alphasort {

// A sorted run of (key-prefix, pointer) entries, as produced by the
// QuickSort phase. The entries reference records that stay where they were
// read into memory; records are only copied once, by the gather step.
struct EntryRun {
  const PrefixEntry* begin = nullptr;
  const PrefixEntry* end = nullptr;

  size_t size() const { return static_cast<size_t>(end - begin); }
};

// Key order over prefix entries that counts into `stats`: prefix first,
// full record keys on prefix ties (the paper's "examine the full keys in
// the records"). The order of every merge tournament: RunMerger's over
// entry runs and the scratch merge's over RunReaders. The tournament
// compares prefixes itself (Key) and calls Compare only on a prefix tie.
// A tie-break's two key reads are reported to `tracer`; with NullTracer
// they compile away and `tracer` may be null.
template <typename Tracer = NullTracer>
struct CountingEntryLess {
  RecordFormat format;
  SortStats* stats;
  Tracer* tracer = nullptr;

  static uint64_t Key(const PrefixEntry& e) { return e.prefix; }

  // Three-way order of two entries with equal prefixes.
  int Compare(const PrefixEntry& a, const PrefixEntry& b) const {
    if (format.key_size <= 8) return 0;
    ++stats->tie_breaks;
    if constexpr (!std::is_same_v<Tracer, NullTracer>) {
      Mem<Tracer> mem(tracer);
      mem.TouchRead(format.KeyPtr(a.record), format.key_size);
      mem.TouchRead(format.KeyPtr(b.record), format.key_size);
    }
    return format.CompareKeys(a.record, b.record);
  }

  void CountCompares(uint64_t n) const { stats->compares += n; }
};

// Merges K sorted runs of prefix entries with a loser tree, emitting the
// globally ordered stream of record pointers (paper §4/§7: "the merge
// results in a stream of in-order record pointers"). Compares resolve on
// the prefix; ties "examine the full keys in the records".
template <typename Tracer = NullTracer>
class RunMerger {
 public:
  // `tracer` may be null only when Tracer is default-constructible (a
  // default-constructed instance is used then).
  RunMerger(const RecordFormat& format, std::vector<EntryRun> runs,
            TreeLayout layout = TreeLayout::kFlat, Tracer* tracer = nullptr,
            SortStats* stats = nullptr)
      : runs_(std::move(runs)),
        cursors_(runs_.size()),
        stats_(stats != nullptr ? stats : &local_stats_),
        tree_(runs_.empty() ? 1 : runs_.size(),
              CountingEntryLess<Tracer>{
                  format, stats_,
                  tracer != nullptr ? tracer : &default_tracer_},
              layout, tracer != nullptr ? tracer : &default_tracer_) {
    for (size_t s = 0; s < runs_.size(); ++s) {
      cursors_[s] = runs_[s].begin;
      if (cursors_[s] != runs_[s].end) {
        tree_.SetLeaf(s, *cursors_[s]++);
      }
    }
    tree_.Rebuild();
  }

  bool Done() const { return tree_.Empty(); }

  // Next record pointer in global key order. Requires !Done().
  const char* Next() {
    const PrefixEntry win = tree_.WinnerItem();
    const size_t s = tree_.WinnerStream();
    if (cursors_[s] != runs_[s].end) {
      tree_.ReplaceWinner(*cursors_[s]++);
    } else {
      tree_.ExhaustWinner();
    }
    return win.record;
  }

  // Drains up to `max` pointers into `out`; returns the count produced.
  size_t NextBatch(const char** out, size_t max) {
    size_t n = 0;
    while (n < max && !Done()) out[n++] = Next();
    return n;
  }

 private:
  Tracer default_tracer_{};
  std::vector<EntryRun> runs_;
  std::vector<const PrefixEntry*> cursors_;
  SortStats local_stats_;
  SortStats* stats_;
  LoserTree<PrefixEntry, CountingEntryLess<Tracer>, Tracer> tree_;
};

// Gathers records into an output buffer following the merged pointer
// stream. This is AlphaSort's single record copy — "records are only
// copied this one time" (§4) — and the memory-intensive step that workers
// execute during the merge phase (§5).
template <typename Tracer>
void GatherRecords(const RecordFormat& format, const char* const* pointers,
                   size_t n, char* out, Tracer* tracer,
                   size_t prefetch_distance = kDefaultPrefetchDistance) {
  Mem<Tracer> mem(tracer);
  const size_t r = format.record_size;
  const size_t d = prefetch_distance;
  for (size_t i = 0; i < n; ++i) {
    // The pointer stream is in key order, so the source records are a
    // random walk over the record array — every copy misses. Prefetch
    // `d` pointers ahead: by the time the loop reaches that record its
    // line is resident (docs/perf.md measures the effect).
    if (d != 0 && i + d < n) {
      ALPHASORT_PREFETCH_READ(pointers[i + d]);
    }
    mem.TouchRead(pointers[i], r);
    mem.TouchWrite(out + i * r, r);
    memcpy(out + i * r, pointers[i], r);
  }
}

inline void GatherRecords(const RecordFormat& format,
                          const char* const* pointers, size_t n, char* out,
                          size_t prefetch_distance = kDefaultPrefetchDistance) {
  NullTracer tracer;
  GatherRecords(format, pointers, n, out, &tracer, prefetch_distance);
}

}  // namespace alphasort

#endif  // ALPHASORT_SORT_MERGER_H_
