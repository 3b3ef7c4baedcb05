#ifndef ALPHASORT_CORE_OPTIONS_H_
#define ALPHASORT_CORE_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/status.h"
#include "io/retry_env.h"
#include "record/record.h"

namespace alphasort {

class RecordSource;  // core/record_source.h
using RecordSourceFactory = std::function<std::shared_ptr<RecordSource>()>;

// Configuration for one AlphaSort run. Defaults reproduce the paper's
// choices at laptop scale. The sort fixes the rest, as the paper does
// (§5–§6): the workers prefault a block of known size, the IO is timed
// (SortMetrics::read_io / write_io), every spilled run's CRC-32C is
// verified as the merge reads it back, runs sort with the MSB-radix
// hybrid (sort/sort_kernel.h), the hot kernels prefetch
// kDefaultPrefetchDistance records ahead, and every merge asks for
// 2 × num_workers key ranges (one, filled by the root, without workers).
struct SortOptions {
  // Input path; a ".str" suffix opens it as a striped file (paper §6),
  // anything else as a plain file. Sugar for `source`: a set input_path
  // builds a FileRecordSource. Exactly one of input_path / source must
  // be set (Validate rejects both).
  std::string input_path;

  // The general input: a factory producing the RecordSource the pipeline
  // pulls records from (core/record_source.h — files, mmap, memory,
  // generators, live network streams). Invoked once per run; returning
  // nullptr fails the run.
  RecordSourceFactory source;

  // Output path; ".str" = striped, like input_path.
  std::string output_path;

  RecordFormat format = kDatamationFormat;

  // Bytes of record memory the sort may hold at once. When the input fits
  // (with entry overhead) the sort runs in one pass; otherwise it spills
  // QuickSorted runs to `scratch_path` and merges them in a second pass
  // (§6's one-pass/two-pass trade-off).
  uint64_t memory_budget = 256ull << 20;

  // Records per QuickSort run during the read phase. The paper uses ~10
  // runs per sort ("typically between ten and one hundred runs"); 100,000
  // records ≈ the paper's run size for the Datamation input.
  size_t run_size_records = 100000;

  // Worker processes in the paper's terms: threads that QuickSort runs
  // and gather records while the root does all IO (§5). 0 = serial (the
  // root does everything).
  int num_workers = 0;

  // Threads servicing asynchronous IO; roughly one per stripe member
  // keeps all disks busy.
  int io_threads = 4;

  // IO request size for the triple-buffered read/write loops.
  size_t io_chunk_bytes = 1 << 20;

  // Input chunk reads in flight, each aimed at its own slice of the
  // record block ("triple buffering", §6). An in-flight read cannot be
  // recalled, so a cancel or deadline waits for up to this many.
  int io_depth = 3;

  // Output buffers cycling through the merge phase's gather→write
  // pipeline. Two suffice when the output is one fast device; with an
  // N-wide stripe of slow members, ~2N keeps every member writing
  // (§6's per-disk triple buffering).
  int write_buffers = 2;

  // Two-pass only: directory/prefix for spilled run files.
  std::string scratch_path = "alphasort_scratch";

  // Two-pass only: stripe each spilled run across this many scratch
  // members (§6: two-pass sorts need dedicated scratch-disk bandwidth —
  // "striping requires 16 such scratch disks dedicated for the entire
  // sort"). 0 spills plain files.
  size_t scratch_stripe_width = 0;

  // Widest tournament the merge pass drives at once; with more spilled
  // runs than this, the merge cascades through intermediate levels.
  size_t max_merge_fanin = 128;

  // Pin each worker to a CPU ("affinity minimizes the cache faults and
  // invalidations that occur when a single process migrates among
  // multiple processors", §5). Best-effort; ignored where unsupported.
  bool use_affinity = false;

  // Transient-fault retry for every file the sort touches (input, output,
  // scratch): IOError results are re-attempted max_attempts times with
  // capped exponential backoff, so a flaky stripe member degrades
  // throughput instead of killing the sort (docs/fault_tolerance.md).
  // Set max_attempts = 1 to fail fast on the first IOError.
  RetryPolicy retry_policy;

  // Force a pass count (0 = choose by memory_budget).
  int force_passes = 0;

  // Distributed trace id attributing this job to a request that may span
  // processes (0 = none). The networked service copies the client-minted
  // id from the SUBMIT frame here; ExecuteJob establishes it as the
  // ambient obs::CurrentTraceId() so every span, log event, and progress
  // record the job produces carries it (docs/observability.md).
  uint64_t trace_id = 0;

  // Wall-clock budget in seconds for the whole sort, 0 = none. The
  // pipeline checks cooperatively at run/merge-batch boundaries and
  // returns Status::DeadlineExceeded once it passes; under a SortService
  // the clock starts at Submit, so the limit covers queue wait too.
  double time_limit_s = 0;

  // Entry bytes per record the planner assumes on top of record storage.
  static constexpr size_t kEntryOverheadBytes = sizeof(uint64_t) + sizeof(void*);

  // Checks every invariant the pipeline assumes, in one place. Called by
  // every entry point (AlphaSort, VmsSort, HypercubeSort, SortWithSchema,
  // SortService::Submit) before any file is touched:
  //   - exactly one of input_path / source set, output_path set and
  //     distinct from input_path, valid record format
  //   - run_size_records > 0
  //   - ValidatePoolSizes(num_workers, io_threads)
  //   - io_depth >= 1, io_chunk_bytes > 0
  //   - max_merge_fanin >= 2 (a 1-way "merge" cannot make progress)
  //   - scratch_path set, scratch_stripe_width <= kMaxScratchStripeWidth
  //   - memory_budget >= kMinMemoryBudgetChunks IO chunks (the two-pass
  //     planner needs room for at least a few buffers)
  //   - force_passes in {0,1,2}, time_limit_s >= 0,
  //     retry_policy.max_attempts >= 1
  // Returns InvalidArgument naming the violated invariant.
  Status Validate() const;

  static constexpr size_t kMaxScratchStripeWidth = 64;
  static constexpr uint64_t kMinMemoryBudgetChunks = 4;
};

// The one check of the two pool sizes every sort builds its ChorePool
// and AsyncIO from: io_threads >= 1 (an AsyncIO without threads never
// completes a read, so its sort waits forever) and num_workers >= 0 (0 =
// the root sorts alone). SortOptions::Validate, Sorter::Start,
// SortService::Submit and MergeSortedFiles all call it. Returns
// InvalidArgument naming the bad size.
Status ValidatePoolSizes(int num_workers, int io_threads);

}  // namespace alphasort

#endif  // ALPHASORT_CORE_OPTIONS_H_
