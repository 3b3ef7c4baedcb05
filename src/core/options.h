#ifndef ALPHASORT_CORE_OPTIONS_H_
#define ALPHASORT_CORE_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/prefetch.h"
#include "common/status.h"
#include "io/retry_env.h"
#include "record/record.h"
#include "sort/sort_kernel.h"

namespace alphasort {

class RecordSource;  // core/record_source.h
using RecordSourceFactory = std::function<std::shared_ptr<RecordSource>()>;

// Configuration for one AlphaSort run. Defaults reproduce the paper's
// choices at laptop scale.
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

  // Outstanding read requests ("triple buffering", §6).
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

  // Touch every page of the record/entry arrays across the workers before
  // reading, the paper's §5 chore ("the workers sweep through the address
  // space touching pages... zeroing a 1 GB address space takes 12 cpu
  // seconds"), so page faults don't serialize inside the IO loop.
  bool prefault_memory = true;

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

  // Verify the CRC-32C of every spilled run as the merge pass streams it
  // back; a mismatch surfaces as Status::Corruption instead of silently
  // wrong output. Checksums are computed on write either way.
  bool verify_run_checksums = true;

  // Wrap the Env in an obs::MetricsEnv for the duration of the sort and
  // fill SortMetrics::read_io / write_io with per-direction IO latency
  // percentiles. Costs two clock reads per IO request — invisible next
  // to the request itself — and never touches the compare path.
  bool collect_io_metrics = true;

  // Ways to split every merge's key space across workers (paper §5: the
  // root subdivides the merge so every processor drives its own
  // tournament) — the one-pass merge, each spill and the scratch-run
  // merge alike. -1 = auto (2 × num_workers ranges: the root drives the
  // IO and merges no range, so 4 ranges on 3 workers would run in two
  // rounds; docs/perf.md); 1 = the classic single global tournament;
  // N > 1 = at most N disjoint key ranges. With num_workers == 0 the root
  // fills one range itself. Output bytes and CRC are identical either way
  // (sort/merge_partition.h documents why).
  int merge_parallelism = -1;

  // Records/entries of lookahead for the software-prefetch hints in the
  // hot kernels (entry build, tournament leaf replacement, gather).
  // 0 disables the hints entirely; see common/prefetch.h and
  // docs/perf.md for the measured effect.
  size_t prefetch_distance = kDefaultPrefetchDistance;

  // In-cache sort kernel for run generation (sort/sort_kernel.h):
  // kQuickSort is the paper's key-prefix introsort; kAuto, the default,
  // is the MSB-radix hybrid, which puts partition passes over the
  // prefixes in front of it until buckets hold at most 16 entries. Both
  // produce byte-identical output (same strict total order), so this is
  // purely a speed knob — docs/perf.md "The MSB-radix hybrid" has the
  // measurements.
  SortKernel sort_kernel = SortKernel::kAuto;

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
  //   - io_threads >= 1, io_depth >= 1, io_chunk_bytes > 0
  //   - max_merge_fanin >= 2 (a 1-way "merge" cannot make progress)
  //   - scratch_path set, scratch_stripe_width <= kMaxScratchStripeWidth
  //   - memory_budget >= kMinMemoryBudgetChunks IO chunks (the two-pass
  //     planner needs room for at least a few buffers)
  //   - num_workers >= 0, force_passes in {0,1,2}, time_limit_s >= 0,
  //     retry_policy.max_attempts >= 1
  //   - merge_parallelism is -1 (auto) or >= 1
  //   - sort_kernel is auto or quicksort
  // Returns InvalidArgument naming the violated invariant.
  Status Validate() const;

  static constexpr size_t kMaxScratchStripeWidth = 64;
  static constexpr uint64_t kMinMemoryBudgetChunks = 4;
};

}  // namespace alphasort

#endif  // ALPHASORT_CORE_OPTIONS_H_
