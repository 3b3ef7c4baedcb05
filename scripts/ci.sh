#!/usr/bin/env bash
# CI gates, runnable whole or one stage at a time:
#
#   ./scripts/ci.sh                  # every stage, serially (local use)
#   ./scripts/ci.sh --stage=tier1    # build + full test suite
#   ./scripts/ci.sh --stage=sanitizers  # ASan+UBSan suite, TSan suites
#   ./scripts/ci.sh --stage=smokes   # fault/obs/service/net smoke gates
#   ./scripts/ci.sh --stage=api      # strict-deprecation build + lints
#   ./scripts/ci.sh --stage=bench    # bench trajectories + perfbench selftest
#
# The stages are independent (each configures the build trees it needs),
# so .github/workflows/ci.yml fans them out as parallel matrix jobs.
# Machine-readable outputs land in ci-artifacts/ for workflow upload.
#
# Long-running service suites carry ctest TIMEOUT properties
# (tests/CMakeLists.txt); every ctest run here exports
# ALPHASORT_TEST_FLIGHT_DIR so a binary that times out leaves a
# flight-recorder capture behind, whose tail is printed on failure.
set -euo pipefail
cd "$(dirname "$0")/.."

mkdir -p ci-artifacts

# --- helpers ---------------------------------------------------------

# ctest with flight recordings: service tests sample the metrics
# registry into ci-artifacts/test-flight/ (tests/test_flight.h); on any
# failure -- a TIMEOUT kill especially -- the last samples say what the
# service was doing.
run_ctest() {
  local dir=$1
  shift
  mkdir -p ci-artifacts/test-flight
  if ! ALPHASORT_TEST_FLIGHT_DIR="$PWD/ci-artifacts/test-flight" \
      ctest --test-dir "$dir" --output-on-failure -j "$(nproc)" "$@"; then
    echo
    echo "--- flight-recorder tails (last 3 samples per test binary) ---"
    for f in ci-artifacts/test-flight/*.flight.jsonl; do
      [[ -f "$f" ]] || continue
      echo "== $f"
      tail -n 3 "$f"
    done
    return 1
  fi
}

# Fails when git tracks build output: an ELF binary or a CMake-generated
# file (the tree once carried a whole committed in-source build).
check_no_tracked_build_output() {
  if ! git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
    echo "not a git checkout; skipping the tracked-build-output check"
    return 0
  fi
  local bad=() f
  while IFS= read -r -d '' f; do
    case "/$f" in
      */CMakeCache.txt | */CMakeFiles/* | */Makefile | \
      */cmake_install.cmake | */CTestTestfile.cmake | /Testing/*)
        bad+=("$f")
        continue
        ;;
    esac
    if [[ -f "$f" && "$(head -c 4 "$f" | od -An -tx1 | tr -d ' \n')" == \
        7f454c46 ]]; then
      bad+=("$f")
    fi
  done < <(git ls-files -z)
  if ((${#bad[@]} > 0)); then
    echo "git tracks ${#bad[@]} build output file(s), e.g.:"
    printf '  %s\n' "${bad[@]:0:10}"
    return 1
  fi
}

# --- stage: tier1 ----------------------------------------------------

stage_tier1() {
  echo "=== tier 1: no build output under version control ==="
  check_no_tracked_build_output

  echo
  echo "=== tier 1: build + tests ==="
  cmake -B build -S . >/dev/null
  cmake --build build -j "$(nproc)"
  run_ctest build

  echo
  echo "=== tier 1: forced-scalar build (ALPHASORT_FORCE_SCALAR) ==="
  # The SIMD shim's scalar fallback (src/common/simd.h) must stay a
  # first-class citizen: every sort kernel, the parity fuzz suite, and
  # the pipeline CRC checks rerun with the vector paths compiled out, and
  # common_test's checksum cases (known vectors, corruption,
  # Crc32cCombine) run on Crc32c's slice-by-8 loop. Bounded to those
  # suites -- the rest of the tree never touches the shim.
  cmake -B build-scalar -S . -DALPHASORT_FORCE_SCALAR=ON >/dev/null
  cmake --build build-scalar -j "$(nproc)" --target \
    simd_test radix_partition_test quicksort_test merge_partition_test \
    alphasort_test pipeline_matrix_test common_test
  run_ctest build-scalar -R \
    '^(simd_test|radix_partition_test|quicksort_test|merge_partition_test|alphasort_test|pipeline_matrix_test|common_test)$'
}

# --- stage: sanitizers ----------------------------------------------

stage_sanitizers() {
  echo "=== sanitizers: ASan + UBSan test suite ==="
  cmake -B build-asan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all" \
    >/dev/null
  cmake --build build-asan -j "$(nproc)"
  run_ctest build-asan

  echo
  echo "=== sanitizers: TSan over the concurrency-heavy suites ==="
  # The suites where threads actually share state: the async IO
  # scheduler, the file source's chunk reads landing in a block while
  # the reader checks the prefix below them, the chore pool + full
  # pipeline, retries racing IO threads, the partitioned merge's
  # concurrent range merges (whose two-pass ranges share run files and
  # the AIO pool: the pipeline matrix's spill cells, and
  # merge_files_test's merges of sorted files on workers), the fault
  # campaign's storm of concurrent sorts, and the networked service's
  # connection threads against the shared SortService.
  cmake -B build-tsan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-sanitize-recover=all" \
    >/dev/null
  cmake --build build-tsan -j "$(nproc)" --target \
    async_io_test chores_test alphasort_test merge_partition_test \
    merge_files_test pipeline_matrix_test retry_env_test \
    fault_campaign_test obs_test throttled_env_test sort_service_test \
    net_service_test record_source_test
  run_ctest build-tsan -R \
    '^(async_io_test|record_source_test|chores_test|alphasort_test|merge_partition_test|merge_files_test|pipeline_matrix_test|retry_env_test|fault_campaign_test|obs_test|throttled_env_test|sort_service_test|net_service_test)$'
}

# --- stage: smokes ---------------------------------------------------

stage_smokes() {
  echo "=== smokes: build ==="
  cmake -B build -S . >/dev/null
  cmake --build build -j "$(nproc)" --target \
    fault_campaign asort gen_records trace_lint trace_merge report_lint \
    expo_lint log_lint sort_service sort_top sort_serverd sort_loadgen

  echo
  echo "=== fault-campaign smoke: 32 seeded storms must never lie ==="
  # Each seed sorts through a randomized fault plan (transient faults,
  # short reads, partial writes, silent scratch corruption, dead stripe
  # members). Exit is non-zero on any wrong-output or leaked scratch
  # file.
  ./build/examples/fault_campaign --mem --seeds 32

  echo
  echo "=== observability smoke: asort --trace/--report on an in-memory input ==="
  # --workers 3 so chores actually queue (workers=0 runs chores inline
  # and never emits the chores.queue_depth counter the lint below
  # requires).
  ./build/examples/asort --mem --gen-records 100000 --workers 3 \
    --in smoke_in.dat --out smoke_out.dat \
    --trace=ci-artifacts/trace.json --report=ci-artifacts/report.json \
    --verify --metrics
  # The trace must parse as a Chrome trace, show the pipeline's overlap
  # (reads, QuickSorts, merge batches, and gather slices on distinct
  # threads), carry the queue-depth counter tracks, be time-sorted per
  # thread, and stamp pipeline spans with the ambient job id (asort runs
  # through Sorter, so its spans carry args.job = 1; cross-job span
  # nesting is always rejected).
  ./build/examples/trace_lint ci-artifacts/trace.json \
    --require read --require quicksort --require merge --require gather \
    --require-counter aio.queue_depth --require-counter chores.queue_depth \
    --require-job sort.run --require-job quicksort --require-job merge \
    --distinct-threads 3
  # The lint must reject what a trace viewer cannot load: a number JSON
  # forbids ("ts":.5, which the browser's JSON.parse refuses) and an
  # event missing a required field ("ph"). Exit 1 is a rejected trace;
  # 2 would be a usage error, which proves nothing.
  printf '%s' \
    '{"traceEvents":[{"name":"a","ph":"X","ts":.5,"pid":1,"tid":0}]}' \
    > ci-artifacts/bad_trace_number.json
  printf '%s' '{"traceEvents":[{"name":"a","ts":0,"pid":1,"tid":0}]}' \
    > ci-artifacts/bad_trace_no_ph.json
  for bad in ci-artifacts/bad_trace_number.json \
      ci-artifacts/bad_trace_no_ph.json; do
    rc=0
    ./build/examples/trace_lint "$bad" || rc=$?
    if [ "$rc" -ne 1 ]; then
      echo "trace_lint exited $rc on $bad, wanted 1 (rejected)" >&2
      exit 1
    fi
  done
  # The report must carry the full v1 sort-report schema: phase
  # breakdown summing to the total, IO percentiles, registry delta, and
  # hardware counters populated or explicitly unavailable.
  ./build/examples/report_lint ci-artifacts/report.json
  # Schema 1.3: the record block's huge-page bytes must be reported, as
  # a number or as "unknown" (containers often deny PAGEMAP_SCAN). The
  # run sort must be the radix hybrid down to few-entry buckets: fewer
  # than 2 introsort compares per record (an introsort over 390-entry
  # buckets pays about 7). The merge tournament must pay one compare per
  # level: at most ceil(log2 runs) per record (a tree that asked the
  # order both ways paid 3.00 over these 4 runs, against a bound of 2).
  python3 - ci-artifacts/report.json <<'PY'
import json, math, sys
report = json.load(open(sys.argv[1]))
value = report["memory"]["record_block_huge_page_bytes"]
assert report["schema_minor"] >= 3, report["schema_minor"]
assert value == "unknown" or (
    isinstance(value, (int, float)) and not isinstance(value, bool)
    and value >= 0), value
print(f"report: record_block_huge_page_bytes = {value}")
per_record = report["sort_stats"]["quicksort"]["compares"] / report["records"]
assert per_record < 2, per_record
print(f"report: run-sort compares per record = {per_record:.2f}")
merge_per_record = report["sort_stats"]["merge"]["compares"] / report["records"]
merge_bound = math.ceil(math.log2(report["runs"])) + 0.01
assert merge_per_record <= merge_bound, (merge_per_record, merge_bound)
print(f"report: merge compares per record = {merge_per_record:.4f}")
PY
  # A non-default pass body gets the same phase stages from the shared
  # phase clock: a traced two-pass replacement-selection (vms) sort must
  # show its read and merge phases, and its report must lint.
  ./build/examples/asort --mem --gen-records 300000 --memory-mb 8 \
    --algorithm vms --in smoke_vms_in.dat --out smoke_vms_out.dat \
    --trace=ci-artifacts/trace_vms.json \
    --report=ci-artifacts/report_vms.json --verify
  ./build/examples/trace_lint ci-artifacts/trace_vms.json \
    --require read_phase --require merge_phase --require-job sort.run
  ./build/examples/report_lint ci-artifacts/report_vms.json
  # The default body's two-pass sort with workers: its scratch runs are
  # merged in key ranges, each range a merge.range stage of its own, and
  # the report must say the final merge split into 2 × 3 workers ranges.
  ./build/examples/asort --mem --gen-records 300000 --memory-mb 8 \
    --workers 3 --in smoke_2p_in.dat --out smoke_2p_out.dat \
    --trace=ci-artifacts/trace_twopass.json \
    --report=ci-artifacts/report_twopass.json --verify
  ./build/examples/trace_lint ci-artifacts/trace_twopass.json \
    --require merge.range --require merge_phase
  ./build/examples/report_lint ci-artifacts/report_twopass.json
  python3 - ci-artifacts/report_twopass.json <<'PY'
import json, sys
report = json.load(open(sys.argv[1]))
assert report["passes"] == 2, report["passes"]
assert report["merge_ranges"] == 6, report["merge_ranges"]
print(f"report: two-pass merge_ranges = {report['merge_ranges']}")
PY
  # asort --merge runs on the same partitioned scratch-run merge, over
  # sorted host files: with 3 workers it must split into 2 × 3 key
  # ranges, write exactly what one sort of the concatenated inputs
  # writes, report that output's CRC, and walk the phase clock
  # (report_lint checks that the phases add up to the total).
  merge_dir=$(mktemp -d)
  ./build/examples/gen_records --out "$merge_dir/a.raw" --records 60000 \
    --seed 1 --dist fewdistinct
  ./build/examples/gen_records --out "$merge_dir/b.raw" --records 40000 \
    --seed 2
  ./build/examples/asort --quiet --in "$merge_dir/a.raw" \
    --out "$merge_dir/a.dat"
  ./build/examples/asort --quiet --in "$merge_dir/b.raw" \
    --out "$merge_dir/b.dat"
  cat "$merge_dir/a.raw" "$merge_dir/b.raw" > "$merge_dir/ab.raw"
  ./build/examples/asort --quiet --in "$merge_dir/ab.raw" \
    --out "$merge_dir/ab.dat" --report="$merge_dir/report_cat.json"
  ./build/examples/asort --quiet --merge --workers 3 \
    --in "$merge_dir/a.dat" --in "$merge_dir/b.dat" \
    --out "$merge_dir/merged.dat" --report=ci-artifacts/report_merge.json
  cmp "$merge_dir/merged.dat" "$merge_dir/ab.dat"
  ./build/examples/report_lint ci-artifacts/report_merge.json
  python3 - ci-artifacts/report_merge.json "$merge_dir/report_cat.json" <<'PY'
import json, sys
merge = json.load(open(sys.argv[1]))
whole = json.load(open(sys.argv[2]))
assert merge["merge_ranges"] == 6, merge["merge_ranges"]
crc = merge["integrity"]["output_crc32c"]
assert crc == whole["integrity"]["output_crc32c"], (crc, whole["integrity"])
print(f"report: merge merge_ranges = {merge['merge_ranges']}, crc {crc}")
PY
  rm -rf "$merge_dir"

  echo
  echo "=== service smoke: 4 concurrent jobs + a cancel under one budget ==="
  # The SortService gate (docs/service.md): four jobs whose summed
  # budgets exceed the service budget run concurrently, plus a fifth
  # cancelled right after submit. Exit is non-zero if any surviving job
  # fails or produces unsorted output, if the cancel ends dirty, if peak
  # admitted bytes ever exceeded the budget, or if a scratch file leaks.
  ./build/examples/sort_service --smoke

  echo
  echo "=== exposition smoke: scrape + log + flight artifacts validate ==="
  # The same service smoke, now capturing the observability surfaces
  # (docs/observability.md): a Prometheus-text exposition scrape polled
  # while the jobs run, a structured-log JSONL capture, and a
  # flight-recorder capture. Each artifact must round-trip through its
  # format validator; the scrape must show the service actually worked
  # (nonzero submissions, a job at a nonzero fraction; sort_service
  # itself fails unless the final scrape shows every completed job, job
  # 1 included, at phase done, fraction 1), and the log must carry the
  # admission-lifecycle events.
  ./build/examples/sort_service --smoke \
    --expo ci-artifacts/exposition.txt \
    --log-jsonl ci-artifacts/service_log.jsonl \
    --flight ci-artifacts/service_flight.jsonl
  ./build/examples/expo_lint ci-artifacts/exposition.txt \
    --require-nonzero alphasort_svc_jobs_submitted \
    --require-nonzero alphasort_job_fraction
  ./build/examples/expo_lint ci-artifacts/service_flight.jsonl --flight
  ./build/examples/log_lint ci-artifacts/service_log.jsonl \
    --require-event svc.submit --require-event svc.admit \
    --require-event job.start --require-event svc.complete
  # Log-sink smoke: a 10k-event burst through one call site must be
  # capped at the rate limiter's window budget with exact suppressed
  # accounting.
  ./build/examples/log_lint --burst

  echo
  echo "=== sort_top smoke: live progress/ETA over an oversubscribed service ==="
  # The monitor consumes only the exposition text (pipeline -> progress
  # tracker -> registry -> exposition, end to end): 4 jobs over 2
  # runners, polled continuously. Exit is non-zero if any job fails, a
  # fraction regresses between scrapes, no live progress is ever
  # observed, or the final scrape does not show every job at phase done,
  # fraction 1.
  ./build/examples/sort_top --smoke

  echo
  echo "=== net smoke: sort_serverd + sort_loadgen --smoke (docs/net.md) ==="
  # The networked-service gate: a daemon over an in-memory Env, then the
  # loadgen's smoke plan -- 100 concurrent small tenants, 2 big tenants,
  # 1 mid-stream disconnect, 1 greedy tenant that must be quota-rejected
  # with Unavailable (32MB bucket < its 40MB job). The loadgen exits
  # non-zero on any unsorted output, un-backed-off rejection, or gauge
  # residue; the daemon exits non-zero if a spool or scratch file
  # outlives its job. Both exits gate. Refill is slowed to 1 MB/s so the
  # disconnect tenant's refund probe sees the refund itself, not the
  # bucket refilling over the top of a leak (greedy rejection is
  # capacity-based, so the slow refill does not touch it).
  rm -f ci-artifacts/serverd.port
  ./build/examples/sort_serverd --mem --port 0 \
    --port-file ci-artifacts/serverd.port \
    --running 4 --queued 128 --max-conns 256 --quota-mb 32 \
    --quota-refill-mbps 1 \
    --expo ci-artifacts/net_exposition.txt \
    --log-jsonl ci-artifacts/net_server_log.jsonl &
  local serverd_pid=$!
  for _ in $(seq 1 100); do
    [[ -s ci-artifacts/serverd.port ]] && break
    sleep 0.1
  done
  [[ -s ci-artifacts/serverd.port ]] || {
    echo "FAIL: sort_serverd never published its port" >&2
    kill -KILL "$serverd_pid" 2>/dev/null || true
    return 1
  }
  local loadgen_rc=0
  ./build/examples/sort_loadgen --port-file ci-artifacts/serverd.port \
    --smoke --report ci-artifacts/BENCH_net_smoke.json || loadgen_rc=$?
  kill -TERM "$serverd_pid" 2>/dev/null || true
  local serverd_rc=0
  wait "$serverd_pid" || serverd_rc=$?
  if [[ "$loadgen_rc" -ne 0 ]]; then
    echo "FAIL: sort_loadgen exited $loadgen_rc" >&2
    return 1
  fi
  if [[ "$serverd_rc" -ne 0 ]]; then
    echo "FAIL: sort_serverd exited $serverd_rc (leaked spool/scratch?)" >&2
    return 1
  fi
  # The latency artifact must be a valid BenchReport; its numbers ride
  # along in ci-artifacts/ for trend-watching.
  ./build/examples/report_lint ci-artifacts/BENCH_net_smoke.json
  ./build/examples/expo_lint ci-artifacts/net_exposition.txt \
    --require-nonzero alphasort_net_conns_accepted \
    --require-nonzero alphasort_net_jobs_completed

  echo
  echo "=== trace-merge smoke: client + server traces join on one timeline ==="
  # The distributed-tracing gate (docs/observability.md): a small traced
  # run where both sides export Chrome traces around the v2 HELLO
  # clock-sync handshake, trace_merge aligns them onto one timeline, and
  # trace_lint requires the client's submit span and the server's
  # stream-back span to both carry a nonzero args.trace_id — the
  # cross-process join the trace ids exist for. The merged timeline is
  # uploaded with the rest of ci-artifacts/.
  rm -f ci-artifacts/serverd_traced.port
  ./build/examples/sort_serverd --mem --port 0 \
    --port-file ci-artifacts/serverd_traced.port \
    --running 2 --max-conns 16 \
    --trace ci-artifacts/net_server_trace.json &
  local traced_pid=$!
  for _ in $(seq 1 100); do
    [[ -s ci-artifacts/serverd_traced.port ]] && break
    sleep 0.1
  done
  [[ -s ci-artifacts/serverd_traced.port ]] || {
    echo "FAIL: traced sort_serverd never published its port" >&2
    kill -KILL "$traced_pid" 2>/dev/null || true
    return 1
  }
  local traced_loadgen_rc=0
  ./build/examples/sort_loadgen \
    --port-file ci-artifacts/serverd_traced.port \
    --clients 4 --jobs 2 --records 5000 \
    --trace ci-artifacts/net_client_trace.json || traced_loadgen_rc=$?
  kill -TERM "$traced_pid" 2>/dev/null || true
  local traced_serverd_rc=0
  wait "$traced_pid" || traced_serverd_rc=$?
  if [[ "$traced_loadgen_rc" -ne 0 || "$traced_serverd_rc" -ne 0 ]]; then
    echo "FAIL: traced run (loadgen rc=$traced_loadgen_rc," \
      "serverd rc=$traced_serverd_rc)" >&2
    return 1
  fi
  ./build/examples/trace_merge ci-artifacts/net_client_trace.json \
    ci-artifacts/net_server_trace.json \
    -o ci-artifacts/net_merged_trace.json
  ./build/examples/trace_lint ci-artifacts/net_merged_trace.json \
    --require net.submit --require net.ingest --require net.stream_back \
    --require-trace-id net.submit --require-trace-id net.stream_back
}

# --- stage: api ------------------------------------------------------

stage_api() {
  echo "=== api: strict-deprecation build of the example/bench surface ==="
  # docs/api.md: the one-shot AlphaSort::Run shim is [[deprecated]] under
  # ALPHASORT_STRICT_DEPRECATION. Everything a user copies from — the
  # examples, benches, and daemons — must live on the Sorter/RecordSource
  # API, so they build here with the warning promoted to an error. The
  # test suite deliberately keeps calling the shim (it is covered API),
  # so tests are excluded from this build's targets.
  cmake -B build-api -S . \
    -DCMAKE_CXX_FLAGS="-DALPHASORT_STRICT_DEPRECATION -Werror=deprecated-declarations" \
    >/dev/null
  cmake --build build-api -j "$(nproc)" --target \
    quickstart asort minute_sort datamation_sort bench_report \
    sort_serverd sort_loadgen sort_top trace_merge \
    report_lint expo_lint trace_lint

  echo
  echo "=== api: streamed-ingest smoke + lints over its artifacts ==="
  # The strict-built daemon serves a small traced run over the spool-free
  # path; every observability artifact it emits must lint: the loadgen's
  # BenchReport (report_lint), the server's Prometheus exposition
  # (expo_lint), and the merged client+server trace (trace_lint), which
  # must carry net.ingest spans — the upload feeding the sort directly,
  # not a spool stage.
  rm -f ci-artifacts/serverd_api.port
  ./build-api/examples/sort_serverd --mem --port 0 \
    --port-file ci-artifacts/serverd_api.port \
    --running 2 --max-conns 16 \
    --expo ci-artifacts/api_exposition.txt \
    --trace ci-artifacts/api_server_trace.json &
  local api_pid=$!
  for _ in $(seq 1 100); do
    [[ -s ci-artifacts/serverd_api.port ]] && break
    sleep 0.1
  done
  [[ -s ci-artifacts/serverd_api.port ]] || {
    echo "FAIL: api-stage sort_serverd never published its port" >&2
    kill -KILL "$api_pid" 2>/dev/null || true
    return 1
  }
  local api_loadgen_rc=0
  ./build-api/examples/sort_loadgen \
    --port-file ci-artifacts/serverd_api.port \
    --clients 4 --jobs 2 --records 5000 \
    --report ci-artifacts/BENCH_api_smoke.json \
    --trace ci-artifacts/api_client_trace.json || api_loadgen_rc=$?
  kill -TERM "$api_pid" 2>/dev/null || true
  local api_serverd_rc=0
  wait "$api_pid" || api_serverd_rc=$?
  if [[ "$api_loadgen_rc" -ne 0 || "$api_serverd_rc" -ne 0 ]]; then
    echo "FAIL: api smoke (loadgen rc=$api_loadgen_rc," \
      "serverd rc=$api_serverd_rc)" >&2
    return 1
  fi
  ./build-api/examples/report_lint ci-artifacts/BENCH_api_smoke.json
  ./build-api/examples/expo_lint ci-artifacts/api_exposition.txt \
    --require-nonzero alphasort_net_jobs_completed
  ./build-api/examples/trace_merge ci-artifacts/api_client_trace.json \
    ci-artifacts/api_server_trace.json \
    -o ci-artifacts/api_merged_trace.json
  ./build-api/examples/trace_lint ci-artifacts/api_merged_trace.json \
    --require net.submit --require net.ingest --require net.stream_back
}

# --- stage: bench ----------------------------------------------------

stage_bench() {
  echo "=== bench: build ==="
  cmake -B build -S . >/dev/null
  cmake --build build -j "$(nproc)" --target bench_report report_lint

  echo
  echo "=== bench smoke: scripts/bench.sh --smoke -> BENCH_smoke.json ==="
  # The committed BENCH_smoke.json is the baseline; keep it aside so the
  # fresh run can be compared against it, then restore it (the
  # trajectory file only changes when a PR deliberately re-baselines).
  local baseline=""
  if [[ -f BENCH_smoke.json ]]; then
    baseline="$(mktemp /tmp/alphasort_bench_base.XXXXXX.json)"
    trap 'rm -f "$baseline"' RETURN
    cp BENCH_smoke.json "$baseline"
  fi
  ./scripts/bench.sh --smoke
  cp BENCH_smoke.json ci-artifacts/BENCH_smoke.json
  if [[ -n "$baseline" ]]; then
    # Informational: CI machines are shared and noisy, so wall-clock
    # regressions warn in the log (and the uploaded artifact) instead
    # of failing the gate.
    python3 scripts/bench_compare.py "$baseline" BENCH_smoke.json \
      --warn-only --threshold 0.5
    cp "$baseline" BENCH_smoke.json
  fi

  echo
  echo "=== kernel bench gate: hot kernels vs committed BENCH_kernels.json ==="
  # Two-tier enforcement (docs/perf.md): wall-clock metrics stay
  # warn-only (shared machines are noisy), but structural metrics (runs,
  # ranges, ...) and the partitioned merge's critical path are promoted
  # to failing with a wide 60% tolerance band -- those only move that
  # far when the code's shape changed, not the machine's weather.
  ./build/examples/bench_report --suite kernels --name kernels \
    --out ci-artifacts/BENCH_kernels.json
  ./build/examples/report_lint ci-artifacts/BENCH_kernels.json
  python3 scripts/bench_compare.py BENCH_kernels.json \
    ci-artifacts/BENCH_kernels.json --warn-only --threshold 0.5 \
    --fail-on structural --fail-on critical_path_s --band 0.6
  # The gate must be able to fail: a baseline row the fresh run lacks is
  # an enforced regression (tests/bench_compare_test.py).
  run_ctest build -R bench_compare_test

  echo
  echo "=== benchmark self-test: every perfbench workload, tiny and verified ==="
  # Speed claims are perfbench's (BENCHMARK.json); here each workload
  # runs at tiny scale, untraced and traced, and must report
  # verified_rate 1, no failed operations and a replay CRC match.
  python3 perfbench/selftest.py
}

# --- driver ----------------------------------------------------------

stage="all"
for arg in "$@"; do
  case "$arg" in
    --stage=*) stage="${arg#--stage=}" ;;
    *)
      echo "usage: $0 [--stage=tier1|sanitizers|smokes|api|bench]" >&2
      exit 2
      ;;
  esac
done

case "$stage" in
  tier1) stage_tier1 ;;
  sanitizers) stage_sanitizers ;;
  smokes) stage_smokes ;;
  api) stage_api ;;
  bench) stage_bench ;;
  all)
    stage_tier1
    echo
    stage_sanitizers
    echo
    stage_smokes
    echo
    stage_api
    echo
    stage_bench
    ;;
  *)
    echo "usage: $0 [--stage=tier1|sanitizers|smokes|api|bench]" >&2
    exit 2
    ;;
esac

echo
echo "CI: stage '$stage' passed."
