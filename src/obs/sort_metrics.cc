#include "obs/sort_metrics.h"

#include <cmath>

#include "common/table.h"

namespace alphasort {

namespace {

std::string IoLine(const char* label, const IoLatencyStats& io) {
  return StrFormat(
      "io %s: %llu ops, %.1f MB, p50 %.0f us | p95 %.0f us | p99 %.0f us "
      "| max %.0f us\n",
      label, static_cast<unsigned long long>(io.ops), io.bytes / 1e6,
      io.p50_us, io.p95_us, io.p99_us, io.max_us);
}

}  // namespace

SortThroughput SortMetrics::Throughput() const {
  const double seconds = total_s > 0 ? total_s : PhaseSum();
  SortThroughput t;
  if (seconds > 0) {
    t.mb_per_s = bytes_in / 1e6 / seconds;
    t.records_per_s = double(num_records) / seconds;
  }
  return t;
}

std::string SortMetrics::ToString() const {
  std::string out;
  out += StrFormat("records: %llu (%.1f MB in, %.1f MB out), %d pass(es)\n",
                   static_cast<unsigned long long>(num_records),
                   bytes_in / 1e6, bytes_out / 1e6, passes);
  out += StrFormat("runs: %llu, merge ranges: %llu\n",
                   static_cast<unsigned long long>(num_runs),
                   static_cast<unsigned long long>(merge_ranges));
  out += StrFormat(
      "phases (s): startup %.4f | read+quicksort %.4f | last run %.4f | "
      "merge+gather+write %.4f | close %.4f | total %.4f\n",
      startup_s, read_phase_s, last_run_s, merge_phase_s, close_s, total_s);
  // A total that disagrees with its parts by more than timer noise means
  // some phase went untimed; surface it rather than report it silently.
  if (total_s > 0 &&
      std::abs(total_s - PhaseSum()) > 0.05 * total_s + 1e-4) {
    out += StrFormat("  (warning: phase sum %.4f s != total %.4f s)\n",
                     PhaseSum(), total_s);
  }
  const SortThroughput t = Throughput();
  if (t.mb_per_s > 0) {
    out += StrFormat("throughput: %.1f MB/s, %.0f records/s\n", t.mb_per_s,
                     t.records_per_s);
  }
  if (read_io.Valid()) out += IoLine("reads", read_io);
  if (write_io.Valid()) out += IoLine("writes", write_io);
  out += StrFormat(
      "quicksort: %llu compares, %llu exchanges, %llu tie-breaks\n",
      static_cast<unsigned long long>(quicksort_stats.compares),
      static_cast<unsigned long long>(quicksort_stats.exchanges),
      static_cast<unsigned long long>(quicksort_stats.tie_breaks));
  out += StrFormat("merge: %llu compares, %llu tie-breaks\n",
                   static_cast<unsigned long long>(merge_stats.compares),
                   static_cast<unsigned long long>(merge_stats.tie_breaks));
  out += StrFormat(
      "record block on huge pages: %s\n",
      record_block_huge_page_bytes
          ? StrFormat("%.1f MB", *record_block_huge_page_bytes / 1e6).c_str()
          : "unknown");
  if (passes == 2) {
    out += StrFormat("scratch: %.1f MB written, %llu run checksum(s) "
                     "verified\n",
                     scratch_bytes_written / 1e6,
                     static_cast<unsigned long long>(runs_checksum_verified));
  }
  if (io_retries > 0) {
    out += StrFormat(
        "retries: %llu re-attempts, %llu op(s) recovered, %llu exhausted\n",
        static_cast<unsigned long long>(io_retries),
        static_cast<unsigned long long>(io_retries_recovered),
        static_cast<unsigned long long>(io_retries_exhausted));
  }
  if (output_crc32c != 0) {
    out += StrFormat("output crc32c: %08x\n", output_crc32c);
  }
  out += perf.ToString();
  return out;
}

}  // namespace alphasort
