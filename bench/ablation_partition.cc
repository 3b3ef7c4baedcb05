// Ablation of the distributive partition sort (§4 footnote 1): "a
// distributive sort that partitions the key-pairs into 256 buckets based
// on the first byte of the key would eliminate 8 of the 20 compares needed
// for a 100 MB sort. Such a partition sort might beat AlphaSort's simple
// QuickSort." The shipped run sort takes the idea to the leaves: the
// MSB-radix hybrid (SortKernel::kAuto, sort/radix_partition.h) scatters
// byte after byte until buckets hold a few entries, then finishes each
// with the same introsort. This bench runs it against the plain
// key-prefix QuickSort (SortKernel::kQuickSort) on the same entries.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <vector>

#include "common/table.h"
#include "record/generator.h"
#include "sort/quicksort.h"
#include "sort/radix_partition.h"

using namespace alphasort;

namespace {

double TimedSeconds(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int main() {
  printf("=== Ablation: MSB-radix hybrid (auto) vs plain QuickSort ===\n\n");

  TextTable table({"n", "quicksort (ms)", "cmp/rec", "hybrid (ms)",
                   "cmp/rec", "cmp saved/rec", "radix passes", "speedup"});
  for (size_t n : {20000, 100000, 500000, 1000000}) {
    RecordGenerator gen(kDatamationFormat, 22);
    const auto block = gen.Generate(KeyDistribution::kUniform, n);
    std::vector<PrefixEntry> a(n), b(n);
    BuildPrefixEntryArray(kDatamationFormat, block.data(), n, a.data());
    b = a;

    SortStats qs, hs;
    RadixStats shape;
    const double t_qs = TimedSeconds([&] {
      SortPrefixEntryArrayWithKernel(kDatamationFormat, a.data(), n,
                                     SortKernel::kQuickSort, &qs);
    });
    const double t_hs = TimedSeconds([&] {
      SortPrefixEntryArrayWithKernel(kDatamationFormat, b.data(), n,
                                     SortKernel::kAuto, &hs, &shape);
    });
    if (memcmp(a.data(), b.data(), n * sizeof(PrefixEntry)) != 0) {
      fprintf(stderr, "n=%zu: hybrid output != quicksort output\n", n);
      return 1;
    }

    table.AddRow({StrFormat("%zu", n), StrFormat("%.1f", t_qs * 1e3),
                  StrFormat("%.1f", double(qs.compares) / n),
                  StrFormat("%.1f", t_hs * 1e3),
                  StrFormat("%.1f", double(hs.compares) / n),
                  StrFormat("%.1f",
                            (double(qs.compares) - double(hs.compares)) / n),
                  StrFormat("%llu", static_cast<unsigned long long>(
                                        shape.partition_passes)),
                  StrFormat("%.2fx", t_qs / t_hs)});
  }
  table.Print();

  printf(
      "\nShape check: one 256-bucket pass would remove ~log2(256) = 8\n"
      "compares per record (the paper's 'eliminate 8 of the 20\n"
      "compares'). Scattering on until buckets hold <= 16 entries leaves\n"
      "the introsort a few compares per record at most, against\n"
      "QuickSort's ~log2(n), so the hybrid saves more than those 8. Where\n"
      "it also wins the wall clock, the footnote's 'might beat' holds.\n");
  return 0;
}
