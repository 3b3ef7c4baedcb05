// The Datamation benchmark (paper §2) on real files: generates a
// disk-resident input of 100-byte records, runs AlphaSort through the
// seven timed steps, validates the output, and reports the elapsed time
// plus the benchmark's price metric for a given system price.
//
//   ./datamation_sort [--records N] [--width W] [--workers K]
//                     [--dir PATH] [--price DOLLARS] [--keep]
//
// Defaults sort one million records (the benchmark's size, 100 MB) in
// /tmp with an 8-wide stripe.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "benchlib/datamation.h"
#include "core/alphasort.h"
#include "core/sorter.h"
#include "io/stripe.h"
#include "obs/sort_metrics.h"
#include "sim/cost_model.h"

using namespace alphasort;

namespace {

struct Args {
  uint64_t records = 1000000;
  size_t width = 8;
  int workers = 0;
  std::string dir = "/tmp/alphasort_datamation";
  double price = 0;  // 0 = skip the $/sort report
  bool keep = false;
};

bool Parse(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    auto need = [&](const char* flag) -> const char* {
      if (strcmp(argv[i], flag) == 0 && i + 1 < argc) return argv[++i];
      return nullptr;
    };
    if (const char* v = need("--records")) {
      args->records = strtoull(v, nullptr, 10);
    } else if (const char* v = need("--width")) {
      args->width = strtoul(v, nullptr, 10);
    } else if (const char* v = need("--workers")) {
      args->workers = atoi(v);
    } else if (const char* v = need("--dir")) {
      args->dir = v;
    } else if (const char* v = need("--price")) {
      args->price = atof(v);
    } else if (strcmp(argv[i], "--keep") == 0) {
      args->keep = true;
    } else {
      fprintf(stderr, "usage: %s [--records N] [--width W] [--workers K] "
                      "[--dir PATH] [--price DOLLARS] [--keep]\n",
              argv[0]);
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!Parse(argc, argv, &args)) return 2;

  Env* env = GetPosixEnv();
  const std::string in_path = args.dir + "_in.str";
  const std::string out_path = args.dir + "_out.str";

  printf("Datamation sort: %llu records (%.1f MB), %zu-wide stripe, "
         "%d workers\n",
         static_cast<unsigned long long>(args.records),
         args.records * 100 / 1e6, args.width, args.workers);

  // Input generation is not part of the timed benchmark.
  printf("generating input...\n");
  InputSpec spec;
  spec.path = in_path;
  spec.num_records = args.records;
  spec.stripe_width = args.width;
  if (Status s = CreateInputFile(env, spec); !s.ok()) {
    fprintf(stderr, "create input: %s\n", s.ToString().c_str());
    return 1;
  }
  if (Status s = CreateOutputDefinition(env, out_path, args.width, 65536);
      !s.ok()) {
    fprintf(stderr, "create output def: %s\n", s.ToString().c_str());
    return 1;
  }

  // The timed steps: open, read, sort, write, close (launch/terminate are
  // this process's, included in metrics.total via startup/close).
  SortOptions opts;
  opts.input_path = in_path;
  opts.output_path = out_path;
  opts.num_workers = args.workers;
  opts.io_threads = static_cast<int>(args.width);
  Sorter::Resources resources;
  resources.num_workers = opts.num_workers;
  resources.io_threads = opts.io_threads;
  Sorter sorter(env, resources);
  const SortResult& result = sorter.Start(opts).Wait();
  if (!result.status.ok()) {
    fprintf(stderr, "sort: %s\n", result.status.ToString().c_str());
    return 1;
  }
  const SortMetrics& metrics = result.metrics;
  printf("\n%s\n", metrics.ToString().c_str());

  if (args.price > 0) {
    printf("$/sort at a %.0f$ system price (5-year proration): %.4f$\n",
           args.price,
           cost::DatamationDollarsPerSort(args.price, metrics.total_s));
  }

  printf("validating...\n");
  Status v = ValidateSortedFile(env, in_path, out_path, kDatamationFormat);
  printf("validation: %s\n", v.ToString().c_str());

  if (!args.keep) {
    StripeFile::Remove(env, in_path);
    StripeFile::Remove(env, out_path);
  }
  return v.ok() ? 0 : 1;
}
