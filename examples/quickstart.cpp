// Quickstart: generate a small Datamation-style input, sort it with the
// Sorter API, and verify the output is a sorted permutation — all against
// an in-memory filesystem, so it runs anywhere with no setup.
//
//   ./quickstart
//
// Three ways to hand the sort its input (docs/api.md):
//   - input_path: sugar for a file source whose reads land straight in
//     the record block (shown first)
//   - options.source: any RecordSource factory (a generator, shown second)
//   - a StreamRecordSource fed by another thread (the network server's
//     spool-free ingest; see docs/service.md)

#include <cstdio>

#include "benchlib/datamation.h"
#include "core/record_source.h"
#include "core/sorter.h"

using namespace alphasort;

int main() {
  auto env = NewMemEnv();
  Sorter sorter(env.get(), [] {
    Sorter::Resources r;
    r.num_workers = 2;  // root + 2 worker threads
    return r;
  }());

  // 1. Create a 10 MB input: 100,000 records of 100 bytes, 10-byte random
  //    keys (the Datamation format), striped over 4 member files.
  InputSpec spec;
  spec.path = "input.str";
  spec.num_records = 100000;
  spec.stripe_width = 4;
  if (Status s = CreateInputFile(env.get(), spec); !s.ok()) {
    fprintf(stderr, "create input: %s\n", s.ToString().c_str());
    return 1;
  }

  // 2. Sort it. The output stripe definition must exist; the sort
  //    creates the member files. Start() launches the job on its own
  //    thread; Wait() returns its status and metrics.
  if (Status s = CreateOutputDefinition(env.get(), "output.str", 4, 65536);
      !s.ok()) {
    fprintf(stderr, "create output definition: %s\n", s.ToString().c_str());
    return 1;
  }
  SortOptions opts;
  opts.input_path = "input.str";
  opts.output_path = "output.str";
  opts.run_size_records = 20000;  // 5 QuickSort runs -> a 5-way merge
  SortJob job = sorter.Start(opts);
  const SortResult& result = job.Wait();
  if (!result.status.ok()) {
    fprintf(stderr, "sort: %s\n", result.status.ToString().c_str());
    return 1;
  }
  printf("%s", result.metrics.ToString().c_str());

  // 3. Verify: output must be a key-ascending permutation of the input.
  Status v = ValidateSortedFile(env.get(), "input.str", "output.str",
                                kDatamationFormat);
  printf("validation: %s\n", v.ToString().c_str());
  if (!v.ok()) return 1;

  // 4. The same sort without an input file at all: a RecordSource
  //    factory generates the records in memory, and the one-pass path
  //    sorts them zero-copy.
  SortOptions gen_opts;
  gen_opts.source = [] {
    return std::make_shared<GeneratedRecordSource>(
        kDatamationFormat, 100000, KeyDistribution::kUniform, /*seed=*/7);
  };
  gen_opts.output_path = "generated.out";
  gen_opts.run_size_records = 20000;
  const SortResult& gen_result = sorter.Start(gen_opts).Wait();
  if (!gen_result.status.ok()) {
    fprintf(stderr, "generated sort: %s\n",
            gen_result.status.ToString().c_str());
    return 1;
  }
  printf("generated source: sorted %llu records in %.3f s\n",
         static_cast<unsigned long long>(gen_result.metrics.num_records),
         gen_result.metrics.total_s);
  return 0;
}
