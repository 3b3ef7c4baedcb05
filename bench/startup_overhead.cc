// Reproduces the §6 startup-overhead table: the fixed cost of opening a
// stripe descriptor plus N member files, creating the output stripe, and
// closing everything — measured with the real striping layer (Posix env in
// a temp directory), serially and with parallel (asynchronous) opens.

#include <cstdio>
#include <string>

#include "common/table.h"
#include "io/async_io.h"
#include "io/stripe.h"
#include "obs/sort_metrics.h"

using namespace alphasort;

namespace {

struct Timing {
  double open_in_s = 0;
  double create_out_s = 0;
  double close_s = 0;
};

Timing Measure(Env* env, const std::string& dir, size_t width,
               AsyncIO* aio) {
  const std::string in_def = dir + "in.str";
  const std::string out_def = dir + "out.str";
  WriteStripeDefinition(env, in_def,
                        MakeUniformStripe(dir + "in", width, 65536));
  WriteStripeDefinition(env, out_def,
                        MakeUniformStripe(dir + "out", width, 65536));
  // Pre-create input members (an input must exist to be opened).
  {
    auto f = StripeFile::Open(env, in_def, OpenMode::kCreateReadWrite);
    f.value()->Close();
  }

  Timing t;
  PhaseTimer timer;
  auto in = StripeFile::Open(env, in_def, OpenMode::kReadOnly, aio);
  t.open_in_s = timer.Lap();
  auto out = StripeFile::Open(env, out_def, OpenMode::kCreateReadWrite, aio);
  t.create_out_s = timer.Lap();
  in.value()->Close();
  out.value()->Close();
  t.close_s = timer.Lap();

  StripeFile::Remove(env, in_def);
  StripeFile::Remove(env, out_def);
  return t;
}

}  // namespace

int main() {
  printf("=== §6: fixed startup overhead of N-wide striping ===\n\n");

  Env* env = GetPosixEnv();
  const std::string dir = "/tmp/alphasort_startup_";
  AsyncIO aio(8);

  TextTable table({"stripe width", "open input (ms)", "create output (ms)",
                   "close all (ms)", "mode"});
  for (size_t width : {1, 4, 8, 16, 36}) {
    const Timing serial = Measure(env, dir, width, nullptr);
    const Timing parallel = Measure(env, dir, width, &aio);
    table.AddRow({StrFormat("%zu", width),
                  StrFormat("%.3f", serial.open_in_s * 1e3),
                  StrFormat("%.3f", serial.create_out_s * 1e3),
                  StrFormat("%.3f", serial.close_s * 1e3), "serial"});
    table.AddRow({"", StrFormat("%.3f", parallel.open_in_s * 1e3),
                  StrFormat("%.3f", parallel.create_out_s * 1e3),
                  StrFormat("%.3f", parallel.close_s * 1e3),
                  "parallel open"});
  }
  table.Print();

  printf("\nPaper's §6 numbers for 8-wide striping on a 200 MHz AXP:\n");
  TextTable paper({"step", "seconds"});
  paper.AddRow({"Load sort and process parameters", "0.11"});
  paper.AddRow({"Open stripe descriptor and eight input stripes", "0.02"});
  paper.AddRow({"Create and open descriptor and eight output stripes",
                "0.01"});
  paper.AddRow({"Close 18 input and output files and descriptors", "0.01"});
  paper.AddRow({"Return to shell", "0.05"});
  paper.AddRow({"Total overhead", "0.19"});
  paper.Print();

  printf(
      "\nShape check: overhead grows with stripe width but stays in the\n"
      "milliseconds — 'relatively small overhead' — and asynchronous\n"
      "(NoWait) opens keep the N-wide open close to the 1-wide cost,\n"
      "'so there is little increase in elapsed time'.\n");
  return 0;
}
