#ifndef ALPHASORT_PERFBENCH_RAM_ENV_H_
#define ALPHASORT_PERFBENCH_RAM_ENV_H_

#include <memory>

#include "io/env.h"

namespace alphasort {
namespace perfbench {

// The in-memory filesystem the benchmark's sorts read from and write to.
// It keeps the semantics of the library's NewMemEnv() (io/env.h: handles
// share bytes, DeleteFile unlinks but open handles keep the bytes,
// kCreateReadWrite truncates, a closed handle fails), and differs in how
// it stores them:
//   - A file is a list of fixed 1 MiB blocks. Blocks freed by a delete or
//     a truncate go to a pool the next file draws from, so once warm no
//     sort pays to grow a file (a vector-backed file reallocates, copies
//     and zero-fills as it grows, and a fresh one page-faults) — a cost
//     a real filesystem does not have.
//   - Blocks come from malloc, not operator new, so the heap count of
//     heap_probe.cc sees the sort's own memory and not its files'.
// One mutex per file serializes its reads and writes, as in MemEnv.
std::unique_ptr<Env> NewRamEnv();

}  // namespace perfbench
}  // namespace alphasort

#endif  // ALPHASORT_PERFBENCH_RAM_ENV_H_
