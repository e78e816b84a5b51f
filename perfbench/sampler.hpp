// Host self-time attribution from outside the program: a profiling-timer
// (ITIMER_PROF) signal handler stores the interrupted program counter, and
// after the run every PC is mapped to the loaded object that holds it.
// PCs inside the executable are reported as link-time addresses, which the
// runner resolves against the executable's symbol table.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

struct SampleCounts {
  std::map<std::uintptr_t, std::uint64_t> exe;  ///< link-time PC -> samples
  std::map<std::string, std::uint64_t> libs;    ///< shared object -> samples
  std::uint64_t total = 0;
};

/// Start sampling every `period_us` of process CPU time (all threads).
void start_sampling(long period_us);
/// Stop sampling and attribute the stored PCs.
SampleCounts stop_sampling();

}  // namespace perfbench
