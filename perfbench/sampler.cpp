#include "sampler.hpp"

#include <link.h>
#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>

#include <atomic>
#include <cstring>
#include <stdexcept>
#include <vector>

namespace perfbench {
namespace {

constexpr std::size_t kCapacity = 1 << 21;

// Written only by the signal handler; a slot is claimed with one atomic
// increment, so the handler stays async-signal-safe.
std::uintptr_t g_pcs[kCapacity];
std::atomic<std::size_t> g_next{0};

void on_prof(int, siginfo_t*, void* uctx) {
  const std::size_t i = g_next.fetch_add(1, std::memory_order_relaxed);
  if (i >= kCapacity) return;
  const auto* uc = static_cast<const ucontext_t*>(uctx);
#if defined(__x86_64__)
  g_pcs[i] = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  g_pcs[i] = static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
#else
#error "sampler: unsupported architecture"
#endif
}

struct Segment {
  std::uintptr_t lo = 0;
  std::uintptr_t hi = 0;
  std::uintptr_t bias = 0;
  std::string object;  ///< empty = the executable
};

int collect_segment(dl_phdr_info* info, std::size_t, void* out) {
  auto& segs = *static_cast<std::vector<Segment>*>(out);
  for (int i = 0; i < info->dlpi_phnum; ++i) {
    const ElfW(Phdr)& ph = info->dlpi_phdr[i];
    if (ph.p_type != PT_LOAD) continue;
    Segment s;
    s.lo = info->dlpi_addr + ph.p_vaddr;
    s.hi = s.lo + ph.p_memsz;
    s.bias = info->dlpi_addr;
    const char* name = info->dlpi_name;
    if (name != nullptr && name[0] != '\0') {
      const char* slash = std::strrchr(name, '/');
      s.object = slash != nullptr ? slash + 1 : name;
    }
    segs.push_back(std::move(s));
  }
  return 0;
}

}  // namespace

void start_sampling(long period_us) {
  g_next.store(0, std::memory_order_relaxed);
  struct sigaction sa {};
  sa.sa_sigaction = on_prof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, nullptr) != 0) {
    throw std::runtime_error("sampler: sigaction failed");
  }
  itimerval tv{};
  tv.it_interval.tv_usec = period_us;
  tv.it_value.tv_usec = period_us;
  if (setitimer(ITIMER_PROF, &tv, nullptr) != 0) {
    throw std::runtime_error("sampler: setitimer failed");
  }
}

SampleCounts stop_sampling() {
  itimerval off{};
  setitimer(ITIMER_PROF, &off, nullptr);
  signal(SIGPROF, SIG_IGN);
  std::vector<Segment> segs;
  dl_iterate_phdr(collect_segment, &segs);
  SampleCounts out;
  const std::size_t n = g_next.load(std::memory_order_relaxed);
  const std::size_t kept = n < kCapacity ? n : kCapacity;
  out.total = kept;
  for (std::size_t i = 0; i < kept; ++i) {
    const std::uintptr_t pc = g_pcs[i];
    const Segment* hit = nullptr;
    for (const Segment& s : segs) {
      if (pc >= s.lo && pc < s.hi) {
        hit = &s;
        break;
      }
    }
    if (hit == nullptr) {
      ++out.libs["[unmapped]"];
    } else if (hit->object.empty()) {
      ++out.exe[pc - hit->bias];
    } else {
      ++out.libs[hit->object];
    }
  }
  return out;
}

}  // namespace perfbench
