// Thread-local observability hub.
//
// Instrumentation sites deep in the data plane (engine, RNIC, function
// runtime) reach the tracer and metrics registry through obs::hub() rather
// than through constructor plumbing. The hub is per thread: the parallel
// simulation's shard hooks install each shard's own hub around its execute
// phase, so recording needs no cross-thread sharing, and a null hub makes
// every instrumentation site a single-branch no-op -- benches that do not
// attach an exporter pay nothing. The shards' hubs fold into one with
// Hub::absorb after the run.
//
// Usage:
//   obs::Hub hub;                       // owns Registry + Tracer + ...
//   ... build the cluster, run it ...
//   cluster.merge_observability(hub);   // fold every shard hub into `hub`
//   hub.tracer.write_chrome_json("trace.json");
#pragma once

#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/slo.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "sim/profile.hpp"

namespace pd::obs {

/// Every sink, plus the one busy-time observer that feeds two of them: each
/// charge a core or DMA engine reports goes to `profiler` when `profiling`
/// is set and to `ledger` when it is enabled.
struct Hub final : sim::BusyObserver {
  Registry registry;
  Tracer tracer{&registry};
  Profiler profiler;
  SloWatchdog slo{&registry};
  FlightRecorder timeseries;
  Ledger ledger;
  bool profiling = false;

  /// True when some sink consumes busy charges, i.e. when installing this
  /// hub as the thread's busy observer records anything.
  [[nodiscard]] bool observes_busy() const {
    return profiling || ledger.enabled();
  }

  void on_busy(std::string_view resource, const sim::ProfileFrame& frame,
               sim::TimePoint submitted, sim::TimePoint begin,
               sim::Duration scaled_ns, std::uint64_t bytes) override;

  /// Fold a shard's hub into this one: close the shard's trailing SLO
  /// window at `shard_end` (its final simulated time) so partial-window
  /// alerts are not lost, then merge registry, spans, profile, ledger, SLO
  /// state and flight series. The donor is emptied, so a second fold
  /// cannot double-count. Call in fixed shard order, then
  /// tracer.resolve_foreign_ends() once, for a deterministic merge.
  void absorb(Hub& shard, sim::TimePoint shard_end);
};

/// This thread's hub, or nullptr when observability is off.
[[nodiscard]] Hub* hub();

/// Install `h` as THIS thread's hub (nullptr uninstalls). Returns the
/// previous hub so callers can restore it.
Hub* install_thread_hub(Hub* h);

/// RAII installer of a hub on the calling thread; restores the previous
/// one on destruction.
class Session {
 public:
  explicit Session(Hub& h) : prev_(install_thread_hub(&h)) {}
  ~Session() { install_thread_hub(prev_); }
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

 private:
  Hub* prev_;
};

}  // namespace pd::obs
