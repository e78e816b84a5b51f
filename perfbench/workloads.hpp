// The benchmark's three workloads, assembled only from the simulator's public
// layer APIs on the sharded ParallelSim simulator (Cluster, OnlineBoutique,
// PalladiumIngress, HttpLoadGen, AdmissionController, EdgeController,
// enable_cart_store). Each setup call group is timed from outside and
// recorded as a host-time span.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "control/admission.hpp"
#include "control/autoscaler.hpp"
#include "ingress/palladium_ingress.hpp"
#include "obs/trace.hpp"
#include "runtime/cluster.hpp"
#include "sim/parallel.hpp"
#include "workload/http_client.hpp"

namespace perfbench {

/// Harness-side spans in host time (ns since the harness started), written
/// as Chrome/Perfetto JSON that trace_inspect reads.
class HostSpans {
 public:
  HostSpans();
  /// Host ns since construction.
  [[nodiscard]] std::int64_t now() const;
  /// Run `fn` inside a span named `name` on `track`; returns its seconds.
  template <class F>
  double time(const char* track, const char* name, F&& fn) {
    const std::int64_t t0 = now();
    const std::uint32_t id =
        tracer_.begin_span(ctx_.trace_id, ctx_.root_span, name, track, t0);
    fn();
    const std::int64_t t1 = now();
    tracer_.end_span(id, t1);
    return static_cast<double>(t1 - t0) / 1e9;
  }
  /// Close the root span and write the trace.
  void write(const std::string& path);

 private:
  std::int64_t origin_ = 0;
  pd::obs::Tracer tracer_;
  pd::obs::TraceContext ctx_;
};

/// One client population and the page it drives.
struct Page {
  std::string target;
  /// Explicit 429s from the admission gate are part of the workload's
  /// design (best-effort batch traffic); every other non-2xx is a failure.
  bool sheds_expected = false;
};

/// Host wall seconds of each setup call group.
struct SetupTimes {
  double cluster = 0;   ///< ParallelSim + Cluster ctor + add_worker
  double deploy = 0;    ///< deploy / deploy_cells / add_tenant / cart store
  double ingress = 0;   ///< PalladiumIngress ctor + expose_chain + its setup
  double finish = 0;    ///< Cluster::finish_setup (QP mesh, lookahead matrix)
  /// Load generators and their clients, plus any controllers and
  /// observability sinks the workload turns on.
  double workload = 0;
  [[nodiscard]] double total() const {
    return cluster + deploy + ingress + finish + workload;
  }
};

/// A constructed workload, ready for its first simulated event. Members are
/// declared in dependency order so destruction runs consumers first.
struct Workload {
  unsigned threads = 1;
  /// Times the harness builds this workload per run; setup_s is their
  /// median, so one slow set-up (a page-fault storm, an allocator resize)
  /// does not move it.
  int setups = 1;
  pd::sim::Duration warmup = 0;      ///< excluded from every metric
  pd::sim::Duration ref_window = 0;  ///< fixed simulated span after warm-up
  bool ledger = false;

  std::unique_ptr<pd::sim::ParallelSim> psim;
  std::unique_ptr<pd::runtime::Cluster> cluster;
  std::unique_ptr<pd::control::AdmissionController> admission;
  std::unique_ptr<pd::ingress::PalladiumIngress> ingress;
  std::unique_ptr<pd::control::EdgeController> edge;
  std::vector<Page> pages;
  std::vector<std::unique_ptr<pd::workload::HttpLoadGen>> gens;
  SetupTimes setup;
};

/// Names accepted by build().
const std::vector<std::string>& workload_names();

/// Build workload `name` with ClusterConfig::seed = `seed`. `threads` = 0
/// keeps the workload's own thread count. `trace_every` > 0 turns on the
/// program's request tracing (every n-th request).
std::unique_ptr<Workload> build(const std::string& name, std::uint64_t seed,
                                unsigned threads, std::uint64_t trace_every,
                                HostSpans& spans);

}  // namespace perfbench
