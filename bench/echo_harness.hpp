// Two-node echo harness shared by the DNE ablation benches: `tenants`
// single-hop echo chains, each driven by closed-loop clients on node 1
// against its function on node 2, for a fixed simulated window.
#pragma once

#include <array>
#include <memory>
#include <vector>

#include "core/engine.hpp"
#include "rdma/rnic.hpp"
#include "runtime/cluster.hpp"
#include "runtime/function.hpp"
#include "sim/parallel.hpp"
#include "workload/driver.hpp"

namespace pd::bench {

inline constexpr NodeId kEchoClientNode{1};
inline constexpr NodeId kEchoServerNode{2};
inline constexpr sim::Duration kEchoRun = 1'500'000'000;

struct EchoResult {
  double rps = 0;  ///< completed, non-error requests per simulated second
  /// Requests that came back as explicit error completions (a run whose
  /// RPS collapses shows why here, not as a silently small number).
  std::uint64_t failed = 0;
  double p99_us = 0;
  std::uint64_t rnr = 0;         ///< RNR events, both nodes
  std::uint64_t cache_miss = 0;  ///< QP-cache-miss WRs, both nodes
  /// Per-node counters, indexed 0 = client node, 1 = server node.
  std::array<core::EngineCounters, 2> engine{};
  std::array<rdma::RnicCounters, 2> rnic{};
};

inline EchoResult run_echo(core::EngineConfig engine_cfg, int tenants,
                           int clients) {
  sim::ParallelSim psim(1);
  sim::Scheduler& sched = psim.shard(0);
  runtime::ClusterConfig cfg;
  cfg.system = runtime::SystemKind::kPalladiumDne;
  cfg.engine = engine_cfg;
  cfg.pool_buffers = 2048;
  cfg.buffer_bytes = 4096;
  cfg.cpu_cores_per_node = 32;
  auto cluster = std::make_unique<runtime::Cluster>(psim, cfg);
  cluster->add_worker(kEchoClientNode);
  cluster->add_worker(kEchoServerNode);

  std::vector<std::unique_ptr<workload::ChainDriver>> drivers;
  for (int t = 1; t <= tenants; ++t) {
    const TenantId tenant{static_cast<std::uint32_t>(t)};
    cluster->add_tenant(tenant, 1);
    const FunctionId fn{static_cast<std::uint32_t>(t)};
    cluster->deploy(runtime::FunctionSpec{fn, "echo", tenant},
                    kEchoServerNode);
    cluster->add_chain(runtime::Chain{static_cast<std::uint32_t>(t), "echo",
                                      tenant, 128,
                                      {{fn, 3'000, 128}}});
    drivers.push_back(std::make_unique<workload::ChainDriver>(
        *cluster, FunctionId{1000 + static_cast<std::uint32_t>(t)},
        kEchoClientNode, static_cast<std::uint32_t>(t)));
  }
  cluster->finish_setup();
  for (auto& d : drivers) d->start(clients);
  psim.run_until(sched.now() + kEchoRun);
  for (auto& d : drivers) d->stop();
  psim.run();

  EchoResult r;
  std::uint64_t total = 0;
  sim::LatencyHistogram merged;
  for (auto& d : drivers) {
    total += d->completed();
    r.failed += d->failed();
    merged.merge(d->latencies());
  }
  r.rps = static_cast<double>(total) / sim::to_sec(kEchoRun);
  r.p99_us = sim::to_us(merged.quantile(0.99));
  std::size_t i = 0;
  for (const NodeId n : {kEchoClientNode, kEchoServerNode}) {
    auto& node = cluster->worker(n);
    r.engine[i] = node.palladium_engine()->counters();
    r.rnic[i] = node.rnic()->counters();
    r.rnr += r.rnic[i].rnr_events;
    r.cache_miss += r.rnic[i].cache_miss_wrs;
    ++i;
  }
  return r;
}

}  // namespace pd::bench
