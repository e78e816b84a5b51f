// White-box tests of the baseline data planes: SPRIGHT's TCP relay pays
// serialization copies; FUYAO's one-sided engine respects its credit
// window and pins a polling core. Baselines run on a one-shard
// ParallelSim (every worker on shard 0); they replay bit-identically there
// and refuse a multi-shard simulator outright.
#include <gtest/gtest.h>

#include <tuple>

#include "baselines/fuyao_engine.hpp"
#include "baselines/tcp_engine.hpp"
#include "common/check.hpp"
#include "runtime/cluster.hpp"
#include "runtime/function.hpp"
#include "sim/parallel.hpp"
#include "workload/driver.hpp"

namespace pd::baselines {
namespace {

constexpr NodeId kNode1{1};
constexpr NodeId kNode2{2};
constexpr TenantId kTenant{1};
constexpr FunctionId kFnA{1};
constexpr FunctionId kFnB{2};

std::unique_ptr<runtime::Cluster> cross_node_cluster(sim::ParallelSim& psim,
                                                     runtime::SystemKind sys) {
  runtime::ClusterConfig cfg;
  cfg.system = sys;
  cfg.pool_buffers = 256;
  auto cluster = std::make_unique<runtime::Cluster>(psim, cfg);
  cluster->add_worker(kNode1);
  cluster->add_worker(kNode2);
  cluster->add_tenant(kTenant, 1);
  cluster->deploy(runtime::FunctionSpec{kFnA, "a", kTenant}, kNode1);
  cluster->deploy(runtime::FunctionSpec{kFnB, "b", kTenant}, kNode2);
  cluster->add_chain(runtime::Chain{1, "ab", kTenant, 512,
                                    {{kFnA, 1'000, 512}, {kFnB, 1'000, 512}}});
  return cluster;
}

TEST(TcpRelay, RelaysAcrossNodesAndCountsMessages) {
  sim::ParallelSim psim(1);
  auto cluster = cross_node_cluster(psim, runtime::SystemKind::kSpright);
  workload::ChainDriver driver(*cluster, FunctionId{100}, kNode1, 1);
  cluster->finish_setup();
  driver.start(2);
  psim.run_until(psim.shard(0).now() + 500'000'000);
  driver.stop();
  psim.run();

  ASSERT_GT(driver.completed(), 10u);
  auto* relay1 = dynamic_cast<TcpRelayEngine*>(&cluster->worker(kNode1).dataplane());
  auto* relay2 = dynamic_cast<TcpRelayEngine*>(&cluster->worker(kNode2).dataplane());
  ASSERT_NE(relay1, nullptr);
  ASSERT_NE(relay2, nullptr);
  // Per request: A->B crossing on node 1, B->entry crossing on node 2.
  EXPECT_GE(relay1->relayed(), driver.completed());
  EXPECT_GE(relay2->relayed(), driver.completed());
}

TEST(TcpRelay, RelayEngineChargesCpuForCopies) {
  sim::ParallelSim psim(1);
  auto cluster = cross_node_cluster(psim, runtime::SystemKind::kSpright);
  workload::ChainDriver driver(*cluster, FunctionId{100}, kNode1, 1);
  cluster->finish_setup();
  const auto before = cluster->worker(kNode1).engine_core().busy_ns();
  driver.start(1);
  psim.run_until(psim.shard(0).now() + 200'000'000);
  driver.stop();
  psim.run();
  // Serialization + TCP stack work must show up on the relay core.
  EXPECT_GT(cluster->worker(kNode1).engine_core().busy_ns() - before,
            static_cast<sim::Duration>(driver.completed()) * 10'000);
}

TEST(Fuyao, PinsAPollingCorePerNode) {
  sim::ParallelSim psim(1);
  auto cluster = cross_node_cluster(psim, runtime::SystemKind::kFuyao);
  cluster->finish_setup();
  EXPECT_TRUE(cluster->worker(kNode1).engine_core().busy_poll());
  EXPECT_TRUE(cluster->worker(kNode2).engine_core().busy_poll());
  // The Palladium DNE variant, by contrast, pins a DPU core, not a host one.
  sim::ParallelSim psim2(1);
  auto pall = cross_node_cluster(psim2, runtime::SystemKind::kPalladiumDne);
  pall->finish_setup();
  EXPECT_TRUE(pall->worker(kNode1).engine_core().busy_poll());
  EXPECT_EQ(&pall->worker(kNode1).engine_core(),
            &pall->worker(kNode1).dpu()->core(0));
}

TEST(Fuyao, CreditWindowNeverOverflowsStaging) {
  // Push far more concurrent requests than staging slots: the credit
  // window must backpressure (queue at the sender) rather than overwrite
  // slots in flight.
  sim::ParallelSim psim(1);
  runtime::ClusterConfig cfg;
  cfg.system = runtime::SystemKind::kFuyao;
  cfg.pool_buffers = 2048;
  auto cluster = std::make_unique<runtime::Cluster>(psim, cfg);
  cluster->add_worker(kNode1);
  cluster->add_worker(kNode2);
  cluster->add_tenant(kTenant, 1);
  cluster->deploy(runtime::FunctionSpec{kFnB, "b", kTenant}, kNode2);
  cluster->add_chain(runtime::Chain{1, "b", kTenant, 256,
                                    {{kFnB, 500, 256}}});
  workload::ChainDriver driver(*cluster, FunctionId{100}, kNode1, 1);
  cluster->finish_setup();
  driver.start(256);  // >> 64 staging slots
  psim.run_until(psim.shard(0).now() + 1'000'000'000);
  driver.stop();
  psim.run();
  EXPECT_GT(driver.completed(), 1000u);
  // All requests eventually completed (none lost to slot overwrites).
  EXPECT_EQ(driver.latencies().count(), driver.completed());
}

TEST(Fuyao, PalladiumOutpacesFuyaoUnderLoad) {
  // At light load FUYAO's short skmsg+poll path can beat Comch-E's wakeup
  // latency; under concurrency its CPU-resident polling engine (interrupt
  // wakeups per message, receiver-side copies) saturates first — the §4.3
  // comparison point.
  auto throughput = [](runtime::SystemKind sys) {
    sim::ParallelSim psim(1);
    auto cluster = cross_node_cluster(psim, sys);
    workload::ChainDriver driver(*cluster, FunctionId{100}, kNode1, 1);
    cluster->finish_setup();
    driver.start(64);
    psim.run_until(psim.shard(0).now() + 1'000'000'000);
    driver.stop();
    psim.run();
    return driver.completed();
  };
  const auto palladium = throughput(runtime::SystemKind::kPalladiumDne);
  const auto fuyao = throughput(runtime::SystemKind::kFuyao);
  EXPECT_GT(palladium, fuyao);
}

/// One fixed-seed closed-loop run of `sys` on a one-shard ParallelSim:
/// completions, latency quantiles, events and the data plane's end time.
std::tuple<std::uint64_t, double, std::int64_t, std::uint64_t, sim::TimePoint>
one_shard_run(runtime::SystemKind sys) {
  sim::ParallelSim psim(1);
  auto cluster = cross_node_cluster(psim, sys);
  workload::ChainDriver driver(*cluster, FunctionId{100}, kNode1, 1);
  cluster->finish_setup();
  driver.start(8);
  psim.run_until(psim.shard(0).now() + 200'000'000);
  driver.stop();
  psim.run();
  EXPECT_GT(driver.completed(), 100u) << runtime::to_string(sys);
  return {driver.completed(), driver.latencies().mean_ns(),
          driver.latencies().quantile(0.99), psim.events_processed(),
          psim.shard(0).now()};
}

TEST(OneShard, SprightReplaysBitIdentically) {
  EXPECT_EQ(one_shard_run(runtime::SystemKind::kSpright),
            one_shard_run(runtime::SystemKind::kSpright));
}

TEST(OneShard, FuyaoReplaysBitIdentically) {
  EXPECT_EQ(one_shard_run(runtime::SystemKind::kFuyao),
            one_shard_run(runtime::SystemKind::kFuyao));
}

TEST(OneShard, BaselineRejectsMultiShardSimulator) {
  for (runtime::SystemKind sys :
       {runtime::SystemKind::kSpright, runtime::SystemKind::kNightcore,
        runtime::SystemKind::kFuyao}) {
    sim::ParallelSim psim(3);
    runtime::ClusterConfig cfg;
    cfg.system = sys;
    EXPECT_THROW({ runtime::Cluster cluster(psim, cfg); }, CheckFailure)
        << runtime::to_string(sys);
  }
}

}  // namespace
}  // namespace pd::baselines
