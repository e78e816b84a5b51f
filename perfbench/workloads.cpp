#include "workloads.hpp"

#include <chrono>
#include <stdexcept>

#include "runtime/boutique.hpp"

namespace perfbench {

using namespace pd;
using runtime::OnlineBoutique;

HostSpans::HostSpans() {
  origin_ = std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now().time_since_epoch())
                .count();
  tracer_.set_sample_every(1);
  ctx_ = tracer_.start_trace("harness", 0);
}

std::int64_t HostSpans::now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
             .count() -
         origin_;
}

void HostSpans::write(const std::string& path) {
  tracer_.end_span(ctx_.root_span, now());
  tracer_.write_chrome_json(path);
}

namespace {

constexpr const char* kSetup = "harness/setup";

void add_gen(Workload& w, Page page, sim::Scheduler& edge,
             workload::HttpLoadGen::Config cfg, int clients) {
  cfg.target = page.target;
  w.gens.push_back(
      std::make_unique<workload::HttpLoadGen>(edge, *w.ingress, cfg));
  w.gens.back()->add_clients(clients);
  w.pages.push_back(std::move(page));
}

// The perf_gate cluster shape: 16 host cores and 2048-buffer pools.
runtime::ClusterConfig gate_config(std::uint64_t seed) {
  runtime::ClusterConfig cfg;
  cfg.system = runtime::SystemKind::kPalladiumDne;
  cfg.cpu_cores_per_node = 16;
  cfg.pool_buffers = 2048;
  cfg.seed = seed;
  return cfg;
}

// The perf_gate gateway: two workers and no request deadline (closed-loop
// clients would otherwise feed a retry storm that measures SLO machinery,
// not the data plane).
ingress::PalladiumIngress::Config gate_ingress() {
  ingress::PalladiumIngress::Config icfg;
  icfg.initial_workers = 2;
  icfg.request_deadline = 0;
  return icfg;
}

// Two nodes, one Online Boutique /home chain, 60 closed-loop clients, no
// observability sink: per-event data-plane cost and per-epoch PDES overhead
// dominate, with no thread handoff.
void build_pair_home(Workload& w, std::uint64_t seed, HostSpans& spans) {
  w.setups = 9;
  w.warmup = 100'000'000;
  w.ref_window = 200'000'000;
  const runtime::ClusterConfig cfg = gate_config(seed);
  w.setup.cluster = spans.time(kSetup, "runtime.cluster_setup", [&] {
    w.psim = std::make_unique<sim::ParallelSim>(3, w.threads);
    w.cluster = std::make_unique<runtime::Cluster>(*w.psim, cfg);
    w.cluster->add_worker(NodeId{1});
    w.cluster->add_worker(NodeId{2});
  });
  w.setup.deploy = spans.time(kSetup, "runtime.deploy", [&] {
    OnlineBoutique::deploy(*w.cluster, NodeId{1}, NodeId{2});
  });
  w.setup.ingress = spans.time(kSetup, "ingress.setup", [&] {
    w.ingress =
        std::make_unique<ingress::PalladiumIngress>(*w.cluster, gate_ingress());
    w.ingress->expose_chain("/home", OnlineBoutique::kHomeQuery);
    w.ingress->finish_setup();
  });
  w.setup.finish = spans.time(kSetup, "rdma.finish_setup",
                              [&] { w.cluster->finish_setup(); });
  w.setup.workload = spans.time(kSetup, "workload.setup", [&] {
    workload::HttpLoadGen::Config wcfg;
    wcfg.body = std::string(128, 'x');
    wcfg.client_cores = 60;
    add_gen(w, {"/home"}, w.cluster->scheduler(), wcfg, 60);
  });
}

// The 32-worker scale point: 4 leaves of 8 workers with 4:1 uplinks, 16
// leaf-affine boutique cells, 128 clients, one shard per leaf. The PDES
// barrier and mailbox protocol, per-node memory and setup dominate.
void build_leafspine(Workload& w, std::uint64_t seed, HostSpans& spans) {
  constexpr std::size_t kNodes = 32;
  constexpr std::size_t kPerSwitch = 8;
  constexpr std::size_t kCells = 16;
  constexpr int kClients = 128;
  w.setups = 5;
  w.warmup = 50'000'000;
  w.ref_window = 100'000'000;
  runtime::ClusterConfig cfg = gate_config(seed);
  cfg.topology.nodes_per_switch = kPerSwitch;
  cfg.shard_mapping = runtime::ShardMapping::kLeafPerShard;
  std::vector<NodeId> nodes;
  w.setup.cluster = spans.time(kSetup, "runtime.cluster_setup", [&] {
    w.psim = std::make_unique<sim::ParallelSim>(1 + kNodes / kPerSwitch,
                                                w.threads);
    w.cluster = std::make_unique<runtime::Cluster>(*w.psim, cfg);
    for (std::size_t i = 0; i < kNodes; ++i) {
      nodes.push_back(NodeId{static_cast<std::uint32_t>(1 + i)});
      w.cluster->add_worker(nodes.back());
    }
  });
  std::vector<OnlineBoutique::Cell> cells;
  w.setup.deploy = spans.time(kSetup, "runtime.deploy", [&] {
    cells = OnlineBoutique::deploy_cells(*w.cluster, nodes, kCells);
  });
  const auto route = [](std::uint32_t cell) {
    return "/home#" + std::to_string(cell);
  };
  w.setup.ingress = spans.time(kSetup, "ingress.setup", [&] {
    w.ingress =
        std::make_unique<ingress::PalladiumIngress>(*w.cluster, gate_ingress());
    for (const auto& cell : cells) {
      w.ingress->expose_chain(route(cell.index), cell.home_query);
    }
    w.ingress->finish_setup();
  });
  w.setup.finish = spans.time(kSetup, "rdma.finish_setup",
                              [&] { w.cluster->finish_setup(); });
  w.setup.workload = spans.time(kSetup, "workload.setup", [&] {
    const int per_cell = kClients / static_cast<int>(kCells);
    for (const auto& cell : cells) {
      workload::HttpLoadGen::Config wcfg;
      wcfg.body = std::string(128, 'x');
      wcfg.client_cores = per_cell;
      add_gen(w, {route(cell.index)}, w.cluster->scheduler(), wcfg,
              per_cell);
    }
  });
}

// Two tenants on two nodes with the closed control loop and the ledger,
// profiler and flight recorder on. The protected shop tenant drives a page
// mix over the RDMA cart store (READ for /viewcart, the CAS->FAA->WRITE->CAS
// ladder for /addtocart, two-sided sends for /home and /checkout); a
// best-effort batch tenant runs the noisy-neighbor shape beside it.
void build_tenant_cart(Workload& w, std::uint64_t seed, HostSpans& spans) {
  constexpr TenantId kBatchTenant{2};
  constexpr FunctionId kBatcher{20};
  constexpr FunctionId kCruncher{21};
  constexpr std::uint32_t kBatchChain = 100;
  constexpr NodeId kHot{1};
  constexpr NodeId kCold{2};
  w.setups = 9;
  w.warmup = 500'000'000;
  w.ref_window = 200'000'000;
  w.ledger = true;
  runtime::ClusterConfig cfg;
  cfg.system = runtime::SystemKind::kPalladiumDne;
  cfg.cpu_cores_per_node = 16;
  cfg.seed = seed;
  // Per-tenant credit gate with pinned engine capacity and small in-fabric
  // credit slices, so the batch tenant genuinely contends with the shop.
  cfg.engine.tenant_admission = true;
  cfg.engine.extra_per_msg_ns = 1'000;
  cfg.engine.max_unacked = 128;
  w.setup.cluster = spans.time(kSetup, "runtime.cluster_setup", [&] {
    w.psim = std::make_unique<sim::ParallelSim>(3, w.threads);
    w.cluster = std::make_unique<runtime::Cluster>(*w.psim, cfg);
    w.cluster->add_worker(kHot);
    w.cluster->add_worker(kCold);
  });
  w.setup.deploy = spans.time(kSetup, "runtime.deploy", [&] {
    OnlineBoutique::deploy(*w.cluster, kHot, kCold, /*cart_store=*/true);
    w.cluster->enable_cart_store(kCold);
    w.cluster->add_tenant(kBatchTenant, /*weight=*/1);
    w.cluster->deploy({kBatcher, "batcher", kBatchTenant}, kHot);
    w.cluster->deploy({kCruncher, "cruncher", kBatchTenant}, kCold);
    w.cluster->add_chain(runtime::Chain{kBatchChain, "Batch", kBatchTenant,
                                        1024,
                                        {{kBatcher, 3'000, 1024},
                                         {kCruncher, 20'000, 4096},
                                         {kBatcher, 2'000, 1024}}});
  });
  w.admission = std::make_unique<control::AdmissionController>();
  w.setup.ingress = spans.time(kSetup, "ingress.setup", [&] {
    ingress::PalladiumIngress::Config icfg;
    icfg.initial_workers = 1;
    icfg.max_workers = 8;
    // No request deadline: a slow request completes late instead of being
    // answered 504, and a lost one shows as sent != completed + errors.
    icfg.request_deadline = 0;
    icfg.admission = w.admission.get();
    w.ingress = std::make_unique<ingress::PalladiumIngress>(*w.cluster, icfg);
    w.ingress->expose_chain("/home", OnlineBoutique::kHomeQuery);
    w.ingress->expose_chain("/viewcart", OnlineBoutique::kViewCart);
    w.ingress->expose_chain("/addtocart", OnlineBoutique::kAddToCart);
    w.ingress->expose_chain("/checkout", OnlineBoutique::kCheckoutChain);
    w.ingress->expose_chain("/batch", kBatchChain);
    w.ingress->finish_setup();
  });
  w.setup.finish = spans.time(kSetup, "rdma.finish_setup",
                              [&] { w.cluster->finish_setup(); });
  w.setup.workload += spans.time(kSetup, "obs.setup", [&] {
    w.cluster->enable_ledger();
    w.ingress->attach_pool_clock();
    w.cluster->enable_shard_profiling();
    w.cluster->start_flight_recorder({});
    w.ingress->start_flight_probes();
  });
  sim::Scheduler& edge = w.cluster->scheduler();
  w.setup.workload += spans.time(kSetup, "control.setup", [&] {
    w.admission->add_policy({OnlineBoutique::kTenant, /*priority=*/1,
                             /*rate_rps=*/200'000, /*burst=*/64});
    w.admission->add_policy({kBatchTenant, /*priority=*/0, /*rate_rps=*/200,
                             /*burst=*/8});
    w.cluster->add_slo({.name = "shop-home",
                        .tenant = OnlineBoutique::kTenant,
                        .chain = OnlineBoutique::kHomeQuery,
                        .target_ns = 2'500'000});
    w.cluster->add_slo({.name = "shop-all",
                        .tenant = OnlineBoutique::kTenant,
                        .target_ns = 2'000'000,
                        .budget = 0.05});
    w.cluster->add_slo({.name = "batch",
                        .tenant = kBatchTenant,
                        .target_ns = 20'000'000,
                        .budget = 0.25});
    control::EdgeControllerConfig ecfg;
    ecfg.pending_up = 24;
    ecfg.pressure_slo = "shop-all";
    ecfg.shed_policy = control::ShedPolicy::kBlame;
    ecfg.protected_tenant = OnlineBoutique::kTenant;
    ecfg.pressure_off = 0.25;
    ecfg.pressure_off_hysteresis = 40;
    w.edge = std::make_unique<control::EdgeController>(
        *w.ingress, w.admission.get(), edge, ecfg);
    w.edge->start();
  });
  w.setup.workload += spans.time(kSetup, "workload.setup", [&] {
    workload::HttpLoadGen::Config wcfg;
    wcfg.body = R"({"session":"u-1234","currency":"EUR"})";
    wcfg.client_cores = 8;
    add_gen(w, {"/home"}, edge, wcfg, 6);
    add_gen(w, {"/viewcart"}, edge, wcfg, 4);
    add_gen(w, {"/addtocart"}, edge, wcfg, 2);
    add_gen(w, {"/checkout"}, edge, wcfg, 4);
    wcfg.error_backoff = 1'000'000;
    add_gen(w, {"/batch", /*sheds_expected=*/true}, edge, wcfg, 16);
  });
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"pair_home", "leafspine_scale",
                                              "tenant_cart"};
  return names;
}

std::unique_ptr<Workload> build(const std::string& name, std::uint64_t seed,
                                unsigned threads, std::uint64_t trace_every,
                                HostSpans& spans) {
  auto w = std::make_unique<Workload>();
  if (name == "pair_home") {
    w->threads = threads > 0 ? threads : 1;
    build_pair_home(*w, seed, spans);
  } else if (name == "leafspine_scale") {
    w->threads = threads > 0 ? threads : 4;
    build_leafspine(*w, seed, spans);
  } else if (name == "tenant_cart") {
    w->threads = threads > 0 ? threads : 1;
    build_tenant_cart(*w, seed, spans);
  } else {
    throw std::invalid_argument("unknown workload " + name);
  }
  if (trace_every > 0) {
    w->setup.workload += spans.time(kSetup, "obs.enable_tracing", [&] {
      w->cluster->enable_shard_tracing(trace_every);
    });
  }
  return w;
}

}  // namespace perfbench
