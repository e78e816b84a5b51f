// Figure 12 (§4.1.2): selection of RDMA primitives for the lock-free
// zero-copy data plane. Two DNEs on different worker nodes act as an echo
// client/server pair, one core each, over four designs:
//   two-sided (Palladium), OWRC-Best (one-sided write + cache-hot receiver
//   copy), OWRC-Worst (TLB-flushed copy), OWDL (one-sided write +
//   distributed RDMA-CAS locks), and — the ISSUE 8 ablation axis — a pure
//   one-sided READ fetch where the server never runs at all.
// Output: (1) mean end-to-end echo latency per message size; (2) RPS at
// concurrency 8.
//
// `--cart-store [--threads N] [--seconds S] [--json PATH]` runs the
// application-level ablation instead: the boutique's cart-touching chains
// over RPC vs the RDMA-resident state store (scenarios/cartstore_bench.hpp).
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_common.hpp"
#include "core/onesided.hpp"
#include "proto/cost_model.hpp"
#include "rdma/rnic.hpp"
#include "scenarios/cartstore_bench.hpp"

namespace {

using namespace pd;

constexpr TenantId kTenant{1};
constexpr NodeId kNode1{1};
constexpr NodeId kNode2{2};

struct Result {
  double mean_us = 0;
  double rps = 0;
};

/// Variant 4: state-fetch over one-sided READ. The "server" is a passive
/// slab — pre-allocated slots in its unified pool — and never executes an
/// instruction; the client posts kRead WRs and harvests its own CQEs. Not
/// an echo (nothing to echo back): one fetch is the whole round trip,
/// which is exactly the cart-store access pattern the ISSUE 8 runtime
/// path uses.
class ReadFetchClient {
 public:
  ReadFetchClient(sim::Core& core, rdma::Rnic& rnic, TenantId tenant)
      : sched_(rnic.scheduler()), core_(core), rnic_(rnic), tenant_(tenant) {}

  void start(rdma::QueuePair& tx_qp, PoolId remote_pool, int slots) {
    tx_qp_ = &tx_qp;
    remote_pool_ = remote_pool;
    pool_ = &rnic_.host_mem().by_tenant(tenant_).pool();
    for (int i = 0; i < slots; ++i) {
      auto d = pool_->allocate(mem::actor_rnic(rnic_.node()));
      PD_CHECK(d.has_value(), "landing pool too small for slot count");
      slots_.push_back(*d);
      free_slots_.push_back(static_cast<std::uint32_t>(slots_.size() - 1));
    }
    rnic_.cq().set_notify([this] { drain_cq(); });
  }

  void send_request(std::uint32_t payload_len, core::EchoDone done) {
    PD_CHECK(!free_slots_.empty(), "request concurrency exceeds slot count");
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    const std::uint64_t id = next_id_++;
    inflight_.emplace(id, Pending{sched_.now(), slot, std::move(done)});
    // Posting cost only — no header build, no staging transfer: the READ
    // result lands by DMA and the record is consumed in place.
    core_.submit(cost::kDneSchedNs + cost::kDneTxStageNs / 2,
                 [this, id, slot, payload_len] {
                   rdma::WorkRequest wr;
                   wr.wr_id = id;
                   wr.opcode = rdma::Opcode::kRead;
                   wr.local = slots_[slot];
                   wr.remote_pool = remote_pool_;
                   wr.remote_index = slot;
                   wr.read_len = payload_len;
                   tx_qp_->post_send(wr);
                 });
  }

 private:
  struct Pending {
    sim::TimePoint start;
    std::uint32_t slot;
    core::EchoDone done;
  };

  void drain_cq() {
    for (const auto& c : rnic_.cq().poll(16)) {
      PD_CHECK(!c.is_recv && c.opcode == rdma::Opcode::kRead &&
                   c.status == rdma::CompletionStatus::kSuccess,
               "unexpected completion in READ-fetch client");
      auto it = inflight_.find(c.wr_id);
      PD_CHECK(it != inflight_.end(), "unmatched READ completion " << c.wr_id);
      Pending p = std::move(it->second);
      inflight_.erase(it);
      core_.submit(cost::kDneRxStageNs / 2, [this, p = std::move(p)] {
        free_slots_.push_back(p.slot);
        if (p.done) p.done(sched_.now() - p.start);
      });
    }
  }

  sim::Scheduler& sched_;
  sim::Core& core_;
  rdma::Rnic& rnic_;
  TenantId tenant_;
  mem::BufferPool* pool_ = nullptr;
  PoolId remote_pool_{};
  rdma::QueuePair* tx_qp_ = nullptr;
  std::vector<mem::BufferDescriptor> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::unordered_map<std::uint64_t, Pending> inflight_;
  std::uint64_t next_id_ = 1;
};

/// One fully assembled two-node echo world; `variant`: 0=two-sided,
/// 1=OWRC-Best, 2=OWRC-Worst, 3=OWDL, 4=one-sided READ fetch.
Result run_variant(int variant, std::uint32_t payload, int concurrency,
                   sim::Duration duration) {
  sim::Scheduler sched;
  rdma::RdmaNetwork net(sched);
  mem::MemoryDomain mem1(kNode1), mem2(kNode2);
  rdma::Rnic rnic1(net, kNode1, mem1), rnic2(net, kNode2, mem2);
  sim::Core core1(sched, "dne1", cost::kDpuCoreSpeed);
  sim::Core core2(sched, "dne2", cost::kDpuCoreSpeed);

  for (auto* dom : {&mem1, &mem2}) {
    auto& tm = dom->create_tenant_pool(kTenant, "tenant_1", 256, 8192);
    tm.export_to_rdma();
  }
  rnic1.register_memory(mem1.by_tenant(kTenant).pool_id());
  rnic2.register_memory(mem2.by_tenant(kTenant).pool_id());

  rdma::QueuePair& qa = rnic1.create_qp(kTenant);
  rdma::QueuePair& qb = rnic2.create_qp(kTenant);
  rdma::connect_qps(qa, qb, nullptr);
  sched.run();
  qa.activate(nullptr);
  qb.activate(nullptr);
  sched.run();

  std::uint64_t completed = 0;
  double total_rtt_ns = 0;
  const sim::TimePoint t_end = sched.now() + duration;

  std::function<void()> issue;  // per-slot request loop

  std::unique_ptr<core::TwoSidedEchoPeer> ts_client, ts_server;
  std::unique_ptr<core::OwrcEchoPeer> rc_client, rc_server;
  std::unique_ptr<core::OwdlEchoPeer> dl_client, dl_server;
  std::unique_ptr<ReadFetchClient> rd_client;
  mem::TenantMemory* stage1 = nullptr;
  mem::TenantMemory* stage2 = nullptr;

  auto on_done = [&](sim::Duration rtt) {
    ++completed;
    total_rtt_ns += static_cast<double>(rtt);
    if (sched.now() < t_end) issue();
  };

  switch (variant) {
    case 0: {
      ts_client = std::make_unique<core::TwoSidedEchoPeer>(core1, rnic1,
                                                           kTenant, false);
      ts_server = std::make_unique<core::TwoSidedEchoPeer>(core2, rnic2,
                                                           kTenant, true);
      ts_client->start(qa, 64);
      ts_server->start(qb, 64);
      issue = [&] { ts_client->send_request(payload, on_done); };
      break;
    }
    case 1:
    case 2: {
      const bool cold = variant == 2;
      stage1 = &mem1.create_tenant_pool(TenantId{900}, "rdma_only_1", 64, 8192);
      stage2 = &mem2.create_tenant_pool(TenantId{900}, "rdma_only_2", 64, 8192);
      stage1->export_to_rdma();
      stage2->export_to_rdma();
      rnic1.register_memory(stage1->pool_id());
      rnic2.register_memory(stage2->pool_id());
      rc_client = std::make_unique<core::OwrcEchoPeer>(core1, rnic1, kTenant,
                                                       false, cold);
      rc_server = std::make_unique<core::OwrcEchoPeer>(core2, rnic2, kTenant,
                                                       true, cold);
      rc_client->start(qa, *stage1, 32);
      rc_server->start(qb, *stage2, 32);
      rc_client->set_remote_pool(stage2->pool_id());
      rc_server->set_remote_pool(stage1->pool_id());
      issue = [&] { rc_client->send_request(payload, on_done); };
      break;
    }
    case 3: {
      dl_client = std::make_unique<core::OwdlEchoPeer>(core1, rnic1, kTenant,
                                                       false);
      dl_server = std::make_unique<core::OwdlEchoPeer>(core2, rnic2, kTenant,
                                                       true);
      dl_client->start(qa, 32);
      dl_server->start(qb, 32);
      dl_client->set_remote_pool(mem2.by_tenant(kTenant).pool_id());
      dl_server->set_remote_pool(mem1.by_tenant(kTenant).pool_id());
      issue = [&] { dl_client->send_request(payload, on_done); };
      break;
    }
    case 4: {
      // Passive server: mirrored record slots in its unified pool, owned by
      // its RNIC (the one-sided target), never touched by core2.
      auto& server_pool = mem2.by_tenant(kTenant).pool();
      for (int i = 0; i < 32; ++i) {
        auto d = server_pool.allocate(mem::actor_rnic(kNode2));
        PD_CHECK(d.has_value(), "server slab pool exhausted");
      }
      rd_client = std::make_unique<ReadFetchClient>(core1, rnic1, kTenant);
      rd_client->start(qa, mem2.by_tenant(kTenant).pool_id(), 32);
      issue = [&] { rd_client->send_request(payload, on_done); };
      break;
    }
  }

  for (int i = 0; i < concurrency; ++i) issue();
  sched.run_until(t_end);
  sched.run();  // drain in-flight echoes

  Result r;
  r.mean_us = completed == 0 ? 0 : total_rtt_ns / static_cast<double>(completed) / 1e3;
  r.rps = static_cast<double>(completed) / sim::to_sec(duration);
  return r;
}

/// `--cart-store` mode: the application-level rpc-vs-store ablation.
int run_cart_store_mode(int argc, char** argv) {
  using namespace pd::bench;
  control::CartAblationOptions opts;
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--cart-store") == 0) continue;
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      opts.threads = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--seconds") == 0 && i + 1 < argc) {
      opts.seconds = std::atoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }

  print_title(
      "Cart-store ablation (ISSUE 8): boutique cart hops over two-sided RPC "
      "vs the RDMA-resident state store");
  const control::CartAblationResult r = control::run_cart_ablation(opts);
  std::fputs(r.table().c_str(), stdout);

  if (json_path != nullptr) {
    std::FILE* f = std::fopen(json_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path);
      return 1;
    }
    const std::string j = r.json();
    std::fwrite(j.data(), 1, j.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", json_path);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pd::bench;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--cart-store") == 0) {
      return run_cart_store_mode(argc, argv);
    }
  }

  constexpr pd::sim::Duration kRun = 2'000'000'000;  // 2 s virtual
  const char* names[] = {"Two-sided (PALLADIUM)", "OWRC-Best", "OWRC-Worst",
                         "OWDL", "One-sided READ"};
  constexpr int kVariants = 5;

  print_title(
      "Figure 12 (1): RDMA primitive selection — mean echo latency (us)\n"
      "Paper reference @4KB: two-sided 11.6, OWRC-Best 15.0, OWRC-Worst 16.7,"
      " OWDL 26.1; @64B two-sided 8.4\n"
      "(One-sided READ is a state *fetch*, not an echo: the remote CPU "
      "never runs — the ISSUE 8 cart-store access pattern.)");
  {
    Table t({"design", "64B", "512B", "1KB", "4KB"});
    for (int v = 0; v < kVariants; ++v) {
      std::vector<std::string> row{names[v]};
      for (std::uint32_t size : {64u, 512u, 1024u, 4096u}) {
        row.push_back(fmt(run_variant(v, size, 1, kRun).mean_us));
      }
      t.add_row(row);
    }
    t.print();
  }

  print_title(
      "Figure 12 (2): RDMA primitive selection — RPS (concurrency 8)\n"
      "Paper reference: two-sided up to 1.3x OWRC-Best, 1.4x OWRC-Worst, "
      ">2.1x OWDL");
  {
    Table t({"design", "64B", "1KB", "4KB"});
    std::vector<double> rps_4k(kVariants);
    for (int v = 0; v < kVariants; ++v) {
      std::vector<std::string> row{names[v]};
      for (std::uint32_t size : {64u, 1024u, 4096u}) {
        const auto r = run_variant(v, size, 8, kRun);
        row.push_back(fmt_k(r.rps));
        if (size == 4096u) rps_4k[static_cast<std::size_t>(v)] = r.rps;
      }
      t.add_row(row);
    }
    t.print();
    print_note("speedup of two-sided over OWRC-Best @4KB: x" +
               fmt(rps_4k[0] / rps_4k[1], 2));
    print_note("speedup of two-sided over OWRC-Worst @4KB: x" +
               fmt(rps_4k[0] / rps_4k[2], 2));
    print_note("speedup of two-sided over OWDL @4KB: x" +
               fmt(rps_4k[0] / rps_4k[3], 2));
    print_note("one-sided READ fetch vs two-sided RPC fetch @4KB: x" +
               fmt(rps_4k[4] / rps_4k[0], 2));
  }
  return 0;
}
