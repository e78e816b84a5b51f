// Ablations over the DNE design choices DESIGN.md calls out (§3.2-§3.5):
//   A. CQE batching in the run-to-completion RX loop (rx_batch)
//   B. RC connection pool width per (peer, tenant)
//   C. Shadow-QP active-set cap vs RNIC QP-cache thrashing at high tenant
//      counts (the motivation for [52]'s mechanism, §3.3)
//   D. SRQ provisioning depth vs RNR stalls under bursts
// Not a paper figure: this regenerates the *reasons* behind the design.
#include "bench_common.hpp"
#include "echo_harness.hpp"

int main() {
  using namespace pd;
  using namespace pd::bench;

  print_title(
      "Ablation A: RX CQE batch size (run-to-completion loop, §3.2)\n"
      "Batching amortizes loop dispatch on the wimpy DPU core");
  {
    Table t({"rx_batch", "RPS", "p99 (us)", "failed"});
    for (int batch : {1, 4, 8, 32}) {
      core::EngineConfig cfg;
      cfg.rx_batch = batch;
      const auto r = run_echo(cfg, 1, 32);
      t.add_row({std::to_string(batch), fmt_k(r.rps), fmt(r.p99_us),
                 std::to_string(r.failed)});
    }
    t.print();
  }

  print_title(
      "Ablation B: RC connections per (peer, tenant) (§3.3)\n"
      "Wider pools spread outstanding WRs across QPs");
  {
    Table t({"rc_connections", "RPS", "p99 (us)", "failed"});
    for (int conns : {1, 2, 4, 8}) {
      core::EngineConfig cfg;
      cfg.rc_connections = conns;
      const auto r = run_echo(cfg, 1, 32);
      t.add_row({std::to_string(conns), fmt_k(r.rps), fmt(r.p99_us),
                 std::to_string(r.failed)});
    }
    t.print();
  }

  print_title(
      "Ablation C: shadow-QP active cap vs QP-cache thrashing (§3.3, [52])\n"
      "96 tenants, one busy RC connection each; the RNIC cache holds 64\n"
      "active QPs. Uncapped, every QP stays active and thrashes the cache\n"
      "(per-WR penalty); the shadow-QP cap keeps the active set resident");
  {
    Table t({"active-QP policy", "RPS", "QP cache misses", "failed"});
    {
      core::EngineConfig cfg;
      cfg.rc_connections = 1;  // 96 tenants = 96 QPs > 64 cache slots
      const auto r = run_echo(cfg, 96, 2);
      t.add_row({"capped at cache size (PALLADIUM)", fmt_k(r.rps),
                 std::to_string(r.cache_miss), std::to_string(r.failed)});
    }
    {
      core::EngineConfig cfg;
      cfg.rc_connections = 1;
      cfg.max_active_qps = 4096;  // effectively uncapped
      const auto r = run_echo(cfg, 96, 2);
      t.add_row({"uncapped (always-active QPs)", fmt_k(r.rps),
                 std::to_string(r.cache_miss), std::to_string(r.failed)});
    }
    t.print();
  }

  print_title(
      "Ablation D: SRQ provisioning vs RNR stalls (§3.5.2)\n"
      "The core-thread replenisher must outrun consumption; shallow SRQs\n"
      "stall senders in receiver-not-ready state");
  {
    Table t({"srq_fill", "replenish period (us)", "RPS", "RNR events",
             "failed"});
    struct Cfg { int fill; sim::Duration period; };
    for (const Cfg c : {Cfg{4, 200'000}, Cfg{16, 50'000}, Cfg{64, 20'000},
                        Cfg{256, 20'000}}) {
      core::EngineConfig cfg;
      cfg.srq_fill = c.fill;
      cfg.replenish_period = c.period;
      const auto r = run_echo(cfg, 1, 64);
      t.add_row({std::to_string(c.fill), fmt(static_cast<double>(c.period) / 1e3, 0),
                 fmt_k(r.rps), std::to_string(r.rnr),
                 std::to_string(r.failed)});
    }
    t.print();
  }
  return 0;
}
