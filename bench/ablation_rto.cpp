// Why Ablation C of ablation_dne collapses: the engine's reliability
// counters for the shadow-QP runs. The retransmit timeout is fixed
// (EngineConfig::retransmit_timeout); once the receiving DNE queues, ACKs
// return later than the timer and the sender re-sends messages that were
// never lost. Below the cliff every retransmit arrives as a duplicate and
// is suppressed; at 96 tenants the duplicates fill the receiver's SRQs and
// its RNR NACKs fail the requests. Same two-node echo harness and
// simulated window as ablation_dne.
#include <string>

#include "bench_common.hpp"
#include "echo_harness.hpp"

int main() {
  using namespace pd;
  using namespace pd::bench;

  const core::EngineConfig defaults;
  print_title(
      "Ablation C diagnosis: spurious retransmits under a fixed RTO\n"
      "rc_connections 1; node 1 runs the clients, node 2 the echo functions\n"
      "(n1/n2 columns); retransmit timeout " +
      fmt(sim::to_us(defaults.retransmit_timeout), 0) + " us");
  Table t({"tenants x clients", "QP policy", "completed/s", "failed",
           "retransmits n1/n2", "dups suppressed n1/n2", "RNR events n2",
           "RNR NACK drops n2", "p99 (us)", "QP cache misses"});
  struct Case {
    int tenants;
    int clients;
    bool capped;
  };
  for (const Case c : {Case{32, 2, true}, Case{72, 1, true},
                       Case{72, 1, false}, Case{96, 2, true}}) {
    core::EngineConfig cfg;
    cfg.rc_connections = 1;
    if (!c.capped) cfg.max_active_qps = 4096;  // effectively uncapped
    const auto r = run_echo(cfg, c.tenants, c.clients);
    const auto pair = [](std::uint64_t a, std::uint64_t b) {
      return std::to_string(a) + " / " + std::to_string(b);
    };
    t.add_row({std::to_string(c.tenants) + " x " + std::to_string(c.clients),
               c.capped ? "capped" : "uncapped", fmt_k(r.rps),
               std::to_string(r.failed),
               pair(r.engine[0].retransmits, r.engine[1].retransmits),
               pair(r.engine[0].dup_rx, r.engine[1].dup_rx),
               std::to_string(r.rnic[1].rnr_events),
               std::to_string(r.rnic[1].rnr_drops), fmt(r.p99_us),
               std::to_string(r.cache_miss)});
  }
  t.print();
  return 0;
}
