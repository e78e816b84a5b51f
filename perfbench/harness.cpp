// perfbench_harness: runs one workload and reports raw host-side and
// simulated measurements as one JSON document. run.py turns it into the
// benchmark's metrics and checks the simulated outcome against references.
//
// A run, in simulated time, with t0 = the first simulated event:
//   [t0, t0+warmup)             warm-up: timed as sim.warmup_s, excluded
//                               from every end-to-end metric
//   [t0+warmup, t_ref)          the reference window, a fixed simulated
//                               span: deterministic counters and the
//                               outcome fingerprint are taken over it
//   [t0+warmup, ...)            the measured window: 10 ms simulated
//                               slices until --seconds of host time passed
//                               and t_ref is reached
// Simulated time always advances on the same 10 ms grid, so the PDES epoch
// protocol sees the same deadlines on every run and every host.
// A run of the machine-speed probe (Probe), timed apart from the slices,
// starts a block whenever 50 ms of slice time passed since the last one; the
// measured window's blocks give its per-block rates.
//
// --sample runs the PC sampler over the measured window. --traced DIR makes
// the traced run: request tracing of every 50th request, critical paths, and
// the traced artifacts written to DIR.
//
//   perfbench_harness --workload NAME [--seed N] [--seconds S] [--threads N]
//                     [--fingerprint-only] [--sample] [--traced DIR] --out FILE
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>

#include "obs/critpath.hpp"
#include "obs/hub.hpp"
#include "runtime/function.hpp"
#include "runtime/metrics_export.hpp"
#include "sampler.hpp"
#include "workloads.hpp"

namespace {

using namespace pd;
using perfbench::Workload;

constexpr sim::Duration kSlice = 10'000'000;  // 10 ms simulated
constexpr std::uint64_t kTraceEvery = 50;     // traced run: every 50th request
constexpr double kBlockS = 0.05;               // slice seconds per probe

struct Options {
  std::string workload;
  std::uint64_t seed = 0x9E3779B9;
  double seconds = 10;
  unsigned threads = 0;
  bool fingerprint_only = false;
  bool sample = false;
  std::string traced;  ///< artifact directory of the traced run
  std::string out;
};

[[noreturn]] void usage(const char* why) {
  std::cerr << "perfbench_harness: " << why
            << "\nusage: perfbench_harness --workload NAME [--seed N] "
               "[--seconds S] [--threads N] [--fingerprint-only] [--sample] "
               "[--traced DIR] --out FILE\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = next();
    } else if (a == "--seed") {
      o.seed = std::stoull(next(), nullptr, 0);
    } else if (a == "--seconds") {
      o.seconds = std::stod(next());
    } else if (a == "--threads") {
      o.threads = static_cast<unsigned>(std::stoul(next()));
    } else if (a == "--fingerprint-only") {
      o.fingerprint_only = true;
    } else if (a == "--sample") {
      o.sample = true;
    } else if (a == "--traced") {
      o.traced = next();
    } else if (a == "--out") {
      o.out = next();
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  const auto& names = perfbench::workload_names();
  if (std::find(names.begin(), names.end(), o.workload) == names.end()) {
    usage("unknown or missing --workload");
  }
  if (o.out.empty()) usage("missing --out");
  if (o.seconds < 0) usage("bad --seconds");
  return o;
}

double cpu_seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) / 1e6;
}

struct Cpu {
  double user = 0;
  double sys = 0;
};

Cpu cpu_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return {cpu_seconds(ru.ru_utime), cpu_seconds(ru.ru_stime)};
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

double current_rss_mib() {
  long pages = 0;
  long resident = 0;
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

/// Every deterministic counter the layers expose, plus the harness-side
/// counters of the generators, gateway and controllers.
std::string snapshot(Workload& w) {
  obs::Registry reg;
  runtime::export_metrics(*w.cluster, reg);
  for (std::size_t i = 0; i < w.gens.size(); ++i) {
    const std::string l = "page=" + w.pages[i].target;
    reg.counter("gen.sent", l).set(w.gens[i]->sent());
    reg.counter("gen.completed", l).set(w.gens[i]->completed());
    reg.counter("gen.errors", l).set(w.gens[i]->errors());
  }
  const ingress::PalladiumIngress& g = *w.ingress;
  reg.counter("ingress.responses").set(g.responses());
  reg.counter("ingress.retries").set(g.retries());
  reg.counter("ingress.shed_admission").set(g.shed_admission());
  reg.counter("ingress.deadline_expired").set(g.deadline_expired());
  reg.counter("ingress.timeouts").set(g.timeouts());
  reg.counter("ingress.bad_gateway").set(g.bad_gateway());
  reg.counter("ingress.scale_events").set(g.scale_events());
  reg.gauge("ingress.active_workers").set(g.active_workers());
  if (w.admission) {
    reg.counter("admission.engagements").set(w.admission->engagements());
    for (TenantId t : w.admission->policies()) {
      const std::string l = "tenant=" + std::to_string(t.value());
      reg.counter("admission.admitted", l).set(w.admission->admitted(t));
      reg.counter("admission.shed", l).set(w.admission->shed(t));
    }
  }
  if (w.edge) {
    reg.counter("controller.events").set(w.edge->events().size());
    reg.counter("controller.ticks").set(w.edge->ticks());
  }
  for (FunctionId fn : w.cluster->deployed_functions()) {
    reg.counter("fn.invocations", "fn=" + std::to_string(fn.value()))
        .set(w.cluster->instance(fn).invocations());
  }
  reg.counter("sim.events").set(w.psim->events_processed());
  return reg.to_json();
}

/// Host-side protocol and CPU counters at one instant.
/// Machine-speed probe: a fixed event-queue kernel (heap pop/push plus a
/// hashed table update in an L2-sized working set) run between simulation
/// slices. Shared hosts change speed by tens of percent within seconds; the
/// probe sees the same momentary speed as the slices around it, so host time
/// divided by the probe's rate is a time on a reference machine. The probe
/// is not program code, so no change to the simulator moves its rate.
class Probe {
 public:
  static constexpr int kOps = 20'000;  // about 2 ms on a 4-vCPU VM
  Probe() : table_(1u << 15) {
    for (int i = 0; i < 4096; ++i) heap_.push_back(next() & 0xFFFFFF);
    std::make_heap(heap_.begin(), heap_.end(), std::greater<>());
  }
  /// Host seconds kOps operations took.
  double run() {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kOps; ++i) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
      const std::uint64_t key = heap_.back();
      heap_.pop_back();
      std::uint64_t& slot = table_[(key * 0x9E3779B97F4A7C15ull) >> 49];
      slot += key;
      heap_.push_back(key + (next() & 0xFFFF) + (slot & 1));
      std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
    }
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  }

 private:
  std::uint64_t next() {  // xorshift64
    x_ ^= x_ << 13;
    x_ ^= x_ >> 7;
    x_ ^= x_ << 17;
    return x_;
  }
  std::vector<std::uint64_t> heap_;
  std::vector<std::uint64_t> table_;
  std::uint64_t x_ = 88172645463325252ull;
};

struct HostMark {
  double wall = 0;  ///< accumulated slice wall seconds
  Cpu cpu;
  std::uint64_t events = 0;
  std::uint64_t epochs = 0;
  std::uint64_t barrier_ns = 0;
  std::uint64_t completed = 0;
  sim::TimePoint now = 0;
  double probe_s = 0;  ///< accumulated probe seconds
  double probe_ops = 0;
  std::size_t blocks = 0;  ///< blocks started so far
};

/// The slices between two probe runs.
struct Block {
  double probe_s = 0;  ///< the probe run that started the block
  double wall_s = 0;
  std::uint64_t completed = 0;
};

std::uint64_t completed(const Workload& w) {
  std::uint64_t n = 0;
  for (const auto& g : w.gens) n += g->completed();
  return n;
}

struct Json {
  std::ostringstream os;
  bool first = true;
  Json() {
    os.precision(17);
    os << "{";
  }
  Json& key(const std::string& k) {
    os << (first ? "" : ",") << "\n\"" << k << "\": ";
    first = false;
    return *this;
  }
  template <class T>
  Json& num(const std::string& k, T v) {
    key(k);
    os << v;
    return *this;
  }
  Json& str(const std::string& k, const std::string& v) {
    key(k);
    os << "\"" << obs::json_escape(v) << "\"";
    return *this;
  }
  Json& raw(const std::string& k, const std::string& v) {
    key(k);
    os << v;
    return *this;
  }
  std::string done() { return os.str() + "\n}\n"; }
};

std::string critpath_json(const obs::CritPathReport& r) {
  std::int64_t cls[6] = {0, 0, 0, 0, 0, 0};
  for (const obs::PathSegment& s : r.q_breakdown) {
    cls[static_cast<int>(s.cls)] += s.ns;
  }
  Json j;
  j.num("traces", r.traces).num("total_ns", r.q_total_ns);
  for (int c = 0; c < 6; ++c) {
    j.num(obs::to_string(static_cast<obs::HopClass>(c)), cls[c]);
  }
  return j.done();
}

/// Blocks [first, last) as [probe_s, wall_s, completed] triples: the blocks
/// that started inside the window and ended before it closed.
std::string blocks_json(const std::vector<Block>& blocks, std::size_t first,
                        std::size_t last) {
  std::ostringstream os;
  os.precision(17);
  os << "[";
  for (std::size_t i = first; i < last; ++i) {
    const Block& b = blocks[i];
    os << (i > first ? ",\n" : "\n") << "[" << b.probe_s << ", " << b.wall_s
       << ", " << b.completed << "]";
  }
  os << "]";
  return os.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write " + path);
  f << text;
}

int run(const Options& o) {
  obs::Hub hub;
  obs::Session session(hub);
  perfbench::HostSpans spans;

  const bool traced = !o.traced.empty();
  const std::uint64_t trace_every = traced ? kTraceEvery : 0;
  std::vector<perfbench::SetupTimes> setups;
  std::unique_ptr<Workload> w;
  do {
    w.reset();  // tear the previous copy down before timing the next one
    w = perfbench::build(o.workload, o.seed, o.threads, trace_every, spans);
    setups.push_back(w->setup);
  } while (static_cast<int>(setups.size()) < w->setups);
  const double rss_after_setup = current_rss_mib();
  sim::ParallelSim& psim = *w->psim;
  sim::Scheduler& edge = w->cluster->scheduler();
  const sim::TimePoint t0 = edge.now();
  const sim::TimePoint t_warm = t0 + w->warmup;
  const sim::TimePoint t_ref = t_warm + w->ref_window;

  HostMark acc;  // running totals over the slices run so far
  Probe probe;
  std::vector<Block> blocks;
  const auto slice = [&](sim::TimePoint to) {
    if (blocks.empty() || blocks.back().wall_s >= kBlockS) {
      blocks.push_back({probe.run(), 0, 0});  // outside the timed slice
      acc.probe_s += blocks.back().probe_s;
      acc.probe_ops += Probe::kOps;
    }
    const std::uint64_t done = completed(*w);
    const Cpu c0 = cpu_now();
    const double s = spans.time("harness/run", "sim.run_until",
                                [&] { psim.run_until(to); });
    const Cpu c1 = cpu_now();
    acc.wall += s;
    acc.cpu.user += c1.user - c0.user;
    acc.cpu.sys += c1.sys - c0.sys;
    blocks.back().wall_s += s;
    blocks.back().completed += completed(*w) - done;
  };
  const auto mark = [&] {
    HostMark m = acc;
    m.events = psim.events_processed();
    m.epochs = psim.epochs();
    m.barrier_ns = psim.barrier_wait_ns();
    m.completed = completed(*w);
    m.now = edge.now();
    m.blocks = blocks.size();
    return m;
  };

  sim::TimePoint t = t0;
  while (t < t_warm) slice(t = std::min(t + kSlice, t_warm));
  const double warmup_s = acc.wall;
  const std::string snap_warm = snapshot(*w);

  if (o.sample) perfbench::start_sampling(1000);
  const HostMark m0 = mark();
  std::string snap_ref;
  sim::LatencyHistogram ref_latency;
  for (;;) {
    slice(t += kSlice);
    if (t == t_ref) {
      snap_ref = snapshot(*w);
      for (const auto& g : w->gens) ref_latency.merge(g->latencies());
    }
    if (t >= t_ref &&
        (o.fingerprint_only || acc.wall - m0.wall >= o.seconds)) {
      break;
    }
  }
  const HostMark m1 = mark();
  perfbench::SampleCounts samples;
  if (o.sample) samples = perfbench::stop_sampling();
  const double rss_end = current_rss_mib();
  const double peak_rss = peak_rss_mib();

  // Drain: stop issuing, finish everything in flight, then fold the
  // per-shard observability into the hub.
  for (auto& g : w->gens) g->stop();
  spans.time("harness/run", "sim.drain", [&] { psim.run(); });
  if (w->ledger) {
    w->cluster->collect_pool_slot_ns();
    if (obs::Hub* eh = w->cluster->edge_hub()) {
      w->ingress->collect_pool_slot_ns(eh->ledger);
    }
  }
  const double merge_s = spans.time("harness/obs", "obs.merge", [&] {
    w->cluster->merge_observability(hub);
  });

  // Serialise every enabled sink as a user would export it.
  std::string critpath50;
  std::string critpath99;
  const double export_s = spans.time("harness/obs", "obs.export", [&] {
    obs::Registry reg;
    runtime::export_metrics(*w->cluster, reg);
    const std::string metrics = reg.to_json();
    if (traced) write_file(o.traced + "/metrics.json", metrics);
    if (w->ledger) {
      const std::string ledger = hub.ledger.to_json();
      const std::string series = hub.timeseries.to_json();
      if (traced) {
        write_file(o.traced + "/ledger.json", ledger);
        write_file(o.traced + "/timeseries.json", series);
        hub.profiler.write_collapsed(o.traced + "/flame.folded");
      }
    }
    if (traced) {
      // Critical paths of the requests that started inside the reference
      // window: a deterministic set, whatever the host speed.
      std::set<std::uint64_t> in_ref;
      for (const obs::SpanRecord& s : hub.tracer.spans()) {
        if (s.parent_id == 0 && s.begin_ns >= t_warm && s.begin_ns < t_ref) {
          in_ref.insert(s.trace_id);
        }
      }
      std::vector<obs::SpanRecord> ref_spans;
      for (const obs::SpanRecord& s : hub.tracer.spans()) {
        if (in_ref.count(s.trace_id) != 0) ref_spans.push_back(s);
      }
      const auto read = obs::to_read_spans(ref_spans);
      const obs::CritPathReport p50 = obs::analyze(read, 0.50);
      const obs::CritPathReport p99 = obs::analyze(read, 0.99);
      critpath50 = critpath_json(p50);
      critpath99 = critpath_json(p99);
      hub.tracer.write_chrome_json(o.traced + "/request_trace.json");
      obs::write_report_json(p99, o.traced + "/critpath.json");
    }
  });

  // Pools: configured capacity versus the most slots ever in use.
  double pool_bytes = 0;
  double pool_slots = 0;
  double pool_high = 0;
  for (const auto& node : w->cluster->workers()) {
    for (const auto& tm : node->memory().pools()) {
      pool_bytes += static_cast<double>(tm->pool().footprint());
      pool_slots += static_cast<double>(tm->pool().capacity());
      pool_high += static_cast<double>(tm->pool().high_water());
    }
  }

  std::ostringstream gens_final;
  gens_final << "[";
  for (std::size_t i = 0; i < w->gens.size(); ++i) {
    const auto& g = *w->gens[i];
    gens_final << (i ? ",\n" : "\n") << "{\"page\": \""
               << obs::json_escape(w->pages[i].target)
               << "\", \"sheds_expected\": "
               << (w->pages[i].sheds_expected ? "true" : "false")
               << ", \"sent\": " << g.sent()
               << ", \"completed\": " << g.completed()
               << ", \"errors\": " << g.errors() << "}";
  }
  gens_final << "]";

  std::ostringstream setup_arr;
  setup_arr << "[";
  for (std::size_t i = 0; i < setups.size(); ++i) {
    const auto& s = setups[i];
    Json j;
    j.num("runtime.cluster_setup_s", s.cluster)
        .num("runtime.deploy_s", s.deploy)
        .num("ingress.setup_s", s.ingress)
        .num("rdma.finish_setup_s", s.finish)
        .num("workload.setup_s", s.workload)
        .num("total_s", s.total());
    setup_arr << (i ? "," : "") << j.done();
  }
  setup_arr << "]";

  const auto host_json = [](const HostMark& m) {
    Json j;
    j.num("wall_s", m.wall)
        .num("user_s", m.cpu.user)
        .num("sys_s", m.cpu.sys)
        .num("events", m.events)
        .num("epochs", m.epochs)
        .num("barrier_wait_ns", m.barrier_ns)
        .num("completed", m.completed)
        .num("sim_ns", m.now)
        .num("probe_s", m.probe_s)
        .num("probe_ops", m.probe_ops);
    return j.done();
  };

  Json env;
  env.num("nproc", sysconf(_SC_NPROCESSORS_ONLN))
      .num("threads", psim.os_threads())
      .num("shards", psim.shard_count())
      .str("compiler", PERFBENCH_COMPILER)
      .str("build_type", PERFBENCH_BUILD_TYPE);

  Json out;
  out.str("workload", o.workload)
      .num("seed", o.seed)
      .raw("env", env.done())
      .raw("setups", setup_arr.str())
      .num("warmup_s", warmup_s)
      .num("ref_sim_ns", w->ref_window)
      .raw("snap_warm", snap_warm)
      .raw("snap_ref", snap_ref)
      .num("ref_p50_ns", ref_latency.quantile(0.50))
      .num("ref_p99_ns", ref_latency.quantile(0.99))
      .raw("window_start", host_json(m0))
      .raw("window_end", host_json(m1))
      .num("probe_ops_per_block", Probe::kOps)
      .raw("window_blocks", blocks_json(blocks, m0.blocks, m1.blocks - 1))
      .raw("gens_final", gens_final.str())
      .num("shed_429_final", w->ingress->shed_admission())
      .num("rss_after_setup_mib", rss_after_setup)
      .num("rss_end_mib", rss_end)
      .num("peak_rss_mib", peak_rss)
      .num("pool_capacity_bytes", pool_bytes)
      .num("pool_capacity_slots", pool_slots)
      .num("pool_peak_in_use", pool_high)
      .num("merge_s", merge_s)
      .num("export_s", export_s);
  if (!critpath50.empty()) {
    out.raw("critpath_p50", critpath50).raw("critpath_p99", critpath99);
  }
  if (o.sample) {
    std::ostringstream exe;
    exe << "{";
    bool first = true;
    for (const auto& [pc, n] : samples.exe) {
      exe << (first ? "" : ",") << "\"" << pc << "\":" << n;
      first = false;
    }
    exe << "}";
    std::ostringstream libs;
    libs << "{";
    first = true;
    for (const auto& [lib, n] : samples.libs) {
      libs << (first ? "" : ",") << "\"" << obs::json_escape(lib)
           << "\":" << n;
      first = false;
    }
    libs << "}";
    out.raw("samples_exe", exe.str())
        .raw("samples_libs", libs.str())
        .num("samples_total", samples.total);
  }
  if (traced) spans.write(o.traced + "/harness_spans.json");
  write_file(o.out, out.done());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  try {
    return run(o);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_harness: " << e.what() << "\n";
    return 1;
  }
}
