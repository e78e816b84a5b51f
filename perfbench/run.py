#!/usr/bin/env python3
"""Host-side benchmark of the Palladium simulator.

Builds the simulator and the measuring harness from this checkout, runs one
workload, checks the simulated outcome, and prints one JSON result line:

    python3 perfbench/run.py --workload pair_home --seed 0 --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics, all host-side measures of the
simulator: simulated requests per reference second, host CPU reference
seconds per simulated second, peak RSS and set-up time. A reference second
is the host time in which the harness's machine-speed probe completes
PROBE_REF_OPS_PER_S operations. A shared host's speed moves by tens of
percent within seconds, and the probe, run before every 50 ms of simulation,
moves with it, so times in reference seconds stay comparable across runs.
Throughput is the upper quartile of the window's per-block rates: stalls
that slow a stretch of blocks (a thread waiting to be woken on a loaded
host) then leave it alone, while a faster simulator moves every block. The
raw host figures are per-layer metrics (host.*).

--trace 1 reports the per-layer metrics from two harness runs, an untraced
one (counts, protocol, set-up phases, memory, and a profiling-timer sampler
for per-module host self-time) and a traced one (request tracing, critical
paths); the difference between the two is the tracing overhead. The sampler
runs untraced so that module shares describe the program the end-to-end
metrics measure, not the cost of tracing it.

The simulated outcome is a correctness gate, not a metric: every run
fingerprints its reference window (requests per generator, simulated p50 and
p99, error classes and a hash of every exported counter of the simulated
cluster) and compares it with refs.json. Counters of the simulator's own
mechanics (PDES epochs, mailbox messages, events) are left out of the hash:
a faster simulator of the same cluster passes. A mismatch marks every
attempted request failed; so do lost requests and error classes the
workload does not expect.

Seeds: --seed n runs with ClusterConfig::seed = DEFAULT_SEED + (n mod 16),
so every --seed value has a recorded reference. --held-out runs the seed kept
out of tuning. Other commands:

    python3 perfbench/run.py --list            every metric with its unit
    python3 perfbench/run.py --record          re-record refs.json
    python3 -m unittest discover -s perfbench/tests   self-tests
"""
import argparse
import bisect
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
HARNESS = os.path.join(BUILD, "perfbench_harness")
ARTIFACTS = os.path.join(ROOT, ".bench_build", "traces")
REFS = os.path.join(HERE, "refs.json")

WORKLOADS = ("pair_home", "leafspine_scale", "tenant_cart")
DEFAULT_SEED = 0x9E3779B9  # ClusterConfig's own default
SEED_POOL = 16
HELD_OUT_SEED = 0x5EED5EED
# Counters of how the simulator runs rather than of what it simulates: the
# PDES protocol (pdes.*) and the event count (sim.events). They are per-layer
# metrics, not part of the simulated outcome.
SIM_MECHANICS = ("pdes.", "sim.")
RUN_BUDGET_S = 170  # every harness run of one invocation, builds excluded
# Probe operations per reference second: about the probe's rate on a 4-vCPU
# VM, so reference seconds stay close to host seconds.
PROBE_REF_OPS_PER_S = 8e6

# (name, unit, better). Units: "sim_*" marks simulated time; every other
# time is host time.
END_TO_END = [
    ("sim_requests_per_ref_s", "1/ref_s", "higher"),
    ("host_cpu_ref_s_per_sim_s", "ref_s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
    ("setup_s", "s", "lower"),
]

MODULES = ("sim", "core", "rdma", "fabric", "dpu", "mem", "ipc", "proto",
           "ingress", "runtime", "workload", "control", "obs", "fault")

PER_LAYER = [
    ("host.requests_per_s", "1/s", "higher"),
    ("host.cpu_s_per_sim_s", "s", "lower"),
    ("host.probe_ops_per_s", "1/s", "higher"),
    ("sim.events_per_request", "count", "lower"),
    ("sim.host_ns_per_event", "ns", "lower"),
    ("sim.pdes_epochs_per_sim_s", "1/sim_s", "lower"),
    ("sim.pdes_events_per_epoch", "count", "higher"),
    ("sim.pdes_host_ns_per_epoch", "ns", "lower"),
    ("sim.pdes_barrier_wait_share", "share", "lower"),
    ("sim.sys_cpu_share", "share", "lower"),
    ("sim.pdes_mailbox_msgs_per_request", "count", "lower"),
    ("sim.pdes_skip_ahead_share", "share", "higher"),
    ("sim.warmup_s", "s", "lower"),
    ("runtime.cluster_setup_s", "s", "lower"),
    ("runtime.deploy_s", "s", "lower"),
    ("rdma.finish_setup_s", "s", "lower"),
    ("ingress.setup_s", "s", "lower"),
    ("workload.setup_s", "s", "lower"),
    ("mem.rss_after_setup_mib", "MiB", "lower"),
    ("mem.rss_growth_run_mib", "MiB", "lower"),
    ("mem.pool_capacity_bytes", "bytes", "lower"),
    ("mem.pool_peak_in_use", "count", "lower"),
    ("mem.pool_touched_share", "share", "higher"),
    ("core.engine_tx_msgs_per_request", "count", "lower"),
    ("core.engine_retransmits_per_request", "count", "lower"),
    ("core.engine_shed_per_request", "count", "lower"),
    ("core.engine_error_completions", "count", "lower"),
    ("rdma.sends_per_request", "count", "lower"),
    ("rdma.reads_per_request", "count", "lower"),
    ("rdma.atomics_per_request", "count", "lower"),
    ("rdma.writes_per_request", "count", "lower"),
    ("rdma.cache_miss_wr_share", "share", "lower"),
    ("rdma.rnr_drops", "count", "lower"),
    ("rdma.access_errors", "count", "lower"),
    ("rdma.store_cas_conflict_share", "share", "lower"),
    ("rdma.conn_establishments", "count", "lower"),
    ("fabric.frames_per_request", "count", "lower"),
    ("fabric.frames_dropped", "count", "lower"),
    ("dpu.dma_transfers_per_request", "count", "lower"),
    ("dpu.dma_bytes_per_request", "bytes", "lower"),
    ("ingress.shed_429_share", "share", "lower"),
    ("ingress.deadline_504", "count", "lower"),
    ("ingress.workers_final", "count", "lower"),
    ("runtime.invocations_per_request", "count", "lower"),
    ("control.controller_events", "count", "lower"),
    ("control.pressure_engagements", "count", "lower"),
    ("control.admission_shed_share", "share", "lower"),
    ("obs.merge_s", "s", "lower"),
    ("obs.export_s", "s", "lower"),
    ("obs.trace_overhead_share", "share", "lower"),
] + [(m + ".host_share", "share", "lower")
     for m in MODULES + ("libc", "other")] + [
    ("critpath.%s_%s_ns" % (q, c), "sim_ns", "lower")
    for q in ("p50", "p99")
    for c in ("service", "queue", "transport", "dma", "rdma")
]


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configure once, then bring the harness up to date."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)


def harness(workload, seed, seconds, out, threads=0, sample=False,
            traced=None, fingerprint_only=False, deadline=None):
    """One harness run; `traced` is the traced run's artifact directory."""
    if deadline is None:
        deadline = time.monotonic() + RUN_BUDGET_S
    cmd = [HARNESS, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--out", out]
    if threads:
        cmd += ["--threads", str(threads)]
    if fingerprint_only:
        cmd.append("--fingerprint-only")
    if sample:
        cmd.append("--sample")
    if traced:
        os.makedirs(traced, exist_ok=True)
        cmd += ["--traced", traced]
    subprocess.run(cmd, check=True,
                   timeout=max(1.0, deadline - time.monotonic()))
    with open(out) as f:
        return json.load(f)


def cluster_seed(n):
    return DEFAULT_SEED + n % SEED_POOL


# --- deterministic counters ---------------------------------------------

def total(snap, name):
    """Sum of every instrument called `name`, whatever its labels."""
    return sum(v for k, v in snap.items()
               if k == name or k.startswith(name + "{"))


def delta(run, name):
    return total(run["snap_ref"], name) - total(run["snap_warm"], name)


def ratio(a, b):
    return a / b if b else 0.0


def fingerprint(run):
    snap = run["snap_ref"]
    model = {k: v for k, v in snap.items() if not k.startswith(SIM_MECHANICS)}
    canon = json.dumps(model, sort_keys=True, separators=(",", ":"))
    return {
        "gens": [[k, v] for k, v in sorted(snap.items())
                 if k.startswith("gen.")],
        "p50_ns": run["ref_p50_ns"],
        "p99_ns": run["ref_p99_ns"],
        "errors": {k: total(snap, k) for k in (
            "ingress.shed_admission", "ingress.bad_gateway",
            "ingress.deadline_expired", "ingress.retries",
            "engine.error_completions", "engine.requests_shed",
            "rnic.access_errors", "store.errors")},
        "metrics_sha256": hashlib.sha256(canon.encode()).hexdigest(),
    }


def check(run, refs, seed):
    """(attempted, failed, problems) of one harness run."""
    gens = run["gens_final"]
    attempted = sum(g["sent"] for g in gens)
    problems = []
    lost = sum(g["sent"] - g["completed"] - g["errors"] for g in gens)
    if lost:
        problems.append("%d requests lost" % lost)
    shed_429 = run["shed_429_final"]
    unexpected = sum(g["errors"] for g in gens if not g["sheds_expected"])
    unexpected += max(0, sum(g["errors"] for g in gens
                             if g["sheds_expected"]) - shed_429)
    if unexpected:
        problems.append("%d unexpected error responses" % unexpected)
    failed = lost + unexpected
    ref = refs.get(run["workload"], {}).get(str(seed))
    got = fingerprint(run)
    if ref is None:
        problems.append("no reference for seed %d" % seed)
        failed = attempted
    elif ref != got:
        diff = [k for k in got if got[k] != ref.get(k)]
        problems.append("simulated outcome differs from the reference in "
                        + ", ".join(diff))
        failed = attempted
    return attempted, min(failed, attempted), problems


# --- host-side metrics ---------------------------------------------------

def window(run):
    a, b = run["window_start"], run["window_end"]
    return {k: b[k] - a[k] for k in a}


def ref_s_per_host_s(run):
    """Reference seconds in one host second of the measured window."""
    w = window(run)
    return w["probe_ops"] / w["probe_s"] / PROBE_REF_OPS_PER_S


def requests_per_ref_s(run):
    """Upper quartile of the window blocks' simulated requests per
    reference second, each block timed against the probe run that started
    it."""
    ops = run["probe_ops_per_block"]
    rates = [done / (wall_s * ops / probe_s / PROBE_REF_OPS_PER_S)
             for probe_s, wall_s, done in run["window_blocks"]]
    return statistics.quantiles(rates, n=4)[2]


def end_to_end(run):
    w = window(run)
    speed = ref_s_per_host_s(run)
    return {
        "sim_requests_per_ref_s": requests_per_ref_s(run),
        "host_cpu_ref_s_per_sim_s":
            (w["user_s"] + w["sys_s"]) * speed / (w["sim_ns"] / 1e9),
        "peak_rss_mib": run["peak_rss_mib"],
        "setup_s": statistics.median(s["total_s"] for s in run["setups"]),
    }


def per_layer(run):
    w = window(run)
    req = delta(run, "gen.completed")
    events = delta(run, "sim.events")
    epochs = delta(run, "pdes.epochs")
    threads = run["env"]["threads"]
    snap = run["snap_ref"]
    wrs = sum(delta(run, "rnic." + k) for k in
              ("sends", "writes", "reads", "atomics", "datagrams"))
    cas = delta(run, "store.cas_acquires") + delta(run, "store.cas_conflicts")
    admitted = total(snap, "admission.admitted")
    shed = total(snap, "admission.shed")
    m = {
        "host.requests_per_s": w["completed"] / w["wall_s"],
        "host.cpu_s_per_sim_s": (w["user_s"] + w["sys_s"]) / (w["sim_ns"] / 1e9),
        "host.probe_ops_per_s": w["probe_ops"] / w["probe_s"],
        "sim.events_per_request": ratio(events, req),
        "sim.host_ns_per_event": ratio(w["wall_s"] * 1e9, w["events"]),
        "sim.pdes_epochs_per_sim_s": epochs / (run["ref_sim_ns"] / 1e9),
        "sim.pdes_events_per_epoch": ratio(events, epochs),
        "sim.pdes_host_ns_per_epoch": ratio(w["wall_s"] * 1e9, w["epochs"]),
        "sim.pdes_barrier_wait_share":
            w["barrier_wait_ns"] / (threads * w["wall_s"] * 1e9),
        "sim.sys_cpu_share": ratio(w["sys_s"], w["user_s"] + w["sys_s"]),
        "sim.pdes_mailbox_msgs_per_request":
            ratio(delta(run, "pdes.mailbox_msgs"), req),
        "sim.pdes_skip_ahead_share":
            ratio(delta(run, "pdes.skip_ahead_epochs"), epochs),
        "sim.warmup_s": run["warmup_s"],
        "mem.rss_after_setup_mib": run["rss_after_setup_mib"],
        "mem.rss_growth_run_mib": run["rss_end_mib"] - run["rss_after_setup_mib"],
        "mem.pool_capacity_bytes": run["pool_capacity_bytes"],
        "mem.pool_peak_in_use": run["pool_peak_in_use"],
        "mem.pool_touched_share":
            ratio(run["pool_peak_in_use"], run["pool_capacity_slots"]),
        "core.engine_tx_msgs_per_request": ratio(delta(run, "engine.tx_msgs"), req),
        "core.engine_retransmits_per_request":
            ratio(delta(run, "engine.retransmits"), req),
        "core.engine_shed_per_request": ratio(delta(run, "engine.requests_shed"), req),
        "core.engine_error_completions": delta(run, "engine.error_completions"),
        "rdma.sends_per_request": ratio(delta(run, "rnic.sends"), req),
        "rdma.reads_per_request": ratio(delta(run, "rnic.reads"), req),
        "rdma.atomics_per_request": ratio(delta(run, "rnic.atomics"), req),
        "rdma.writes_per_request": ratio(delta(run, "rnic.writes"), req),
        "rdma.cache_miss_wr_share": ratio(delta(run, "rnic.cache_miss_wrs"), wrs),
        "rdma.rnr_drops": delta(run, "rnic.rnr_drops"),
        "rdma.access_errors":
            delta(run, "rnic.access_errors") + delta(run, "rnic.atomic_access_errors"),
        "rdma.store_cas_conflict_share": ratio(delta(run, "store.cas_conflicts"), cas),
        "rdma.conn_establishments": total(snap, "conn.establishments"),
        "fabric.frames_per_request": ratio(delta(run, "fabric.frames"), req),
        "fabric.frames_dropped": delta(run, "fabric.frames_dropped"),
        "dpu.dma_transfers_per_request": ratio(delta(run, "dma.transfers"), req),
        "dpu.dma_bytes_per_request": ratio(delta(run, "dma.bytes_moved"), req),
        "ingress.shed_429_share":
            ratio(delta(run, "ingress.shed_admission"), delta(run, "gen.sent")),
        "ingress.deadline_504": delta(run, "ingress.deadline_expired"),
        "ingress.workers_final": total(snap, "ingress.active_workers"),
        "runtime.invocations_per_request": ratio(delta(run, "fn.invocations"), req),
        "control.controller_events": total(snap, "controller.events"),
        "control.pressure_engagements": total(snap, "admission.engagements"),
        "control.admission_shed_share": ratio(shed, admitted + shed),
        "obs.merge_s": run["merge_s"],
        "obs.export_s": run["export_s"],
    }
    for key in run["setups"][0]:
        if key != "total_s":
            m[key] = statistics.median(s[key] for s in run["setups"])
    return m


# --- per-module host self-time -------------------------------------------

MODULE_RE = re.compile(r"\bpd::(\w+)::")
LIBC = ("libc.", "libstdc++", "libm.", "libgcc", "ld-linux", "linux-vdso",
        "libpthread")


def symbol_module(name):
    """The pd::<module> a function symbol's own scope belongs to; code
    outside pd (std containers, callable thunks) counts for the first
    pd::<module> named in its template arguments."""
    if name.startswith("pd::"):
        m = MODULE_RE.match(name)
        return m.group(1) if m and m.group(1) in MODULES else "other"
    for mod in MODULE_RE.findall(name):
        if mod in MODULES:
            return mod
    return "other"


def symbols(binary):
    out = subprocess.run(["nm", "-C", "-S", "--defined-only", binary],
                         check=True, capture_output=True, text=True).stdout
    syms = []
    for line in out.splitlines():
        parts = line.split(" ", 3)
        if len(parts) == 4 and parts[2] in "tTwW":
            syms.append((int(parts[0], 16), int(parts[1], 16), parts[3]))
    syms.sort()
    return syms


def host_shares(run):
    syms = symbols(HARNESS)
    starts = [s[0] for s in syms]
    counts = dict.fromkeys(MODULES + ("libc", "other"), 0)
    for pc, n in run["samples_exe"].items():
        pc = int(pc)
        i = bisect.bisect_right(starts, pc) - 1
        mod = "other"
        if i >= 0 and pc < syms[i][0] + max(syms[i][1], 1):
            mod = symbol_module(syms[i][2])
        counts[mod] += n
    for lib, n in run["samples_libs"].items():
        counts["libc" if lib.startswith(LIBC) else "other"] += n
    samples = max(run["samples_total"], 1)
    return {m + ".host_share": n / samples for m, n in counts.items()}


def critpath(run):
    out = {}
    for q in ("p50", "p99"):
        rep = run.get("critpath_" + q, {})
        for c in ("service", "queue", "transport", "dma", "rdma"):
            out["critpath.%s_%s_ns" % (q, c)] = rep.get(c, 0)
    return out


# --- commands --------------------------------------------------------------

def load_refs():
    if not os.path.exists(REFS):
        return {}
    with open(REFS) as f:
        return json.load(f)


def record(workloads):
    refs = load_refs()
    tmp = os.path.join(ROOT, ".bench_build", "record.json")
    for w in workloads:
        refs[w] = {}
        for seed in [cluster_seed(n) for n in range(SEED_POOL)] + [HELD_OUT_SEED]:
            run = harness(w, seed, 0, tmp, fingerprint_only=True)
            refs[w][str(seed)] = fingerprint(run)
            log("recorded", w, seed)
    with open(REFS, "w") as f:
        dump_refs(refs, f)


def dump_refs(refs, f):
    """One fingerprint per line, so a re-recording diffs per seed."""
    f.write("{\n")
    for i, w in enumerate(sorted(refs)):
        f.write(' "%s": {\n' % w)
        seeds = sorted(refs[w].items())
        for j, (seed, fp) in enumerate(seeds):
            f.write('  "%s": %s%s\n' % (seed, json.dumps(fp, sort_keys=True),
                                       "," if j + 1 < len(seeds) else ""))
        f.write(" }%s\n" % ("," if i + 1 < len(refs) else ""))
    f.write("}\n")


def list_metrics():
    for name, unit, better in END_TO_END:
        print("end_to_end %-40s %-8s %s" % (name, unit, better))
    for name, unit, better in PER_LAYER:
        print("per_layer  %-40s %-8s %s" % (name, unit, better))


def measure(args):
    seed = HELD_OUT_SEED if args.held_out else cluster_seed(args.seed)
    refs = load_refs()
    runs_dir = os.path.join(ROOT, ".bench_build", "runs")
    os.makedirs(runs_dir, exist_ok=True)
    base = os.path.join(runs_dir, args.workload)
    deadline = time.monotonic() + RUN_BUDGET_S
    runs = []
    if args.trace == 0:
        run = harness(args.workload, seed, args.seconds, base + ".json",
                      deadline=deadline)
        runs.append(run)
        metrics = {n: (end_to_end(run)[n], u) for n, u, _ in END_TO_END}
    else:
        # Half the time untraced (counts, protocol, set-up, memory,
        # sampler), half traced (request tracing, critical paths, artifacts).
        plain = harness(args.workload, seed, args.seconds / 2,
                        base + ".json", sample=True, deadline=deadline)
        traced = harness(args.workload, seed, args.seconds / 2,
                         base + "_traced.json",
                         traced=os.path.join(ARTIFACTS, args.workload),
                         deadline=deadline)
        runs += [plain, traced]
        values = per_layer(plain)
        values.update(host_shares(plain))
        values.update(critpath(traced))
        values["obs.trace_overhead_share"] = (
            requests_per_ref_s(plain) / requests_per_ref_s(traced) - 1)
        metrics = {n: (values[n], u) for n, u, _ in PER_LAYER}
    attempted = failed = 0
    correct = True
    for run in runs:
        a, f, problems = check(run, refs, seed)
        attempted += a
        failed += f
        for p in problems:
            log("perfbench: %s: %s" % (args.workload, p))
        correct = correct and not problems
    env = dict(runs[0]["env"], workload=args.workload, cluster_seed=seed,
               seconds=args.seconds, trace=args.trace)
    print("# env " + json.dumps(env))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--held-out", action="store_true",
                   help="run the seed kept out of tuning")
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--list", action="store_true", help="list every metric")
    p.add_argument("--record", action="store_true",
                   help="re-record refs.json (all workloads unless --workload)")
    args = p.parse_args()
    if args.list:
        list_metrics()
        return 0
    build()
    if args.record:
        record([args.workload] if args.workload else WORKLOADS)
        return 0
    if args.workload is None:
        p.error("--workload is required")
    measure(args)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        log("perfbench: %s" % e)
        sys.exit(1)
