#!/bin/sh
# Wall-clock simulator-performance gate (DESIGN.md §9, §10).
#
# Runs the fixed-seed two-node Online Boutique sweep (bench/perf_gate.cpp)
# and compares against a baseline. Fails loudly when wall-clock events/sec
# drop more than 10% below the baseline, when peak RSS grows more than 15%,
# or when the *simulated* p50/p99 drift more than 1% — the latter means the
# model changed behavior, which a performance PR must never do. On top of
# the gate numbers, tools/report_diff structurally compares the whole BENCH
# json against the local baseline (simulated-time leaves only), so drift in
# any per-load row — not just the gate block — fails the run.
#
# Wall-clock numbers are machine-dependent, so the gate prefers a LOCAL
# baseline recorded on this machine
# (build/bench_baseline.v<version>.<fingerprint>.json, untracked). When none
# exists it records one from the current tree — with a loud notice, since
# that run gates nothing — instead of comparing against the committed
# BENCH_*.json numbers from someone else's hardware.
#
# Usage:
#   tools/bench_gate.sh                 gate against the local baseline
#                                       (recording it first if missing)
#   tools/bench_gate.sh --record FILE   just run the sweep, JSON to FILE
#                                       (for refreshing a committed baseline)
#   tools/bench_gate.sh --record-scale  re-record the ISSUE 9 scale-point
#                                       golden (tools/golden/pdes_scale.json)
#   tools/bench_gate.sh --record-ledger re-record the ISSUE 10 resource-
#                                       ledger golden (tools/golden/ledger.json)
#   tools/bench_gate.sh BASELINE.json   gate against an explicit baseline
set -e
cd "$(dirname "$0")/.."

GATE=build/bench/perf_gate
if [ ! -x "$GATE" ]; then
  echo "bench_gate: $GATE not built (run: cmake --build build --target perf_gate)" >&2
  exit 2
fi

if [ "$1" = "--record" ] && [ -n "$2" ]; then
  exec "$GATE" --json "$2"
fi

if [ "$1" = "--record-scale" ]; then
  exec "$GATE" --scale --json tools/golden/pdes_scale.json
fi

if [ "$1" = "--record-ledger" ]; then
  exec build/bench/overload_scenarios --scenario noisy_neighbor \
    --control both --policy blame --seconds 2 --threads 1 \
    --ledger-json tools/golden/ledger.json
fi

if [ -n "$1" ]; then
  BASELINE=$1
  if [ ! -f "$BASELINE" ]; then
    echo "bench_gate: baseline $BASELINE not found" >&2
    exit 2
  fi
  exec "$GATE" --check "$BASELINE"
fi

# Fingerprint this machine: wall-clock baselines only transfer between
# identical hosts. cpuinfo's model name + core count catches container
# moves; cksum keeps the filename filesystem-safe.
FP=$( { uname -m; nproc; grep -m1 "model name" /proc/cpuinfo 2>/dev/null; } \
      | cksum | cut -d' ' -f1)
# Bump BASELINE_VERSION whenever the sweep's simulated output changes on
# purpose, so a baseline recorded by an older sweep is re-recorded instead
# of reported as >1% model drift. v2: the classic sweep runs on the sharded
# simulator (the single-scheduler path is gone).
BASELINE_VERSION=2
LOCAL=build/bench_baseline.v$BASELINE_VERSION.$FP.json

if [ ! -f "$LOCAL" ]; then
  echo "bench_gate: NOTICE — no baseline recorded on this machine yet." >&2
  echo "bench_gate: the committed BENCH_*.json numbers came from different" >&2
  echo "bench_gate: hardware, so this run records $LOCAL" >&2
  echo "bench_gate: instead of gating; run tools/bench_gate.sh again to gate." >&2
  "$GATE" --json "$LOCAL"
  echo "bench_gate: local baseline recorded." >&2
  exit 0
fi

# One sweep: JSON to a scratch file, gate numbers checked against the
# baseline in-process, then the structural run-diff over the simulated-time
# leaves (sim_p50/p99 and events-per-request of every load row; wall-clock
# leaves are machine noise and excluded). 1% mirrors perf_gate's own drift
# tripwire.
CURRENT=build/bench_current.$FP.json
rc=0
"$GATE" --json "$CURRENT" --check "$LOCAL" || rc=1
if [ -x build/tools/report_diff ]; then
  build/tools/report_diff --only sim_ --only events_per_request --rel 0.01 \
    "$LOCAL" "$CURRENT" || rc=1
fi

# Overload-actuation gate (DESIGN.md §13): the scenario sweep is pure
# simulated time, so its per-tenant SLO tables are exactly reproducible on
# any machine. Drift from the committed golden means the control loop's
# behavior changed — which a performance PR must never do silently.
OVERLOAD=build/bench/overload_scenarios
if [ -x "$OVERLOAD" ] && [ -f tools/golden/overload_slo.json ] \
   && [ -x build/tools/report_diff ]; then
  "$OVERLOAD" --scenario all --control both --seconds 2 --threads 1 \
    --json build/overload_current.json > /dev/null || rc=1
  build/tools/report_diff tools/golden/overload_slo.json \
    build/overload_current.json || rc=1
fi
# One-sided cart-store gate (DESIGN.md §14): the RPC-vs-remote-READ cart
# ablation is pure simulated time, so its tables are exactly reproducible on
# any machine. Drift from the committed golden means the one-sided data
# path's behavior changed — which a performance PR must never do silently.
FIG12=build/bench/fig12_rdma_primitives
if [ -x "$FIG12" ] && [ -f tools/golden/cart_store.json ] \
   && [ -x build/tools/report_diff ]; then
  "$FIG12" --cart-store --seconds 2 --threads 1 \
    --json build/cart_store_current.json > /dev/null || rc=1
  build/tools/report_diff tools/golden/cart_store.json \
    build/cart_store_current.json || rc=1
fi
# Resource-ledger gate (DESIGN.md §16): the noisy-neighbor blame matrix is
# pure simulated time, so the ledger artifact is exactly reproducible on
# any machine. Drift from the committed golden means tenant attribution or
# the blame-driven shedding changed — which a performance PR must never do
# silently; re-record deliberately with --record-ledger.
if [ -x "$OVERLOAD" ] && [ -f tools/golden/ledger.json ] \
   && [ -x build/tools/report_diff ]; then
  "$OVERLOAD" --scenario noisy_neighbor --control both --policy blame \
    --seconds 2 --threads 1 \
    --ledger-json build/ledger_current.json > /dev/null || rc=1
  build/tools/report_diff tools/golden/ledger.json \
    build/ledger_current.json || rc=1
fi
# PDES scale-point gate (DESIGN.md §15): the 32-node leaf-sharded boutique's
# simulated latencies and pdes_* protocol counters (epochs, skip-ahead,
# mailbox messages) are pure functions of the model — exactly reproducible
# on any machine. Drift from the committed golden means the epoch protocol
# or the model changed; re-record deliberately with --record-scale.
if [ -f tools/golden/pdes_scale.json ] && [ -x build/tools/report_diff ]; then
  "$GATE" --scale --json build/pdes_scale_current.json || rc=1
  build/tools/report_diff --only sim_ --only .events --only .requests \
    --only pdes_epochs --only pdes_skip_ahead --only pdes_mailbox \
    tools/golden/pdes_scale.json build/pdes_scale_current.json || rc=1
fi
exit $rc
