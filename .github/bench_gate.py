#!/usr/bin/env python3
"""Benchmark gate for the sparse-regime walk/sweep benchmarks and the
Detector reuse contract.

Reads two `go test -bench` output files (base ref and head), takes the
median across -count repetitions of every reported metric (ns/op plus
custom ns/step, ns/sweep and rounds/op, and allocs/op), and fails when:

  * any benchmark whose name contains "Sparse", "DetectorReuse",
    "CongestBatch", "KMachineConv" or "DetectorPool" regressed in an
    ns-valued metric (or, for the CONGEST batch benchmarks, in simulated
    rounds/op) by more than the threshold (default 20%) against the base
    ref, or
  * BenchmarkDetectorReuse, BenchmarkDetectorReuseDense,
    BenchmarkBatchWalkEngineReuse or BenchmarkDetectorReuseTraceOff
    reports a non-zero allocs/op median in head — the allocation-free
    repeat-run contracts of the Detector (sparse and dense sweep paths),
    of the parallel engine's batch walk engine, and of the tracing-off
    detection path (a request without a trace in its context must not pay
    the flight recorder anything), gated absolutely (no baseline needed), or
  * BenchmarkDetectorPoolThroughput/warm serves fewer than 5x the
    requests/s of .../fresh — the serving subsystem's acceptance bar
    (warm-cache pooled serving vs per-request Detector construction),
    also gated absolutely, or
  * BenchmarkDetectorPoolThroughput/warm-traced costs more than 1.05x the
    ns/op of .../warm — the flight recorder's overhead budget: tracing a
    warm-cache request (trace allocation, context threading, phase
    attribution) must stay within 5% of the untraced path, or
  * a cache-aware kernel pair at n=10⁶ falls below its absolute speedup
    bar against the reference kernel measured in the same run:
    BenchmarkSweepKernel1M/compact and BenchmarkFloodKernel1M/blocked
    must beat their .../reference siblings by >= 1.3x,
    BenchmarkPoolWarmup/shared must cost <= 1/4 the bytes/handle of
    .../solo (the shared per-generation index bundle's acceptance bar),
    and BenchmarkIncrementalReverify/reverify must cost <= 1/10 the
    ns/op of .../cold at n=10⁵ (the incremental cache re-verification
    acceptance bar of the edge-mutation path). These pairs run non-short
    only; CI appends the full-size results to head.bench before gating,
    and a missing pair fails the gate, or
  * BenchmarkClusterRound reports a wire-ratio median above 2.0 — the
    cluster mode's Conversion-Theorem validation: the measured max
    per-round link load (in share words) over a real-socket 3-shard
    cluster, divided by the k-machine simulator's predicted MaxLinkLoad
    for the identical placement. Coalescing (one share per boundary
    vertex per link, vs one simulated message per edge) keeps the true
    ratio at or below 1.0; 2.0 is the hard ceiling. CI appends the
    cluster benchmark to head.bench before gating; a missing metric
    fails the gate, or
  * BenchmarkClusterRound reports a bytes/word median above 12.0 — the
    binary share codec's framing budget: total link bytes over total
    share words. The varint-delta + raw-float64 encoding costs ~9-10
    bytes per share word (JSON paid ~30); 12.0 is the ceiling that
    catches framing bloat, or
  * BenchmarkClusterRound reports a coord-bytes/entry median above 12.0 —
    the same budget for the binary advance codec on the driver<->shard
    path: coordination bytes per routed walk-state entry (~9; JSON paid
    ~36).

Pass "-" as the base file to skip the regression comparison and run only
the absolute gates. Benchmarks that exist only on one side are reported
but never gate relatively — new benchmarks have no baseline, and renamed
ones should not wedge CI.

Usage: bench_gate.py base.bench|- head.bench [threshold-percent]
"""

import collections
import sys

NS_UNITS = ("ns/op", "ns/step", "ns/sweep", "rounds/op")
ALLOC_UNIT = "allocs/op"
BYTES_UNIT = "bytes/handle"
WIRE_RATIO_UNIT = "wire-ratio"
GATED_SUBSTRINGS = ("Sparse", "DetectorReuse", "CongestBatch", "KMachineConv",
                    "DetectorPool", "MixSweep", "DetectStep")
ZERO_ALLOC_BENCHMARKS = ("BenchmarkDetectorReuse", "BenchmarkDetectorReuseDense",
                         "BenchmarkBatchWalkEngineReuse",
                         "BenchmarkDetectorReuseTraceOff")

# Absolute throughput gate of the serving subsystem: warm-cache registry
# serving must answer at least POOL_SPEEDUP_MIN times the requests/s of
# per-request Detector construction (equivalently, fresh ns/op must be at
# least that multiple of warm ns/op). Gated head-only, like the zero-alloc
# contracts.
POOL_FRESH = "BenchmarkDetectorPoolThroughput/fresh"
POOL_WARM = "BenchmarkDetectorPoolThroughput/warm"
POOL_SPEEDUP_MIN = 5.0

# Absolute overhead ceiling of the flight recorder: the warm-cache pooled
# path with a live trace in the request context must stay within 5% of the
# untraced warm path, measured head-only within the same run.
POOL_TRACED = "BenchmarkDetectorPoolThroughput/warm-traced"
TRACE_OVERHEAD_MAX = 1.05

# Absolute kernel-pair gates at n=10⁶, each measured head-only against its
# reference sibling in the same run: (label, reference key, optimised key,
# unit, minimum reference/optimised ratio). Like the pool-throughput gate,
# a pair missing from head means the acceptance benchmark itself broke.
PAIR_GATES = (
    ("SweepKernel1M compact/reference",
     "BenchmarkSweepKernel1M/reference", "BenchmarkSweepKernel1M/compact",
     "ns/sweep", 1.3),
    ("FloodKernel1M blocked/reference",
     "BenchmarkFloodKernel1M/reference", "BenchmarkFloodKernel1M/blocked",
     "ns/step", 1.3),
    ("PoolWarmup shared/solo",
     "BenchmarkPoolWarmup/solo", "BenchmarkPoolWarmup/shared",
     BYTES_UNIT, 4.0),
    ("IncrementalReverify reverify/cold",
     "BenchmarkIncrementalReverify/cold", "BenchmarkIncrementalReverify/reverify",
     "ns/op", 10.0),
)

# Absolute ceiling on the cluster mode's measured-vs-predicted link load:
# BenchmarkClusterRound's wire-ratio (measured max per-round link words over
# real sockets / simulated MaxLinkLoad for the same placement) must stay
# at or below this. Head-only, like the other absolute gates.
WIRE_RATIO_BENCH = "BenchmarkClusterRound"
WIRE_RATIO_MAX = 2.0

# Absolute ceilings on the binary round codec's framing cost in the same
# benchmark, head-only: total link bytes per share word (shard<->shard
# shares) and coordination bytes per routed walk-state entry (driver<->shard
# advance, which shares the shares' layout).
CODEC_CEILINGS = (
    ("bytes/word", 12.0),
    ("coord-bytes/entry", 12.0),
)


def load(path):
    metrics = collections.defaultdict(list)
    if path == "-":
        return metrics
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if not parts or not parts[0].startswith("Benchmark"):
                continue
            # BenchmarkName-8  <iters>  <value> <unit>  <value> <unit> ...
            name = parts[0].rsplit("-", 1)[0]
            for value, unit in zip(parts[1:], parts[2:]):
                if (unit in NS_UNITS or unit == ALLOC_UNIT
                        or unit == BYTES_UNIT or unit == WIRE_RATIO_UNIT
                        or unit in dict(CODEC_CEILINGS)):
                    try:
                        metrics[(name, unit)].append(float(value))
                    except ValueError:
                        pass
    return metrics


def median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def main():
    if len(sys.argv) < 3:
        sys.exit(__doc__)
    base = load(sys.argv[1])
    head = load(sys.argv[2])
    threshold = float(sys.argv[3]) / 100 if len(sys.argv) > 3 else 0.20

    failed = []

    # Absolute gate: the Detector reuse benchmark must be allocation-free.
    for name in ZERO_ALLOC_BENCHMARKS:
        key = (name, ALLOC_UNIT)
        if key not in head:
            print(f"{name} [{ALLOC_UNIT}]: not found in head — not gated")
            continue
        allocs = median(head[key])
        status = "REGRESSION" if allocs > 0 else "ok"
        print(f"{name} [{ALLOC_UNIT}]: head {allocs:,.0f} (want 0) {status}")
        if allocs > 0:
            failed.append(name)

    # Absolute gate: warm-cache pooled serving vs per-request construction.
    fresh_key, warm_key = (POOL_FRESH, "ns/op"), (POOL_WARM, "ns/op")
    if fresh_key in head and warm_key in head:
        fresh, warm = median(head[fresh_key]), median(head[warm_key])
        speedup = fresh / warm if warm > 0 else float("inf")
        status = "ok" if speedup >= POOL_SPEEDUP_MIN else "REGRESSION"
        print(f"{POOL_WARM}: {speedup:,.1f}x the fresh-construction throughput "
              f"(want >= {POOL_SPEEDUP_MIN:g}x) {status}")
        if speedup < POOL_SPEEDUP_MIN:
            failed.append(POOL_WARM)
    else:
        # head.bench always runs the full suite, so a missing pair means the
        # acceptance benchmark itself broke — that must fail, not skip.
        print("DetectorPoolThroughput fresh/warm pair missing from head REGRESSION")
        failed.append(POOL_WARM)

    # Absolute gate: tracing-on overhead on the warm pooled path.
    traced_key = (POOL_TRACED, "ns/op")
    if traced_key in head and warm_key in head:
        warm, traced = median(head[warm_key]), median(head[traced_key])
        ratio = traced / warm if warm > 0 else float("inf")
        status = "ok" if ratio <= TRACE_OVERHEAD_MAX else "REGRESSION"
        print(f"{POOL_TRACED}: {ratio:,.3f}x the untraced warm path "
              f"(want <= {TRACE_OVERHEAD_MAX:g}x) {status}")
        if ratio > TRACE_OVERHEAD_MAX:
            failed.append(POOL_TRACED)
    else:
        print("DetectorPoolThroughput warm/warm-traced pair missing from head REGRESSION")
        failed.append(POOL_TRACED)

    # Absolute gates: each cache-aware kernel against its reference sibling,
    # measured within the head run (no baseline drift).
    for label, ref_name, opt_name, unit, want in PAIR_GATES:
        ref_key, opt_key = (ref_name, unit), (opt_name, unit)
        if ref_key in head and opt_key in head:
            ref, opt = median(head[ref_key]), median(head[opt_key])
            ratio = ref / opt if opt > 0 else float("inf")
            status = "ok" if ratio >= want else "REGRESSION"
            print(f"{opt_name} [{unit}]: {ratio:,.2f}x better than reference "
                  f"(want >= {want:g}x) {status}")
            if ratio < want:
                failed.append(opt_name)
        else:
            print(f"{label} pair missing from head REGRESSION")
            failed.append(opt_name)

    # Absolute gate: the cluster mode's measured-vs-predicted link load.
    wire_key = (WIRE_RATIO_BENCH, WIRE_RATIO_UNIT)
    if wire_key in head:
        ratio = median(head[wire_key])
        status = "ok" if ratio <= WIRE_RATIO_MAX else "REGRESSION"
        print(f"{WIRE_RATIO_BENCH} [{WIRE_RATIO_UNIT}]: measured/predicted link "
              f"load {ratio:,.2f} (want <= {WIRE_RATIO_MAX:g}) {status}")
        if ratio > WIRE_RATIO_MAX:
            failed.append(WIRE_RATIO_BENCH)
    else:
        print("ClusterRound wire-ratio missing from head REGRESSION")
        failed.append(WIRE_RATIO_BENCH)

    # Absolute gates: the binary round codec's framing cost per word.
    for unit, ceiling in CODEC_CEILINGS:
        key = (WIRE_RATIO_BENCH, unit)
        if key in head:
            value = median(head[key])
            status = "ok" if value <= ceiling else "REGRESSION"
            print(f"{WIRE_RATIO_BENCH} [{unit}]: {value:,.2f} "
                  f"(want <= {ceiling:g}) {status}")
            if value > ceiling:
                failed.append(WIRE_RATIO_BENCH)
        else:
            print(f"ClusterRound {unit} missing from head REGRESSION")
            failed.append(WIRE_RATIO_BENCH)

    # Relative gate: ns-valued regressions against the base ref.
    for key in sorted(head):
        name, unit = key
        if unit not in NS_UNITS or not any(s in name for s in GATED_SUBSTRINGS):
            continue
        if not base:
            continue
        if key not in base:
            print(f"{name} [{unit}]: new benchmark, no baseline — not gated")
            continue
        b, h = median(base[key]), median(head[key])
        if b <= 0:
            continue
        delta = h / b - 1
        status = "REGRESSION" if delta > threshold else "ok"
        print(f"{name} [{unit}]: base {b:,.0f} head {h:,.0f} ({delta:+.1%}) {status}")
        if delta > threshold:
            failed.append(name)

    if failed:
        print(f"\nFAIL: benchmark gate tripped by: {', '.join(sorted(set(failed)))}")
        sys.exit(1)
    print("\nbenchmark gates within budget")


if __name__ == "__main__":
    main()
