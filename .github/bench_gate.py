#!/usr/bin/env python3
"""Benchmark gate for the sparse-regime walk/sweep benchmarks and the
Detector reuse contract.

Reads two `go test -bench` output files (base ref and head), takes the
median across -count repetitions of every reported metric (ns/op plus
custom ns/step, ns/sweep and rounds/op, allocs/op and the absolute gates'
units), and fails when:

  * any benchmark whose name contains "Sparse", "DetectorReuse",
    "CongestBatch", "KMachineConv", "DetectorPool", "MixSweep",
    "DetectStep" or "LadderSelect" regressed in an ns-valued metric (or,
    for the CONGEST batch benchmarks, in simulated rounds/op) by more than
    the threshold (default 20%) against the base ref, or
  * any row of ABSOLUTE_GATES fails within the head run alone: the
    allocation-free repeat-run contracts, the pooled-serving speedup, the
    flight recorder's overhead budget, the n=10⁶ cache-aware kernel pairs,
    the cluster wire ratio and the binary codec's framing ceilings. Each
    row says why it exists and whether a metric missing from head fails.

Pass "-" as the base file to skip the regression comparison and run only
the absolute gates. Benchmarks that exist only on one side are reported
but never gate relatively — new benchmarks have no baseline, and renamed
ones should not wedge CI.

Usage: bench_gate.py base.bench|- head.bench [threshold-percent]
"""

import collections
import operator
import sys

NS_UNITS = ("ns/op", "ns/step", "ns/sweep", "rounds/op")
GATED_SUBSTRINGS = ("Sparse", "DetectorReuse", "CongestBatch", "KMachineConv",
                    "DetectorPool", "MixSweep", "DetectStep", "LadderSelect")

POOL_WARM = ("BenchmarkDetectorPoolThroughput/warm", "ns/op")
CLUSTER_ROUND = "BenchmarkClusterRound"

# Absolute gates, measured within the head run alone (no baseline needed).
# A row is (label, metric, divisor, comparison, bound, required): a metric
# is a (benchmark, unit) pair, and the gated value is the metric's median,
# divided by the divisor's median when the row has one (a divisor median
# <= 0 makes the value infinite). A required row whose metrics are missing
# from head fails: head.bench always carries them, so their absence means
# the acceptance benchmark itself broke.
ABSOLUTE_GATES = (
    # The allocation-free repeat-run contracts: the Detector on its sparse
    # and dense sweep paths, the parallel engine's retained walk engines,
    # and the tracing-off detection path (a request without a trace in its
    # context pays the flight recorder nothing). Missing rows are reported
    # but not gated.
    *((name, (name, "allocs/op"), None, "<=", 0, False)
      for name in ("BenchmarkDetectorReuse", "BenchmarkDetectorReuseDense",
                   "BenchmarkBatchWalkEngineReuse",
                   "BenchmarkDetectorReuseTraceOff")),
    # The serving subsystem's acceptance bar: warm-cache pooled serving
    # answers at least 5x the requests/s of per-request Detector
    # construction (fresh ns/op over warm ns/op).
    ("DetectorPoolThroughput fresh/warm",
     ("BenchmarkDetectorPoolThroughput/fresh", "ns/op"), POOL_WARM,
     ">=", 5.0, True),
    # The flight recorder's overhead budget: tracing a warm-cache request
    # costs at most 1.05x the untraced warm path.
    ("DetectorPoolThroughput warm-traced/warm",
     ("BenchmarkDetectorPoolThroughput/warm-traced", "ns/op"), POOL_WARM,
     "<=", 1.05, True),
    # Cache-aware kernels at n=10⁶ against their reference siblings, and
    # the shared index bundle's and incremental re-verification's bars
    # (reference over optimised). These run non-short only; CI appends the
    # full-size results to head.bench before gating.
    ("SweepKernel1M compact/reference",
     ("BenchmarkSweepKernel1M/reference", "ns/sweep"),
     ("BenchmarkSweepKernel1M/compact", "ns/sweep"), ">=", 1.3, True),
    ("FloodKernel1M blocked/reference",
     ("BenchmarkFloodKernel1M/reference", "ns/step"),
     ("BenchmarkFloodKernel1M/blocked", "ns/step"), ">=", 1.3, True),
    ("PoolWarmup shared/solo",
     ("BenchmarkPoolWarmup/solo", "bytes/handle"),
     ("BenchmarkPoolWarmup/shared", "bytes/handle"), ">=", 4.0, True),
    ("IncrementalReverify reverify/cold",
     ("BenchmarkIncrementalReverify/cold", "ns/op"),
     ("BenchmarkIncrementalReverify/reverify", "ns/op"), ">=", 10.0, True),
    # The cluster mode's Conversion-Theorem validation: the measured max
    # per-round link load over a real-socket 3-shard cluster divided by the
    # k-machine simulator's predicted MaxLinkLoad for the same placement.
    # Coalescing keeps the true ratio at or below 1.0; 2.0 is the ceiling.
    ("ClusterRound wire-ratio", (CLUSTER_ROUND, "wire-ratio"), None,
     "<=", 2.0, True),
    # The binary round codec's framing budgets: link bytes per share word
    # (shard<->shard, ~9; JSON paid ~30) and coordination bytes per routed
    # walk-state entry (driver<->shard advance, ~9; JSON paid ~36).
    ("ClusterRound bytes/word", (CLUSTER_ROUND, "bytes/word"), None,
     "<=", 12.0, True),
    ("ClusterRound coord-bytes/entry", (CLUSTER_ROUND, "coord-bytes/entry"),
     None, "<=", 12.0, True),
)

COMPARE = {"<=": operator.le, ">=": operator.ge}
UNITS = set(NS_UNITS) | {metric[1] for _, metric, _, _, _, _ in ABSOLUTE_GATES}


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
                if unit in UNITS:
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

    for label, metric, divisor, cmp, bound, required in ABSOLUTE_GATES:
        keys = [metric] + ([divisor] if divisor else [])
        missing = [f"{name} [{unit}]" for name, unit in keys if (name, unit) not in head]
        if missing:
            if required:
                print(f"{label}: {', '.join(missing)} missing from head REGRESSION")
                failed.append(label)
            else:
                print(f"{label}: {', '.join(missing)} not found in head — not gated")
            continue
        value = median(head[metric])
        if divisor:
            den = median(head[divisor])
            value = value / den if den > 0 else float("inf")
        ok = COMPARE[cmp](value, bound)
        print(f"{label}: {value:,.3f} (want {cmp} {bound:g}) {'ok' if ok else 'REGRESSION'}")
        if not ok:
            failed.append(label)

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
