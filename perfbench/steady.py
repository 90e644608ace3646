#!/usr/bin/env python3
"""Steadiness check for the benchmark: two interleaved sets of runs.

Run from the root of a checkout:

    python3 perfbench/steady.py --out perfbench/steady-runs.jsonl

For each of ten rounds it runs every workload once for set A and once for
set B, alternating, so machine drift lands on both sets alike. Set A uses
seeds 1..10 and set B seeds 101..110. It prints, per workload and
end-to-end metric, each set's median and quartiles, the spread (quartile
distance over the median, as statistics.quantiles(values, n=4) gives them),
the shift of set B's median against set A's, and the metric's bound from
BENCHMARK.json, and exits 1 if a spread or a shift exceeds its bound. With
--summarize it only re-reads an earlier --out file.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

SEEDS = 10


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    t0 = time.time()
    out = subprocess.run(args, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {out.returncode}: {out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    head, result = json.loads(lines[-2]), json.loads(lines[-1])
    keep = ("reads", "writes", "beyond_p95", "error_ratio", "carried_answers", "setup_s_each")
    return {
        "workload": workload,
        "seed": seed,
        "wall_s": round(time.time() - t0, 1),
        "env": {k: head["env"][k] for k in ("gomaxprocs", "nproc", "go", "commit", "cpu")},
        "detail": {k: head["detail"][k] for k in keep if k in head["detail"]},
        "result": result,
    }


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2


def summarize(bench, records):
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    rows = []
    ok = True
    for w in [w["name"] for w in bench["workloads"]]:
        for name, spec in bounds.items():
            sets = {}
            for s in ("A", "B"):
                vals = [r["result"]["metrics"][name]["value"] for r in records
                        if r["workload"] == w and r["set"] == s]
                if len(vals) >= 2:
                    sets[s] = vals
            if not sets:
                continue
            cells = []
            for s, vals in sorted(sets.items()):
                q1, q2, q3, sp = spread(vals)
                cells.append((s, q1, q2, q3, sp))
            shift = None
            if len(cells) == 2:
                a, b = cells[0][2], cells[1][2]
                shift = (b - a) / a if spec["better"] == "lower" else (a - b) / a
            bound = spec["bound"]
            bad = any(c[4] > bound for c in cells) or (shift is not None and shift > bound)
            ok = ok and not bad
            rows.append((w, name, spec["unit"], cells, shift, bound, bad))
    print("| workload | metric | set | q1 | median | q3 | spread | B vs A | bound |")
    print("|---|---|---|---|---|---|---|---|---|")
    for w, name, unit, cells, shift, bound, bad in rows:
        for i, (s, q1, q2, q3, sp) in enumerate(cells):
            sh = f"{shift:+.3f}" if (shift is not None and i == len(cells) - 1) else ""
            flag = " FAIL" if bad and i == len(cells) - 1 else ""
            print(f"| {w} | {name} ({unit}) | {s} | {q1:.6g} | {q2:.6g} | {q3:.6g} | {sp:.3f} | {sh} | {bound}{flag} |")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="", help="append one JSON line per run here")
    ap.add_argument("--summarize", action="store_true", help="only summarize --out")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    records = []
    if args.summarize:
        with open(args.out) as f:
            records = [json.loads(l) for l in f if l.strip()]
        sys.exit(0 if summarize(bench, records) else 1)

    for i in range(1, SEEDS + 1):
        for s in "AB":
            seed = i if s == "A" else 100 + i
            for w in [w["name"] for w in bench["workloads"]]:
                rec = run_once(bench["command"], w, seed, bench["run_seconds"])
                rec["set"] = s
                records.append(rec)
                if args.out:
                    with open(args.out, "a") as f:
                        f.write(json.dumps(rec) + "\n")
                m = rec["result"]["metrics"]
                print(f"{s} {w} seed={seed} wall={rec['wall_s']:.1f}s correct={rec['result']['correct']} "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(m.items())), flush=True)
    sys.exit(0 if summarize(bench, records) else 1)


if __name__ == "__main__":
    main()
