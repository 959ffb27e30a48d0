#!/usr/bin/env bash
# Is the benchmark steady enough for its own bounds?
#
#   benchmark/noise.sh [--passes P] [--seed N] [--seconds S]
#       Run the full pass on this commit as side A and as side B, same
#       seed, P times each (default 3), alternating A B A B ..., and
#       print, per workload x end-to-end metric, both sides' medians,
#       their relative difference and the bound from BENCHMARK.json.
#       Exits nonzero if any pair is outside its bound. (One pass per
#       side is not evidence on a shared host: a slow phase of minutes
#       can sit on one side only.)
#
#   benchmark/noise.sh --spread [--runs R] [--seconds S]
#       Run every workload R times (default 10), each with another seed,
#       and print per workload x metric the median and the quartile
#       spread (Q3 - Q1 of statistics.quantiles(n=4), as a share of the
#       median) beside the bound. Exits nonzero if a spread other than
#       setup_s's exceeds its bound. Bounds should sit at three times the
#       worst spread seen here; re-derive them with this mode.
#
# Needs python3 (standard library only) besides the rust toolchain.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec python3 - "$here" "$@" <<'PY'
import json
import statistics
import subprocess
import sys

here, argv = sys.argv[1], sys.argv[2:]
spec = json.load(open(f"{here}/../BENCHMARK.json"))
seconds, seed, runs, passes, spread = spec["run_seconds"], 1, 10, 3, False
while argv:
    flag = argv.pop(0)
    if flag == "--spread":
        spread = True
    elif flag in ("--seconds", "--seed", "--runs", "--passes") and argv:
        value = int(argv.pop(0))
        if flag == "--seconds":
            seconds = value
        elif flag == "--seed":
            seed = value
        elif flag == "--runs":
            runs = value
        else:
            passes = value
    else:
        sys.exit(f"usage: noise.sh [--spread] [--runs R] [--passes P] [--seed N] [--seconds S] (got {flag})")

workloads = [w["name"] for w in spec["workloads"]]
metrics = spec["end_to_end"]


def run(workload, seed):
    """One untraced run; returns {metric: value}."""
    out = subprocess.run(
        [f"{here}/run.sh", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        check=True, capture_output=True, text=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: outputs are wrong")
    return {k: v["value"] for k, v in result["metrics"].items()}


def worse_by(metric, a, b):
    """How much worse b is than a, as a share of a (negative = better)."""
    change = (b - a) / a
    return change if metric["better"] == "lower" else -change


bad = 0
if spread:
    print(f"{runs} runs per workload, seeds {seed}..{seed + runs - 1}, {seconds} s each")
    print(f"{'workload':<18} {'metric':<12} {'median':>14} {'unit':<5} {'spread':>8} {'bound':>6}")
    for w in workloads:
        samples = [run(w, seed + i) for i in range(runs)]
        for m in metrics:
            values = [s[m["name"]] for s in samples]
            q1, _, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / statistics.median(values)
            flag = ""
            if share > m["bound"] and m["name"] != "setup_s":
                flag, bad = "  OUTSIDE", bad + 1
            elif share > m["bound"] / 3:
                flag = "  (above a third of the bound)"
            print(f"{w:<18} {m['name']:<12} {statistics.median(values):>14.6g} {m['unit']:<5} "
                  f"{share:>8.4f} {m['bound']:>6.2f}{flag}", flush=True)
else:
    print(f"{passes} passes per side, alternating A B, seed {seed}, {seconds} s per workload")
    sides = {"A": [], "B": []}
    for _ in range(passes):
        for side in sides.values():
            side.append({w: run(w, seed) for w in workloads})

    def median_of(side, w, name):
        return statistics.median(p[w][name] for p in sides[side])

    print(f"{'workload':<18} {'metric':<12} {'A':>14} {'B':>14} {'unit':<5} {'B worse by':>10} {'bound':>6}")
    for w in workloads:
        for m in metrics:
            va, vb = median_of("A", w, m["name"]), median_of("B", w, m["name"])
            change = worse_by(m, va, vb)
            flag = ""
            if abs(change) > m["bound"]:
                flag, bad = "  OUTSIDE", bad + 1
            print(f"{w:<18} {m['name']:<12} {va:>14.6g} {vb:>14.6g} {m['unit']:<5} "
                  f"{change:>+10.4f} {m['bound']:>6.2f}{flag}")
print("PASS" if bad == 0 else f"FAIL: {bad} outside their bound")
sys.exit(1 if bad else 0)
PY
