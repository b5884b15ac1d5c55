#!/usr/bin/env python3
"""Compares two sets of end-to-end benchmark results.

    python3 e2ebench/compare.py SET_A [SET_B]

A set is a directory of result files named <workload>.<seed>.json, each
holding the output of one run of e2ebench/run.py (only its last line, the
JSON result, is read). Run a set with, for example:

    mkdir -p sets/a
    for w in serve-icews14 serve-gdelt; do
      for s in $(seq 1 10); do
        python3 e2ebench/run.py --workload $w --seed $s --seconds 10 \\
            --trace 0 | tail -n 1 > sets/a/$w.$s.json
      done
    done

For every workload and metric the script prints each set's median, first
and third quartile (statistics.quantiles, n=4) and spread (interquartile
range as a share of the median). With two sets it also prints how much
worse B's median is than A's, as a share of A's median, against the
metric's bound in BENCHMARK.json. Flags: SPREAD when a set's spread
exceeds the bound, WORSE when B is worse than A by more than the bound.
Per-layer metrics (results of --trace 1 runs) are listed without a bound.
The exit code is 1 when any flag is raised, else 0.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_set(directory):
    """{workload: {metric: [values]}} plus run and failure counts."""
    values = defaultdict(lambda: defaultdict(list))
    runs = defaultdict(lambda: [0, 0, 0])  # runs, attempted, failed
    for path in sorted(Path(directory).glob("*.json")):
        workload = path.name.split(".", 1)[0]
        lines = path.read_text().strip().splitlines()
        if not lines:
            raise SystemExit(f"{path}: empty result file")
        result = json.loads(lines[-1])
        if not result.get("correct"):
            raise SystemExit(f"{path}: run reported correct=false")
        runs[workload][0] += 1
        runs[workload][1] += result["attempted"]
        runs[workload][2] += result["failed"]
        for name, metric in result["metrics"].items():
            values[workload][name].append(float(metric["value"]))
    if not values:
        raise SystemExit(f"{directory}: no <workload>.<seed>.json files")
    return values, runs


def summary(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0], 0.0
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    sets = [load_set(d) for d in argv[1:]]
    flagged = False
    for workload in sorted(sets[0][0]):
        print(f"== {workload}")
        for i, (_, runs) in enumerate(sets):
            n, attempted, failed = runs.get(workload, (0, 0, 0))
            share = failed / attempted if attempted else 0.0
            print(f"   set {'AB'[i]}: {n} runs, failed share {share:.6g}")
        header = f"   {'metric':30} {'A median':>12} {'A q1..q3':>23} {'A spr':>6}"
        if len(sets) == 2:
            header += f" {'B median':>12} {'B spr':>6} {'worse':>7}"
        print(header + f" {'bound':>6}")
        for name, xs in sets[0][0][workload].items():
            info = metrics.get(name, {})
            bound = info.get("bound")
            med, q1, q3, spread = summary(xs)
            line = (f"   {name:30} {med:12.6g} {q1:11.6g}..{q3:<11.6g}"
                    f" {spread:6.1%}")
            flags = []
            if bound is not None and spread > bound:
                flags.append("SPREAD")
            if len(sets) == 2:
                ys = sets[1][0].get(workload, {}).get(name)
                if not ys:
                    line += f" {'-':>12} {'-':>6} {'-':>7}"
                else:
                    med_b, _, _, spread_b = summary(ys)
                    sign = -1 if info.get("better") == "higher" else 1
                    worse = sign * (med_b - med) / abs(med) if med else 0.0
                    line += f" {med_b:12.6g} {spread_b:6.1%} {worse:+7.1%}"
                    if bound is not None and spread_b > bound:
                        flags.append("SPREAD")
                    if bound is not None and worse > bound:
                        flags.append("WORSE")
            line += f" {bound:6.0%}" if bound is not None else f" {'-':>6}"
            if flags:
                flagged = True
                line += "  " + " ".join(sorted(set(flags)))
            print(line)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
