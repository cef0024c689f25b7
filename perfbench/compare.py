#!/usr/bin/env python3
"""Compare two sets of benchmark runs, workload by workload.

Usage, from the root of a checkout:

    python3 perfbench/compare.py OLD.jsonl NEW.jsonl

Each file holds the result lines that `bash perfbench/run.sh ... --out FILE`
appends, one per run. Runs are paired by seed (by order when the two sides
used different seeds). For every workload and metric the script prints each
side's median and quartiles and one verdict:

  improved    the new side wins at least nine tenths of the pairs (ties count
              for neither) and the medians differ by more than the distance
              between the old side's quartiles;
  unresolved  the quartile spread of either side, as a share of its median, is
              wider than the metric's bound, and not every new run is better
              than every old run;
  worse       the new median is worse than the old by more than the bound;
  unchanged   otherwise.

End-to-end metrics take their bounds from BENCHMARK.json. Per-layer metrics
have none; for them the old side's quartile spread stands in for the bound.
The script exits with status 1 when any verdict is "worse" or when the new
side failed more operations than the old.
"""

import json
import os
import statistics
import sys


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                r = json.loads(line)
                runs.setdefault((r["workload"], r["trace"]), []).append(r)
    return runs


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return q1, med, q3


def pairs(old, new):
    """Pairs of (old, new) values, by seed when both sides share seeds."""
    by_seed_old = {r["seed"]: r for r in old}
    by_seed_new = {r["seed"]: r for r in new}
    common = sorted(set(by_seed_old) & set(by_seed_new))
    if common:
        return [(by_seed_old[s], by_seed_new[s]) for s in common]
    return list(zip(old, new))


def verdict(old, new, better, bound, paired):
    d = 1 if better == "higher" else -1
    q1o, mo, q3o = quartiles(old)
    q1n, mn, q3n = quartiles(new)
    spread_old = q3o - q1o
    gain = (mn - mo) * d
    wins = sum(1 for o, n in paired if (n - o) * d > 0)
    losses = sum(1 for o, n in paired if (n - o) * d < 0)
    if paired and wins >= 0.9 * len(paired) and gain > spread_old:
        return "improved"
    all_better = min(x * d for x in new) > max(x * d for x in old)
    if bound is None:
        if paired and losses >= 0.9 * len(paired) and -gain > spread_old:
            return "worse"
        return "unchanged" if abs(gain) <= spread_old else "unresolved"
    rel = max(spread_old / abs(mo) if mo else 0.0, (q3n - q1n) / abs(mn) if mn else 0.0)
    if rel > bound and not all_better:
        return "unresolved"
    if -gain > bound * abs(mo):
        return "worse"
    return "unchanged"


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: python3 perfbench/compare.py OLD.jsonl NEW.jsonl", file=sys.stderr)
        return 2
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    defs = {0: bench["end_to_end"], 1: bench["per_layer"]}
    old, new = load(argv[1]), load(argv[2])
    bad = False
    for key in sorted(set(old) & set(new)):
        workload, trace = key
        o, n = old[key], new[key]
        print(f"{workload} ({'traced, per-layer' if trace else 'untraced, end-to-end'}): "
              f"{len(o)} old runs, {len(n)} new runs")
        fo = sum(r["result"]["failed"] for r in o)
        fn = sum(r["result"]["failed"] for r in n)
        if fn > fo:
            bad = True
            print(f"  failed operations: old {fo}, new {fn}: worse")
        print(f"  {'metric':28} {'unit':6} {'old q1/median/q3':>34} {'new q1/median/q3':>34}  verdict")
        paired_runs = pairs(o, n)
        for m in defs[trace]:
            name = m["name"]
            ov = [r["result"]["metrics"][name]["value"] for r in o]
            nv = [r["result"]["metrics"][name]["value"] for r in n]
            paired = [(a["result"]["metrics"][name]["value"], b["result"]["metrics"][name]["value"])
                      for a, b in paired_runs]
            v = verdict(ov, nv, m["better"], m.get("bound"), paired)
            bad = bad or v == "worse"
            fmt = lambda q: "%10.4g %10.4g %10.4g" % q
            print(f"  {name:28} {m['unit']:6} {fmt(quartiles(ov)):>34} {fmt(quartiles(nv)):>34}  {v}")
    for key in sorted(set(old) ^ set(new)):
        print(f"{key[0]} (trace {key[1]}): runs on one side only, not compared")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
