#!/usr/bin/env python3
"""Compare two sets of benchmark results, such as a parent commit and a change.

    python3 bench/compare.py PARENT CHANGE

PARENT and CHANGE are result files written by bench/run.py, or directories
of them (bench/results/ of each checkout). For every workload and metric it
prints each side's median and quartiles, the share of pairs the change wins
and a verdict, using the bounds in BENCHMARK.json:

  better      at least 10 pairs, the change wins at least 9 in 10 of them
              (ties count for neither), and the medians differ by more than
              the parent's own quartile spread; never while the change fails
              a larger share of its jobs, or of its runs, than the parent;
  worse       the change's median is worse than the parent's by more than
              the metric's bound (metrics without a bound: the mirror of
              better);
  unresolved  neither, and a side's quartile spread is wider than the bound,
              unless every change run beats every parent run;
  unchanged   otherwise.

Runs pair up by seed when both sides hold the same seeds, else in order.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path):
    """Result documents under `path`, keyed by (workload, trace)."""
    path = Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs = {}
    for f in files:
        doc = json.loads(f.read_text())
        runs.setdefault((doc["workload"], doc["trace"]), []).append(doc)
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _fmt(q):
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def pairs(parent, change):
    a = {r["seed"]: r for r in parent}
    b = {r["seed"]: r for r in change}
    if len(a) == len(parent) and len(b) == len(change) and set(a) == set(b):
        return [(a[s], b[s]) for s in sorted(a)]
    return list(zip(parent, change))


def failures(runs):
    """Share of failed jobs and share of runs not correct."""
    return (sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs),
            sum(1 for r in runs if not r["correct"]) / len(runs))


def fails_more(parent, change):
    """Whether the change fails a larger share of its jobs or of its runs."""
    return any(b > a for a, b in zip(failures(parent), failures(change)))


def verdict(a_vals, b_vals, paired, lower_better, bound, may_claim=True):
    """One metric on one workload; a = parent, b = change. `may_claim` is
    False when the change fails more than the parent: then no gain counts."""
    sign = -1.0 if lower_better else 1.0  # sign * (b - a) > 0 means b is better
    qa, qb = quartiles(a_vals), quartiles(b_vals)
    gain = sign * (qb[1] - qa[1])
    a_spread = qa[2] - qa[0]
    wins = sum(1 for x, y in paired if sign * (y - x) > 0)
    losses = sum(1 for x, y in paired if sign * (y - x) < 0)
    n = len(paired)
    enough = n >= MIN_PAIRS
    if may_claim and enough and wins >= WIN_SHARE * n and gain > a_spread:
        return "better", wins / n
    if bound is None:
        if enough and losses >= WIN_SHARE * n and -gain > a_spread:
            return "worse", wins / n
        return "unchanged", wins / n
    base = abs(qa[1])
    if base and -gain / base > bound:
        return "worse", wins / n
    spreads = [(q[2] - q[0]) / abs(q[1]) for q in (qa, qb) if q[1]]
    separated = min(sign * y for y in b_vals) > max(sign * x for x in a_vals)
    if any(s > bound for s in spreads) and not separated:
        return "unresolved", wins / n
    return "unchanged", wins / n


def compare(parent, change, metrics):
    """Rows of (workload, metric, parent quartiles, change quartiles, win
    share, verdict) for the workloads and traces both sides ran."""
    rows = []
    for key in sorted(set(parent) & set(change)):
        paired = pairs(parent[key], change[key])
        may_claim = not fails_more(parent[key], change[key])
        for name, m in metrics.items():
            a = [r["metrics"][name]["value"] for r in parent[key]
                 if name in r["metrics"]]
            b = [r["metrics"][name]["value"] for r in change[key]
                 if name in r["metrics"]]
            if not a or not b:
                continue
            vp = [(x["metrics"][name]["value"], y["metrics"][name]["value"])
                  for x, y in paired]
            result, win_share = verdict(a, b, vp, m["better"] == "lower",
                                        m.get("bound"), may_claim)
            rows.append((key[0], name, quartiles(a), quartiles(b), win_share,
                         result))
    return rows


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = load(argv[0]), load(argv[1])
    for key in sorted(set(parent) & set(change)):
        fa, fb = failures(parent[key]), failures(change[key])
        print(f"{key[0]} trace {key[1]}: failed jobs {fa[0]:.4g} -> {fb[0]:.4g}, "
              f"runs not correct {fa[1]:.4g} -> {fb[1]:.4g}"
              + ("  (no gain counts)" if fails_more(parent[key], change[key])
                 else ""))
    print(f"{'workload':8s} {'metric':38s} {'parent median [q1, q3]':>30s} "
          f"{'change median [q1, q3]':>30s} {'wins':>5s}  verdict")
    for workload, name, qa, qb, win_share, result in compare(parent, change,
                                                             metrics):
        print(f"{workload:8s} {name:38s} {_fmt(qa):>30s} {_fmt(qb):>30s} "
              f"{win_share:5.2f}  {result}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
