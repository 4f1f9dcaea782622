#!/usr/bin/env python3
"""Time two source trees on a benchmark workload in paired, alternating rounds.

    python3 tools/paired_timing.py PARENT_SRC CHANGE_SRC --workload sweep|design
                                   [--seed N] [--jobs K] [--rounds R]

Each round runs both trees, each in a fresh process with
OPENBLAS_NUM_THREADS=1: the parent first in odd rounds, the change first in
even ones. A process imports wvsagnac from its tree and bench/jobs.py from
this checkout, prepares jobs 1..K of the workload at the seed, and times 5
passes over them; its time is its best pass, so it times the jobs with the
package's caches warm (a design's zero-rotation references among them), as
a long run does for its repeated inputs. The script prints each round's
change/parent ratio, then the median ratio, its quartiles and the number of
rounds the change won (ratio below 1). It exits 1, after the round that
shows it, if the two trees' outputs differ: the repr of every job's output
of the first pass, compared by sha256, and exits 2, before it runs
anything, if either tree holds no wvsagnac package.

What ten rounds resolve on a shared 2-core host: changes that timed 0.97 to
1.03x in one process read 0.916x [0.868, 1.000] on sweep (won 7 of 10) and
1.114x [0.968, 1.183] on design, so the rounds cannot size a gain or a loss
below about 15%.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from output_digest import workloads  # this script's directory is on sys.path

PASSES = 5


def child(src: Path, workload: str, seed: int, jobs: int) -> dict:
    """The best pass's wall time over jobs 1..`jobs`, and the outputs' digest."""
    (make, prepare, run), = workloads(src, workload)
    calls = [prepare(make(seed, index), None) for index in range(1, jobs + 1)]
    best, sha = float("inf"), hashlib.sha256()
    for k in range(PASSES):
        start = time.perf_counter()
        outputs = [run(call, None) for call in calls]
        best = min(best, time.perf_counter() - start)
        if k == 0:
            for output in outputs:
                sha.update(repr(output).encode())
    return {"best_s": best, "digest": sha.hexdigest()[:16]}


def timed(src: Path, args) -> dict:
    """child() in a fresh process."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    out = subprocess.run(
        [sys.executable, __file__, str(src), str(src), "--child",
         "--workload", args.workload, "--seed", str(args.seed),
         "--jobs", str(args.jobs)],
        env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", choices=("sweep", "design"), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--jobs", type=int, default=40)
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    parent, change = args.parent.resolve(), args.change.resolve()
    for src in (parent, change):
        if not (src / "wvsagnac" / "__init__.py").is_file():
            print(f"paired_timing.py: no wvsagnac package in {src}", file=sys.stderr)
            return 2
    if args.child:
        print(json.dumps(child(parent, args.workload, args.seed, args.jobs)))
        return 0
    if args.jobs < 1 or args.rounds < 2:
        parser.error("need --jobs >= 1 and --rounds >= 2")

    ratios = []
    for r in range(1, args.rounds + 1):
        if r % 2:
            old, new = timed(parent, args), timed(change, args)
        else:
            new, old = timed(change, args), timed(parent, args)
        ratio = new["best_s"] / old["best_s"]
        ratios.append(ratio)
        print(f"round {r}: parent {old['best_s']:.4f} s, change "
              f"{new['best_s']:.4f} s, ratio {ratio:.3f}", flush=True)
        if old["digest"] != new["digest"]:
            print(f"outputs differ: parent {old['digest']}, change {new['digest']}")
            return 1
    q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    wins = sum(ratio < 1.0 for ratio in ratios)
    print(f"median ratio {median:.3f}, quartiles {q1:.3f}-{q3:.3f}, "
          f"change won {wins} of {len(ratios)} rounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
