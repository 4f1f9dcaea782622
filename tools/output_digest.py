#!/usr/bin/env python3
"""Print the benchmark output digest of a source tree.

    python3 tools/output_digest.py [SRC_DIR]

sha256 over the repr of bench/jobs.py's run_sweep outputs for sweep jobs
1-40, then its run_design outputs for design jobs 1-48, at seed 1 and then
seed 31, with the package imported from SRC_DIR (default: this checkout's
src). A change that keeps outputs bit for bit keeps the digest, so the
digests of two checkouts' src, taken with this checkout's bench/jobs.py,
compare a parent and a change. BLAS summation order can differ across hosts:
compare digests taken on one host. A usage error, or a SRC_DIR that holds
no wvsagnac package, prints one line and exits 2.
"""

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def workloads(src: Path, *names: str) -> list:
    """(make, prepare, run) of each named workload of bench/jobs.py, with
    wvsagnac imported from `src`; exits, naming the file, if the package
    came from anywhere else."""
    sys.path[:0] = [str(src), str(ROOT / "bench")]
    import jobs
    import wvsagnac
    if Path(wvsagnac.__file__).resolve().parents[1] != src:
        sys.exit(f"wvsagnac was imported from {wvsagnac.__file__}, not from {src}")
    return [tuple(getattr(jobs, f"{step}_{name}")
                  for step in ("make", "prepare", "run")) for name in names]


def digest(src: Path) -> str:
    steps, sha = workloads(src, "sweep", "design"), hashlib.sha256()
    for seed in (1, 31):
        for (make, prepare, run), count in zip(steps, (40, 48)):
            for index in range(1, count + 1):
                output = run(prepare(make(seed, index), None), None)
                sha.update(repr(output).encode())
    return sha.hexdigest()[:16]


if __name__ == "__main__":
    if len(sys.argv) > 2:
        print("usage: " + __doc__.split("\n\n")[1].strip(), file=sys.stderr)
        sys.exit(2)
    src = Path(sys.argv[1] if len(sys.argv) > 1 else ROOT / "src").resolve()
    if not (src / "wvsagnac" / "__init__.py").is_file():
        print(f"output_digest.py: no wvsagnac package in {src}", file=sys.stderr)
        sys.exit(2)
    print(f"benchmark output digest: {digest(src)}")
