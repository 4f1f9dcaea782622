#!/usr/bin/env python3
"""Benchmark of the wvsagnac toolkit, run from the repository root:

    python3 bench/run.py --workload sweep|design|cli --seed N --seconds S --trace 0|1

Workloads (see jobs.py): `sweep` calls run_sweep, `design` runs one
min_area design study and a feasible() map around its answer, `cli` starts
one `python -m wvsagnac.cli` child per job. Load is a closed loop from this
one process, no worker threads; children run one at a time. Every job's
output is checked; with the pinned seed it is also compared with
bench/reference.json.

--trace 0 prints the end-to-end metrics; setup_s is the median of this
process's set-up and SETUP_PROBES fresh ones. Times are given at a
reference machine speed. The run times a speed probe, a bare
`python -c pass` child, after each fresh set-up and between jobs (for at
most PROBE_SHARE of the loop), and scales times by PROBE_REF_S over the
probes' geometric mean (jobs_per_s by the inverse). The shared host's
speed drifts by 20% and more over minutes and moves the probe with the
jobs, so the scaled figures spread several times less from run to run;
the unscaled ones are kept in the result file. A mean, not a median: the
probe's times fall in a few modes whose shares shift with the host's load,
and a mean follows the shares where a median jumps between modes.

--trace 1 has a fresh process run the workload untraced for half the
time, then runs the same jobs here with span recording (spans.py), and
prints the per-layer metrics and the tracing overhead. The last stdout
line is one JSON object; the full result, with the environment (and a
traced run's spans), goes to bench/results/.

    python3 bench/run.py --write-reference   # refresh bench/reference.json
    python3 bench/compare.py PARENT_DIR CHANGE_DIR   # two sets of results
"""

import time

T0 = time.perf_counter()  # benchmark start: set-up time counts from here

import argparse  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"
REFERENCE_PATH = BENCH_DIR / "reference.json"

SETUP_PROBES = 6      # extra fresh-process set-ups; setup_s is the median
IMPORT_PROBES = 5     # fresh children timing `import wvsagnac.cli`
PREGENERATED = 64     # inputs generated during set-up; later ones on demand
REFERENCE_JOBS = {"sweep": 32, "design": 16, "cli": 24}
# One BLAS thread in this process and in every child it starts: numpy's
# OpenBLAS otherwise starts a worker thread per core at import, which takes
# about 70 ms of a CLI child's start and competes with the job for the
# machine's few cores (the load is one client, with no worker threads).
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
# job_ms_tail percentile per workload: the highest of 50, 75, 80, 90, 95, 99
# that keeps at least ten jobs beyond it in a run of BENCHMARK.json's
# run_seconds (30 s) on a 2-core machine a quarter slower than the one the
# bounds were set on (there: sweep ~240 jobs, design ~87, cli ~113). It is
# fixed, not chosen per run, so that every run and commit compares the same
# percentile; each run records how many jobs lie beyond it.
TAIL_PERCENTILE = {"sweep": 90.0, "design": 80.0, "cli": 80.0}
# Seconds of the speed probe (geometric mean) on the 2-vCPU x86_64 VM the
# bounds were set on; reported times are scaled to it.
PROBE_REF_S = 0.060
PROBE_SHARE = 0.1  # at most this share of the timed loop goes to probes


def spec():
    """BENCHMARK.json: the run length and the metrics."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def units(kind):
    """Name -> unit of the "end_to_end" or "per_layer" metrics, in order."""
    return {m["name"]: m["unit"] for m in spec()[kind]}


def load_program():
    """Put the checkout's src/ first on the path and import the workloads."""
    if not (SRC / "wvsagnac" / "__init__.py").is_file():
        raise SystemExit(f"error: no wvsagnac sources under {SRC}; run the "
                         "benchmark from the root of a checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import jobs
    if Path(jobs.wv.__file__).resolve().parent != SRC / "wvsagnac":
        raise SystemExit(f"error: imported wvsagnac from {jobs.wv.__file__}, "
                         f"not from {SRC}")
    return jobs


@dataclass
class JobRecord:
    index: int
    seconds: float
    problems: list
    summary: dict | None = None
    maxrss_kb: int = 0
    exit_mismatch: bool = False


class Runner:
    """One workload, one seed: inputs, jobs and their checks."""

    def __init__(self, jobs, workload, seed, ctx, use_reference=True):
        self.jobs = jobs
        self.wl = jobs.WORKLOADS[workload]
        self.seed = seed
        self.ctx = ctx
        self.inputs = [self.wl.make(seed, i) for i in range(PREGENERATED)]
        self.warmup = None
        self.reference = None
        if use_reference and seed == jobs.PINNED_SEED and REFERENCE_PATH.is_file():
            self.reference = json.loads(REFERENCE_PATH.read_text())["jobs"][workload]

    def job(self, index):
        while index >= len(self.inputs):
            self.inputs.append(self.wl.make(self.seed, len(self.inputs)))
        return self.inputs[index]

    def run_one(self, index, tracer=None) -> JobRecord:
        job = self.job(index)
        call = self.wl.prepare(job, self.ctx)
        if tracer is not None:
            tracer.job, tracer.recording = index, True
        t0 = time.perf_counter()
        try:
            out = self.wl.run(call, self.ctx)
        except Exception as exc:  # an unexpected failure is counted, not fatal
            return JobRecord(index, time.perf_counter() - t0,
                             [f"{type(exc).__name__}: {exc}"])
        finally:
            if tracer is not None:
                tracer.recording = False
        seconds = time.perf_counter() - t0
        maxrss = getattr(out, "maxrss_kb", 0)
        if tracer is not None and getattr(out, "spans_path", None):
            tracer.merge(out.spans_path, index)
        problems, summary = self.wl.check(job, out, self.ctx)
        if self.reference is not None and 1 <= index <= len(self.reference):
            problems = problems + self.jobs.compare_summary(
                summary, self.reference[index - 1])
        exit_mismatch = (getattr(out, "exit_code", None) is not None
                         and out.exit_code != job["exit_code"])
        return JobRecord(index, seconds, problems, summary, maxrss, exit_mismatch)

    def loop(self, first, seconds=None, count=None, tracer=None, probes=None):
        """Closed loop from job `first` for `seconds` or `count` jobs. With
        a `probes` list, the speed probe runs between jobs, untimed, for at
        most PROBE_SHARE of the time, and its times are appended."""
        records = []
        start = time.perf_counter()
        while True:
            if count is not None and len(records) >= count:
                break
            if count is None and time.perf_counter() - start >= seconds:
                break
            records.append(self.run_one(first + len(records), tracer))
            if (probes is not None and sum(probes)
                    < PROBE_SHARE * (time.perf_counter() - start)):
                probes.append(probe_s())
        return records


def probe_s():
    """Seconds a bare `python -c pass` child takes: the machine's speed. No
    timeout: Popen.wait polls every 50 ms when given one."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return time.perf_counter() - t0


def tail(values_ms, percentile):
    """Nearest-rank percentile of the job times, and how many lie beyond it."""
    ordered = sorted(values_ms)
    value = ordered[max(math.ceil(percentile / 100.0 * len(ordered)) - 1, 0)]
    return value, sum(1 for v in ordered if v > value)


def e2e_metrics(records, setups, setup_probes, probes, workload):
    """End-to-end metrics, times scaled to the reference machine speed: the
    set-up by the probes run beside the fresh set-ups, the jobs by the
    probes run between them."""
    setup_scale = PROBE_REF_S / statistics.geometric_mean(setup_probes)
    scale = PROBE_REF_S / statistics.geometric_mean(probes)
    raw_ms = [r.seconds * 1000.0 for r in records]
    ms = [v * scale for v in raw_ms]
    tail_ms, beyond = tail(ms, TAIL_PERCENTILE[workload])
    attempted = len(records)
    failed = sum(1 for r in records if r.problems)
    if workload == "cli":
        peak_kb = max(r.maxrss_kb for r in records)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": statistics.median(setups) * setup_scale,
        "job_ms_p50": statistics.median(ms),
        "job_ms_tail": tail_ms,
        "jobs_per_s": attempted / (sum(ms) / 1000.0),
        "ok_share": (attempted - failed) / attempted,
        "peak_rss_mb": peak_kb / 1024.0,
    }
    notes = {"job_ms_unscaled": raw_ms, "probes_s": probes, "scale": scale,
             "setup_probes_s": setup_probes, "setup_scale": setup_scale,
             "tail_percentile": TAIL_PERCENTILE[workload],
             "jobs_beyond_tail": beyond,
             "jobs": attempted, "failed_share": failed / attempted,
             "setup_samples_s": setups}
    return values, notes


def layer_metrics(spans, n_jobs):
    """Per-layer metrics from the spans of `n_jobs` traced jobs."""
    from spans import has_ancestor, self_times_ns
    selfs = self_times_ns(spans)
    calls, self_ns = Counter(), Counter()
    for s, own in zip(spans, selfs):
        calls[s.name] += 1
        self_ns[s.name] += own
    per_job = max(n_jobs, 1)
    out = {}
    # `<span>.calls` and `<span>.self_s` of every listed span; the serialize
    # and cli.command sums over several span names are set further down
    for name in units("per_layer"):
        span, _, kind = name.rpartition(".")
        if kind == "calls":
            out[name] = calls[span] / per_job
        elif kind == "self_s":
            out[name] = self_ns[span] / 1e9 / per_job

    fit_idx = [i for i, s in enumerate(spans) if s.name == "spectral.fit_center"]
    fits = [spans[i] for i in fit_idx if spans[i].info]
    iterations = [s.info["iterations"] for s in fits]
    by_job: dict = {}
    for s in fits:
        by_job.setdefault(s.job, set()).add(s.info["digest"])
    out["spectral.fit_center.iterations_sum"] = sum(iterations) / per_job
    out["spectral.fit_center.iterations_max"] = max(iterations, default=0)
    out["spectral.fit_center.failures"] = sum(
        1 for i in fit_idx if spans[i].error == "FitFailure")
    out["spectral.fit_center.distinct_ratio"] = (
        sum(len(d) for d in by_job.values()) / len(fits) if fits else 1.0)

    sweeps = [s.info for s in spans if s.name == "sweep.run_sweep" and s.info]
    out["sweep.rows"] = sum(i["rows"] for i in sweeps) / per_job
    out["sweep.rows_failed"] = sum(i["rows_failed"] for i in sweeps)

    solves = [s.info for s in spans if s.name == "design.min_area" and s.info]
    solve_fits = sum(1 for i in fit_idx if has_ancestor(spans, i, "design.min_area"))
    betas = sum(i["betas"] for i in solves)
    out["design.fits_per_solve"] = solve_fits / len(solves) if solves else 0.0
    out["design.fallback_share"] = (
        sum(i["fallbacks"] for i in solves) / betas if betas else 0.0)
    out["design.infeasible_share"] = (
        sum(1 for i in solves if not i["feasible"]) / len(solves) if solves else 0.0)

    emit = [(s, own) for s, own in zip(spans, selfs) if s.name.startswith("serialize.")]
    out["serialize.calls"] = len(emit) / per_job
    out["serialize.self_s"] = sum(own for _, own in emit) / 1e9 / per_job
    out["serialize.bytes"] = sum(s.info["bytes"] for s, _ in emit if s.info) / per_job
    out["cli.command.self_s"] = sum(
        own for s, own in zip(spans, selfs)
        if s.name.startswith("cli.command.")) / 1e9 / per_job
    return out


def environment(seed):
    from importlib import metadata

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "click": version("click"),
        "git_commit": git_commit(),
        "seed": seed,
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted((SRC / "wvsagnac").glob("*.py"))),
        "machine": platform.machine(),
    }


def git_commit():
    """HEAD of the checkout; None when the checkout is not a repository (git
    is kept from looking for one in the directories above it)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


@contextmanager
def prepared(workload, seed, use_reference=True):
    """Set up one workload: import the program, make the inputs, run the
    untimed warm-up job. Files go to a work directory removed on exit."""
    jobs = load_program()
    workdir = BENCH_DIR / ".work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(jobs, workload, seed, jobs.Context(ROOT, workdir),
                        use_reference)
        runner.warmup = runner.run_one(0)
        yield runner
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _child(workload, seed, mode, seconds=None):
    """Run this script in a fresh process; its last stdout line, parsed."""
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
            "--seed", str(seed), mode]
    if seconds is not None:
        argv += ["--seconds", repr(seconds)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=170, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def bench(workload, seed, seconds, trace):
    """One benchmark run; returns the result document (with the spans of a
    traced run under "spans")."""
    with prepared(workload, seed) as runner:
        if trace:
            part = traced(runner, seconds)
        else:
            part = untraced(runner, seconds)
    everything = [runner.warmup] + part["records"]
    return {
        "workload": workload, "seed": seed, "trace": int(trace),
        "seconds": seconds,
        "correct": part["failed"] == 0 and not runner.warmup.problems,
        "attempted": part["attempted"], "failed": part["failed"],
        "metrics": {k: {"value": part["metrics"][k], "unit": u}
                    for k, u in units("per_layer" if trace else "end_to_end").items()},
        "notes": part["notes"],
        "problems": [f"job {r.index}: {p}" for r in everything
                     for p in r.problems][:20],
        "env": environment(seed),
        **({"spans": part["spans"]} if trace else {}),
    }


def untraced(runner, seconds):
    setups, setup_probes, probes = [time.perf_counter() - T0], [], []
    for _ in range(SETUP_PROBES):
        setups.append(_child(runner.wl.name, runner.seed, "--setup-only")["setup_s"])
        setup_probes.append(probe_s())
    records = runner.loop(1, seconds, probes=probes)
    metrics, notes = e2e_metrics(records, setups, setup_probes, probes,
                                 runner.wl.name)
    return {"records": records, "metrics": metrics, "notes": notes,
            "attempted": len(records),
            "failed": sum(1 for r in records if r.problems)}


def traced(runner, seconds):
    """A fresh untraced process runs jobs for half the time; this process
    then runs the same jobs traced. The two processes share no state, so
    the traced jobs do the same work, and the time ratio is the overhead."""
    from spans import Tracer
    plain = _child(runner.wl.name, runner.seed, "--job-times", seconds / 2.0)
    n = len(plain["job_seconds"])
    tracer = Tracer()
    runner.ctx.trace_children = True
    with tracer:
        records = runner.loop(1, count=n, tracer=tracer)
    runner.ctx.trace_children = False
    metrics = layer_metrics(tracer.spans, n)
    jps_plain = n / sum(plain["job_seconds"])
    jps_traced = n / sum(r.seconds for r in records)
    imports = [runner.jobs.import_time_s(runner.ctx) for _ in range(IMPORT_PROBES)]
    metrics.update({
        "cli.import_s": statistics.median(imports),
        "cli.exit_code_mismatch": plain["exit_mismatch"] + sum(
            r.exit_mismatch for r in records),
        "trace.overhead_share": jps_plain / jps_traced - 1.0,
        "trace.jobs_per_s_untraced": jps_plain,
        "trace.jobs_per_s_traced": jps_traced,
    })
    return {"records": records, "metrics": metrics, "spans": tracer.spans,
            "notes": {"jobs": n, "spans": len(tracer.spans),
                      "untraced_problems": plain["problems"]},
            "attempted": 2 * n,
            "failed": plain["failed"] + sum(1 for r in records if r.problems)}


def write_reference():
    """Store the summaries of the pinned seed's first jobs."""
    jobs = load_program()
    doc = {"seed": jobs.PINNED_SEED, "tolerances": jobs.TOLERANCES, "jobs": {}}
    for workload, count in REFERENCE_JOBS.items():
        with prepared(workload, jobs.PINNED_SEED, use_reference=False) as runner:
            records = runner.loop(1, count=count)
        bad = [(r.index, r.problems) for r in records if r.problems]
        if bad:
            raise SystemExit(f"error: {workload} jobs fail their checks: {bad[:3]}")
        doc["jobs"][workload] = [r.summary for r in records]
    REFERENCE_PATH.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {REFERENCE_PATH}")


def report(result):
    notes = result["notes"]
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"trace {result['trace']}  attempted {result['attempted']}  "
          f"failed {result['failed']}  correct {result['correct']}")
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    if not result["trace"]:
        print(f"  {'failed_share':40s} {notes['failed_share']:.6g} share")
        print(f"  job_ms_tail is p{notes['tail_percentile']:.4g} of "
              f"{notes['jobs']} jobs ({notes['jobs_beyond_tail']} beyond)")
        print(f"  times scaled by {notes['scale']:.4g} (set-up "
              f"{notes['setup_scale']:.4g}) to a speed probe of "
              f"{PROBE_REF_S * 1000:.4g} ms")
    for line in result["problems"]:
        print(f"  problem: {line}")
    env = result["env"]
    print(f"  env: nproc {env['nproc']}, python {env['python']}, numpy "
          f"{env['numpy']}, click {env['click']}, commit {env['git_commit']}, "
          f"src lines {env['src_lines']}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("sweep", "design", "cli"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec()["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="refresh bench/reference.json from the pinned seed")
    internal = ap.add_mutually_exclusive_group()
    internal.add_argument("--setup-only", action="store_true",
                          help="set up, print the set-up time, exit")
    internal.add_argument("--job-times", action="store_true",
                          help="run untraced, print each job's time, exit")
    args = ap.parse_args(argv)
    os.environ.update(ONE_THREAD)  # before numpy is imported, and inherited
    if args.write_reference:
        write_reference()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if args.setup_only:
        with prepared(args.workload, args.seed) as runner:
            setup_s = time.perf_counter() - T0
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.job_times:
        with prepared(args.workload, args.seed) as runner:
            records = runner.loop(1, args.seconds)
        print(json.dumps({
            "job_seconds": [r.seconds for r in records],
            "failed": sum(1 for r in records if r.problems),
            "exit_mismatch": sum(r.exit_mismatch for r in records),
            "problems": [f"job {r.index}: {p}" for r in records
                         for p in r.problems][:20]}))
        return 0
    result = bench(args.workload, args.seed, args.seconds, args.trace)
    RESULTS_DIR.mkdir(exist_ok=True)
    stem = (RESULTS_DIR / f"{args.workload}-seed{args.seed}-"
            f"trace{args.trace}-{time.time_ns()}")
    spans = result.pop("spans", None)
    if spans is not None:
        with gzip.open(f"{stem}.spans.json.gz", "wt") as fh:
            json.dump([s.to_list() for s in spans], fh)
    Path(f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    report(result)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed",
                                             "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
