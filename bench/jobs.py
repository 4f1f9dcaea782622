"""The three benchmark workloads: seeded inputs, one job each, checks.

Job `index` of a workload is drawn from its own random stream keyed by
(seed, workload, index), so a seed fixes every input and jobs never repeat
within a run. A job's kind (model, form, size, subcommand) is fixed by the
index alone, so every stretch of a run has the same mix whatever the seed.
Index 0 is the untimed warm-up job.

Each workload offers:
  make(seed, index) -> job        plain JSON data, the generated input
  prepare(job, ctx) -> call       untimed: build arguments, write files
  run(call, ctx) -> output        the timed job
  check(job, output, ctx) -> problems, summary
`summary` holds the numbers compared with the stored pinned-seed reference;
each key starts with its tolerance kind (see TOLERANCES).
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import signal
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import wvsagnac as wv
from wvsagnac.design import BISECTION_REL_TOL

PINNED_SEED = 1
WORKLOAD_IDS = {"sweep": 1, "design": 2, "cli": 3}
LAMBDA0_NM = 1550.0
DLAMBDA_NM = 10.0
ALPHA = 0.1

# Tolerance kind -> (absolute, relative) bound for reference comparisons.
# Fitted shifts and centers may move by a tested tolerance (ROADMAP item 3),
# design areas by the solver's own bisection tolerance.
TOLERANCES = {
    "nm": (1e-9, 0.0),
    "area": (0.0, BISECTION_REL_TOL),
    "rel": (0.0, 1e-9),
    "exact": (0.0, 0.0),
}
CHILD_TIMEOUT_S = 120


def _rng(seed: int, workload: str, index: int) -> np.random.Generator:
    return np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF,
                                  WORKLOAD_IDS[workload], index])


def _probe():
    return wv.SpectrumModel(i0=1.0, lambda0=LAMBDA0_NM, width_dlambda=DLAMBDA_NM)


def _close(a, b, kind) -> bool:
    if kind == "exact":
        return a == b
    if a is None or b is None:
        return a is b
    abs_tol, rel_tol = TOLERANCES[kind]
    return abs(a - b) <= abs_tol + rel_tol * abs(b)


def compare_summary(summary: dict, reference: dict) -> list[str]:
    """Problems found comparing one job's summary with its reference."""
    problems = []
    if set(summary) != set(reference):
        return [f"summary keys {sorted(summary)} != reference {sorted(reference)}"]
    for key, ref in reference.items():
        kind = key.split(":", 1)[0]
        if not _close(summary[key], ref, kind):
            problems.append(f"{key}: {summary[key]!r} vs reference {ref!r}")
    return problems


def _im_aw_problems(alpha, beta, rows) -> list[str]:
    """Each row's Im(A_w) must match the inner-product oracle."""
    problems = []
    for omega, phi, im_aw in rows:
        direct = wv.weak_value_direct(wv.SelectionConfig(alpha, beta, phi)).imag
        if not abs(im_aw - direct) <= 1e-9 * max(1.0, abs(direct)):
            problems.append(f"row omega={omega!r}: im_aw {im_aw!r} vs "
                            f"weak_value_direct {direct!r}")
    return problems


def _sampled(n: int) -> list[int]:
    return sorted(set(range(0, n, 10)) | {n - 1})


GOLDEN = 0.6180339887498949
SQRT2_FRAC = 0.41421356237309515


def _unit(index: int, step: float = GOLDEN) -> float:
    """A number in [0, 1) fixed by the index. Successive indices fill the
    interval evenly (an additive irrational sequence), so every seed and
    every run prefix sees the same spread of job sizes, with no gaps a
    median could fall into."""
    return (index * step) % 1.0


def _spread(index: int, lo: int, hi: int) -> int:
    """An integer in [lo, hi] fixed by the index, see _unit."""
    return lo + int((hi - lo + 1) * _unit(index))


# ── sweep ─────────────────────────────────────────────────────────────────────
# Kinds cycle over 8 jobs: 4 models x 2 forms. The rate-grid size is fixed by
# the index; the seed moves area, beta and the rate range.


def make_sweep(seed: int, index: int) -> dict:
    rng = _rng(seed, "sweep", index)
    model = wv.benchmark_models(LAMBDA0_NM, DLAMBDA_NM)[index % 4]
    form = (wv.FORM_EXACT, wv.FORM_PAPER)[(index // 4) % 2]
    steps = _spread(index, 51, 201)
    half = 0.1 * math.exp(rng.uniform(-0.3, 0.3))
    return {"model": model.name,
            "area_s": model.area_s * math.exp(rng.uniform(-0.2, 0.2)),
            "alpha": model.alpha,
            "beta": model.beta + rng.uniform(-0.02, 0.02),
            "form": form,
            "omega_range": [-half, half, steps]}


def prepare_sweep(job: dict, ctx) -> tuple:
    lo, hi, steps = job["omega_range"]
    model = wv.ModelSpec(name=job["model"], area_s=job["area_s"],
                         alpha=job["alpha"], beta=job["beta"], probe=_probe(),
                         omega_range=(lo, hi, steps))
    return model, job["form"]


def run_sweep(call, ctx):
    model, form = call
    return wv.run_sweep(model, form=form)


def check_sweep(job: dict, result, ctx) -> tuple[list[str], dict]:
    rows = result.rows
    steps = job["omega_range"][2]
    problems = []
    if len(rows) != steps:
        problems.append(f"{len(rows)} rows, expected {steps}")
    failed = [r for r in rows if r.failed]
    if failed:
        problems.append(f"{len(failed)} failed rows, first: {failed[0].note}")
    problems += _im_aw_problems(job["alpha"], job["beta"],
                                [(r.omega, r.phi, r.im_aw) for r in rows
                                 if not r.failed])
    if not math.isfinite(result.k_fitted):
        problems.append(f"k_fitted is {result.k_fitted}")
    summary = {f"nm:fitted:{i}": rows[i].dlambda_fitted
               for i in _sampled(len(rows))}
    summary["rel:k_analytic"] = result.k_analytic
    return problems, summary


# ── design ────────────────────────────────────────────────────────────────────
# Every fourth job has a wide area bracket, which sends most betas to the
# 256-point fallback scan; the others keep every beta in the verified-monotone
# bisection. The beta-grid size and the resolution floor are fixed by the
# index and spread evenly, so job costs form a continuum and about a third
# of the narrow jobs are infeasible, a valid answer. The seed draws the
# betas and moves the floors and the rate target.
MAP_BETAS = 4          # verification map: betas nearest the solution
MAP_CELLS_BELOW = 7    # ... times areas this many cells below it, and itself
MAP_GRID_CELLS = 99    # cell = bracket / 99, the brute-force grid of criterion 8


def make_design(seed: int, index: int) -> dict:
    rng = _rng(seed, "design", index)
    if index % 4 == 2:
        kind, n, hi = "wide", _spread(index // 4, 3, 5), rng.uniform(40.0, 80.0)
        res = 0.02 + 0.01 * _unit(index // 4, SQRT2_FRAC)
    else:
        kind, n, hi = "narrow", _spread(index, 3, 20), rng.uniform(16.0, 20.0)
        res = 0.004 + 0.026 * _unit(index, SQRT2_FRAC)
    betas = sorted(float(b) for b in rng.uniform(-0.55, -0.15, n))
    return {"kind": kind, "betas": betas,
            "area_bracket": [rng.uniform(1.5, 2.5), hi],
            "i_min": rng.uniform(0.002, 0.008),
            "delta_lambda_res": res * math.exp(rng.uniform(-0.1, 0.1)),
            "omega_target": 0.05 * math.exp(rng.uniform(-0.15, 0.15))}


def _constraints(job: dict):
    return wv.DesignConstraints(i0=1.0, i_min=job["i_min"],
                                delta_lambda_res=job["delta_lambda_res"],
                                omega_target=job["omega_target"], alpha=ALPHA,
                                probe=_probe())


def prepare_design(job: dict, ctx) -> tuple:
    return _constraints(job), list(job["betas"]), tuple(job["area_bracket"])


def _map_cells(betas, bracket, solution) -> list[tuple[float, float]]:
    """A small feasible() map around the answer, as criterion 8 checks."""
    lo, hi = bracket
    cell = (hi - lo) / MAP_GRID_CELLS
    if solution.feasible:
        near = sorted(betas, key=lambda b: (abs(b - solution.beta), b))
        anchor = solution.area_s_min
    else:
        near = [betas[round(k * (len(betas) - 1) / (MAP_BETAS - 1))]
                for k in range(MAP_BETAS)]
        anchor = hi
    areas = [anchor - k * cell for k in range(MAP_CELLS_BELOW, -1, -1)
             if anchor - k * cell >= lo]
    return [(b, s) for b in sorted(set(near[:MAP_BETAS])) for s in areas]


def run_design(call, ctx):
    constraints, betas, bracket = call
    solution = wv.min_area(constraints, betas, bracket)
    reports = {cell: wv.feasible(cell[0], cell[1], constraints)
               for cell in _map_cells(betas, bracket, solution)}
    return solution, reports


def check_design(job: dict, output, ctx) -> tuple[list[str], dict]:
    solution, reports = output
    lo, hi = job["area_bracket"]
    cell = (hi - lo) / MAP_GRID_CELLS
    problems = []
    if solution.feasible:
        if solution.beta not in job["betas"]:
            problems.append(f"beta {solution.beta} is not in the grid")
        if not lo <= solution.area_s_min <= hi:
            problems.append(f"area {solution.area_s_min} outside the bracket")
        own = reports.get((solution.beta, solution.area_s_min))
        if own is None or not own.feasible:
            problems.append("feasible() rejects the solution's own (beta, area)")
        elif not (abs(solution.k_achieved * job["omega_target"] - own.shift_nm)
                  <= 1e-12 * own.shift_nm
                  and solution.peak_intensity == own.peak_intensity):
            problems.append("solution's k or peak differs from feasible()")
        limit = solution.area_s_min - cell
    else:
        if not (math.isnan(solution.area_s_min) and math.isnan(solution.beta)):
            problems.append("infeasible solution carries an area or beta")
        limit = math.inf
    undercut = [(b, s) for (b, s), r in reports.items() if r.feasible and s < limit]
    if undercut:
        problems.append(f"map cell {undercut[0]} is feasible below the answer "
                        f"by more than one cell ({cell:.4g} m^2)")
    summary = {"exact:feasible": solution.feasible,
               "exact:beta": None if math.isnan(solution.beta) else solution.beta,
               "area:area_s_min": (None if math.isnan(solution.area_s_min)
                                   else solution.area_s_min),
               "exact:fallbacks": sum("falling back" in w
                                      for w in solution.warnings)}
    return problems, summary


# ── cli ───────────────────────────────────────────────────────────────────────
# Kinds cycle over 12 jobs covering the README commands, config-file input
# and bad input. One child process per job, one at a time.
CLI_KINDS = ("simulate_csv", "sweep_csv", "design_json", "geometry_json",
             "classical_csv", "missing_param", "simulate_json",
             "sweep_config_json", "classical_config_json", "domain_error",
             "design_infeasible", "bad_config_value")

SIMULATE_HEADER = ["lambda_nm", "intensity"]
SWEEP_HEADER = ["omega", "phi", "im_aw", "dlambda_analytic_nm",
                "dlambda_fitted_nm", "postselect_prob"]
SWEEP_KEYS = {"form", "k_analytic", "k_fitted", "k_window", "warnings", "rows"}
SWEEP_ROW_KEYS = {"omega", "phi", "im_aw", "dlambda_analytic_nm",
                  "dlambda_fitted_nm", "postselect_prob", "failed", "note"}
DESIGN_KEYS = {"feasible", "beta", "area_s_min_m2", "k_achieved_nm_per_rad_s",
               "peak_intensity", "warnings"}
GEOMETRY_KEYS = ["theta_deg", "n_turns", "area_equiv_m2", "ratio_vs_square"]
CLASSICAL_HEADER = ["omega", "fringe_shift", "intensity"]


def _r(x: float) -> str:
    return repr(float(x))


def make_cli(seed: int, index: int) -> dict:
    rng = _rng(seed, "cli", index)
    kind = CLI_KINDS[index % len(CLI_KINDS)]
    probe = {"lambda0": LAMBDA0_NM, "dlambda": DLAMBDA_NM}
    params: dict = {}
    config = None
    exit_code = 0
    if kind in ("simulate_csv", "simulate_json"):
        params = {"alpha": ALPHA, "beta": rng.uniform(-0.5, -0.2),
                  "area": rng.uniform(4.0, 25.0), "omega": rng.uniform(-0.1, 0.1),
                  **probe}
        argv = ["simulate"] + [a for k, v in params.items()
                               for a in (f"--{k}", _r(v))]
        fmt = "csv" if kind == "simulate_csv" else "json"
        argv += ["--format", fmt]
    elif kind in ("sweep_csv", "sweep_config_json"):
        half = rng.uniform(0.05, 0.15)
        params = {"omega-min": -half, "omega-max": half,
                  "steps": int(rng.integers(11, 42)), "alpha": ALPHA,
                  "beta": rng.uniform(-0.5, -0.2), "area": rng.uniform(4.0, 25.0),
                  **probe}
        fmt = "csv" if kind == "sweep_csv" else "json"
        if fmt == "csv":
            argv = ["sweep"] + [a for k, v in params.items()
                                for a in (f"--{k}", str(v))]
        else:
            params["window"] = [-0.5 * half, 0.5 * half]
            config = "# sweep benchmark\n" + "".join(
                f"{k} = {v}\n" for k, v in params.items() if k != "window")
            argv = ["sweep", "--config", "{config}", "--format", "json",
                    "--window-lo", _r(params["window"][0]),
                    "--window-hi", _r(params["window"][1])]
    elif kind in ("design_json", "design_infeasible"):
        n = 3 if kind == "design_json" else 1
        betas = sorted(float(b) for b in rng.uniform(-0.5, -0.2, n))
        params = {"alpha": ALPHA, **probe, "i0": 1.0,
                  "i-min": rng.uniform(0.002, 0.008),
                  "dlambda-res": rng.uniform(0.002, 0.008),
                  "omega-target": rng.uniform(0.04, 0.06),
                  "beta-grid": ",".join(_r(b) for b in betas),
                  "area-lo": 1.0, "area-hi": 20.0}
        if kind == "design_infeasible":
            params.update({"dlambda-res": rng.uniform(0.5, 1.5),
                           "area-hi": rng.uniform(2.0, 4.0)})
            exit_code = 5
        argv = ["design"] + [f"--{k}={v}" for k, v in params.items()]
        fmt = "json"
    elif kind == "geometry_json":
        params = {"theta-deg": int(rng.integers(1, 90)),
                  "rs": rng.uniform(0.5, 2.0)}
        argv = ["geometry", "--theta-deg", str(params["theta-deg"]),
                "--rs", _r(params["rs"])]
        fmt = "json"
    elif kind in ("classical_csv", "classical_config_json"):
        params = {"area": rng.uniform(1.0, 30.0), "lambda0": LAMBDA0_NM,
                  "omega": rng.uniform(-1.0, 1.0),
                  "amplitude": rng.uniform(0.5, 2.0)}
        fmt = "csv" if kind == "classical_csv" else "json"
        if fmt == "csv":
            argv = ["classical"] + [a for k, v in params.items()
                                    for a in (f"--{k}", _r(v))]
        else:
            config = "".join(f"{k} = {_r(v)}\n" for k, v in params.items())
            argv = ["classical", "--config", "{config}", "--format", "json"]
    elif kind == "missing_param":
        # lambda0 left out: a usage error, never a silent default
        argv = ["simulate", "--alpha", _r(ALPHA), "--beta",
                _r(rng.uniform(-0.5, -0.2)), "--area", _r(rng.uniform(4, 25)),
                "--omega", "0", "--dlambda", _r(DLAMBDA_NM)]
        fmt, exit_code = "csv", 2
    elif kind == "domain_error":
        argv = ["geometry", "--theta-deg", str(int(rng.integers(90, 180))),
                "--rs", _r(rng.uniform(0.5, 2.0))]
        fmt, exit_code = "json", 3
    else:  # bad_config_value
        config = f"theta-deg = {int(rng.integers(1, 90))}\nrs = not-a-number\n"
        argv = ["geometry", "--config", "{config}"]
        fmt, exit_code = "json", 2
    if index % 2 and exit_code == 0:  # every other kind writes through --out
        argv += ["--out", "{out}"]
    return {"kind": kind, "argv": argv, "config": config, "format": fmt,
            "exit_code": exit_code, "params": params}


@dataclass
class CliCall:
    argv: list
    out_path: str | None      # the artifact, when written through --out
    stdout_path: str
    stderr_path: str
    spans_path: str | None    # where a traced child writes its spans


@dataclass
class CliOutput:
    exit_code: int
    artifact: str
    stderr: str
    maxrss_kb: int
    spans_path: str | None


def prepare_cli(job: dict, ctx) -> CliCall:
    stem = ctx.workdir / f"job{ctx.next_id()}"
    paths = {"config": f"{stem}.cfg", "out": f"{stem}.{job['format']}"}
    if job["config"] is not None:
        Path(paths["config"]).write_text(job["config"])
    args = [a.format(**paths) for a in job["argv"]]
    spans_path = f"{stem}.spans.json" if ctx.trace_children else None
    if spans_path:
        argv = [sys.executable, str(ctx.bench_dir / "cli_child.py"), spans_path]
    else:
        argv = [sys.executable, "-m", "wvsagnac.cli"]
    out_path = paths["out"] if "--out" in job["argv"] else None
    return CliCall(argv + args, out_path, f"{stem}.stdout", f"{stem}.stderr",
                   spans_path)


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout()


def run_cli(call: CliCall, ctx) -> CliOutput:
    """One child process; its exit status and peak RSS come from wait4."""
    with open(call.stdout_path, "wb") as out, open(call.stderr_path, "wb") as err:
        proc = subprocess.Popen(call.argv, stdout=out, stderr=err, env=ctx.env,
                                cwd=ctx.root)
        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except _Timeout:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"child exceeded {CHILD_TIMEOUT_S} s: {call.argv}")
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        proc.returncode = os.waitstatus_to_exitcode(status)
    artifact_path = call.out_path or call.stdout_path
    return CliOutput(proc.returncode, Path(artifact_path).read_text(),
                     Path(call.stderr_path).read_text(), usage.ru_maxrss,
                     call.spans_path)


def _csv_rows(text: str) -> tuple[list[str], list[str], list[list[float]]]:
    lines = text.splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    body = list(csv.reader(io.StringIO("\n".join(
        ln for ln in lines if ln and not ln.startswith("#")))))
    return comments, body[0], [[float(t) for t in row] for row in body[1:]]


def _check_simulate(job, art, fmt):
    p = job["params"]
    if fmt == "csv":
        _, header, rows = _csv_rows(art)
        if header != SIMULATE_HEADER:
            return [f"header {header}"], {}
        lam = np.array([r[0] for r in rows])
        inten = np.array([r[1] for r in rows])
    else:
        doc = json.loads(art)
        if set(doc) != {"form", "lambda_nm", "intensity"}:
            return [f"keys {sorted(doc)}"], {}
        lam, inten = np.array(doc["lambda_nm"]), np.array(doc["intensity"])
    probe = wv.SpectrumModel(1.0, p["lambda0"], p["dlambda"])
    cfg = wv.InterferometerConfig.from_nm(area_s=p["area"], lambda0_nm=p["lambda0"])
    wvr = wv.weak_value(wv.SelectionConfig(p["alpha"], p["beta"],
                                           wv.sagnac_phase(cfg, p["omega"])))
    spec = wv.output_spectrum(probe, wvr, p["lambda0"], wv.default_grid(probe))
    if lam.shape != spec.wavelengths.shape:
        return [f"{lam.size} grid points, expected {spec.wavelengths.size}"], {}
    problems = []
    if not np.allclose(lam, spec.wavelengths, rtol=1e-15, atol=0):
        problems.append("wavelength grid differs from default_grid")
    if not np.allclose(inten, spec.intensities, rtol=1e-12, atol=1e-300):
        problems.append("intensities differ from output_spectrum")
    centroid = float(np.sum(lam * inten) / np.sum(inten))
    return problems, {"nm:centroid": centroid}


def _check_sweep_artifact(job, art, fmt):
    p = job["params"]
    if fmt == "csv":
        comments, header, rows = _csv_rows(art)
        if header != SWEEP_HEADER:
            return [f"header {header}"], {}
        if not any(c.startswith("# k_fitted_nm_per_rad_s=") for c in comments):
            return ["no k_fitted comment"], {}
        table = [(r[0], r[1], r[2], r[4]) for r in rows]
    else:
        doc = json.loads(art)
        if set(doc) != SWEEP_KEYS:
            return [f"keys {sorted(doc)}"], {}
        if any(set(r) != SWEEP_ROW_KEYS for r in doc["rows"]):
            return ["row keys differ from the documented set"], {}
        if doc["k_window"] != p["window"]:
            return [f"k_window {doc['k_window']} != {p['window']}"], {}
        table = [(r["omega"], r["phi"], r["im_aw"], r["dlambda_fitted_nm"])
                 for r in doc["rows"]]
    if len(table) != p["steps"]:
        return [f"{len(table)} rows, expected {p['steps']}"], {}
    problems = _im_aw_problems(p["alpha"], p["beta"],
                               [(o, phi, im) for o, phi, im, _ in table])
    if not all(math.isfinite(t[3]) for t in table):
        problems.append("a fitted shift is not finite")
    return problems, {f"nm:fitted:{i}": table[i][3] for i in _sampled(len(table))}


def _check_design_artifact(job, art, fmt):
    doc = json.loads(art)
    if set(doc) != DESIGN_KEYS:
        return [f"keys {sorted(doc)}"], {}
    want = job["exit_code"] == 0
    if doc["feasible"] is not want:
        return [f"feasible is {doc['feasible']}, expected {want}"], {}
    if not want:
        if doc["area_s_min_m2"] is not None:
            return ["infeasible report carries an area"], {}
        return [], {"exact:feasible": False}
    p = job["params"]
    cons = wv.DesignConstraints(
        i0=p["i0"], i_min=p["i-min"], delta_lambda_res=p["dlambda-res"],
        omega_target=p["omega-target"], alpha=p["alpha"],
        probe=wv.SpectrumModel(p["i0"], p["lambda0"], p["dlambda"]))
    problems = []
    if not wv.feasible(doc["beta"], doc["area_s_min_m2"], cons).feasible:
        problems.append("feasible() rejects the reported (beta, area)")
    return problems, {"exact:feasible": True, "exact:beta": doc["beta"],
                      "area:area_s_min": doc["area_s_min_m2"]}


def _check_geometry(job, art, fmt):
    p = job["params"]
    doc = json.loads(art)
    if list(doc) != GEOMETRY_KEYS:
        return [f"keys {list(doc)}"], {}
    d = wv.multipass_design(p["theta-deg"], p["rs"])
    want = [d.theta_deg, d.n_turns, d.area_equiv,
            d.area_equiv / (4.0 * d.radius_rs ** 2)]
    if [doc[k] for k in GEOMETRY_KEYS] != want:
        return [f"geometry {doc} differs from multipass_design"], {}
    return [], {"exact:n_turns": d.n_turns, "rel:area_equiv": d.area_equiv}


def _check_classical(job, art, fmt):
    p = job["params"]
    if fmt == "csv":
        _, header, rows = _csv_rows(art)
        if header != CLASSICAL_HEADER or len(rows) != 1:
            return [f"header {header}, {len(rows)} rows"], {}
        got = rows[0]
    else:
        doc = json.loads(art)
        if list(doc) != CLASSICAL_HEADER:
            return [f"keys {list(doc)}"], {}
        got = [doc[k] for k in CLASSICAL_HEADER]
    cfg = wv.InterferometerConfig.from_nm(area_s=p["area"], lambda0_nm=p["lambda0"])
    want = [p["omega"], wv.fringe_shift(cfg, p["omega"]),
            wv.classical_intensity(cfg, p["amplitude"], p["omega"])]
    if got != want:
        return [f"classical {got} differs from the library {want}"], {}
    return [], {"rel:fringe_shift": want[1], "rel:intensity": want[2]}


ARTIFACT_CHECKS = {"simulate": _check_simulate, "sweep": _check_sweep_artifact,
                   "design": _check_design_artifact,
                   "geometry": _check_geometry, "classical": _check_classical}


def check_cli(job: dict, out: CliOutput, ctx) -> tuple[list[str], dict]:
    summary = {"exact:exit_code": out.exit_code}
    if out.exit_code != job["exit_code"]:
        return [f"exit code {out.exit_code}, expected {job['exit_code']}: "
                f"{out.stderr.strip()[-200:]}"], summary
    if job["exit_code"] in (2, 3):
        if "rror" not in out.stderr:
            return ["bad input exited without an error message"], summary
        return [], summary
    try:
        problems, values = ARTIFACT_CHECKS[job["argv"][0]](job, out.artifact,
                                                          job["format"])
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"artifact does not parse: {type(exc).__name__}: {exc}"], summary
    return problems, {**summary, **values}


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable
    prepare: Callable
    run: Callable
    check: Callable


WORKLOADS = {
    "sweep": Workload("sweep", make_sweep, prepare_sweep, run_sweep, check_sweep),
    "design": Workload("design", make_design, prepare_design, run_design,
                       check_design),
    "cli": Workload("cli", make_cli, prepare_cli, run_cli, check_cli),
}


class Context:
    """Where a run may write, and how children are started."""

    def __init__(self, root: Path, workdir: Path, trace_children: bool = False):
        self.root = root
        self.bench_dir = Path(__file__).resolve().parent
        self.workdir = workdir
        self.trace_children = trace_children
        self.env = {**os.environ, "PYTHONPATH": str(root / "src")}
        self._ids = 0

    def next_id(self) -> int:
        self._ids += 1
        return self._ids


def import_time_s(ctx: Context) -> float:
    """Seconds a fresh child spends importing wvsagnac.cli."""
    code = ("import time; t = time.perf_counter(); import wvsagnac.cli; "
            "print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code], env=ctx.env, cwd=ctx.root,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                          check=True)
    return float(done.stdout.strip())

