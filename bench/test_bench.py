"""Tests of the benchmark harness itself: seeded inputs, span arithmetic,
wrapper restoration, the metric names it reports and its fault counting."""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import run  # noqa: E402

jobs = run.load_program()
import wvsagnac  # noqa: E402
import wvsagnac.cli  # noqa: E402,F401  (so the click callbacks get wrapped too)
from spans import Span, Tracer, covered_ns, self_times_ns  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", sorted(jobs.WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    make = jobs.WORKLOADS[workload].make
    first = [json.dumps(make(5, i)) for i in range(40)]
    assert first == [json.dumps(make(5, i)) for i in range(40)]
    other = [json.dumps(make(6, i)) for i in range(40)]
    assert all(a != b for a, b in zip(first, other))


def test_self_time_on_a_synthetic_span_tree():
    spans = [Span("root", 0, 100),
             Span("a", 10, 40, parent=0),
             Span("b", 30, 60, parent=0),       # overlaps a
             Span("c", 15, 20, parent=1, hidden_ns=2),
             Span("d", 90, 130, parent=0)]      # runs past its parent's end
    # root: 100 minus the union [10, 60] + [90, 100]
    assert self_times_ns(spans) == [40, 25, 30, 3, 40]
    assert covered_ns([(5, 8), (1, 3), (2, 6)], 0, 10) == 7
    assert covered_ns([], 0, 10) == 0


def _bindings():
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "wvsagnac" or name.startswith("wvsagnac."):
            out.update({(name, k): v for k, v in vars(mod).items()})
    for cname, cmd in wvsagnac.cli.main.commands.items():
        out[("cli", cname)] = cmd.callback
    return out


def test_wrappers_restore_the_original_functions():
    before = _bindings()
    original_fit = wvsagnac.spectral.fit_center
    with Tracer():
        # every binding of a traced function is the same wrapper
        assert wvsagnac.sweep.fit_center is not original_fit
        assert wvsagnac.sweep.fit_center is wvsagnac.design.fit_center
        assert wvsagnac.fit_center is wvsagnac.spectral.fit_center
        assert wvsagnac.cli.run_sweep is not before[("wvsagnac.sweep", "run_sweep")]
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


def test_spans_link_to_their_callers():
    tracer = Tracer()
    model = jobs.prepare_sweep(jobs.make_sweep(2, 1), None)[0]
    model = dataclasses.replace(model, omega_range=(-0.1, 0.1, 5))
    with tracer:
        tracer.recording = True
        wvsagnac.run_sweep(model)
        tracer.recording = False
    names = [s.name for s in tracer.spans]
    assert names.count("sweep.run_sweep") == 1
    assert names.count("spectral.fit_center") == 6  # reference + 5 rows
    fits = [s for s in tracer.spans if s.name == "spectral.fit_center"]
    assert all(tracer.spans[s.parent].name == "sweep.run_sweep" for s in fits)
    assert all(s.info["iterations"] > 0 for s in fits)


@pytest.mark.parametrize("workload", sorted(jobs.WORKLOADS))
def test_traced_run_reports_every_per_layer_metric(workload, monkeypatch):
    monkeypatch.setattr(run, "IMPORT_PROBES", 1)
    result = run.bench(workload, seed=2, seconds=0.01, trace=1)
    assert result["correct"], result["problems"]
    names = [m["name"] for m in SPEC["per_layer"]]
    assert list(result["metrics"]) == names
    for name, m in result["metrics"].items():
        assert math.isfinite(m["value"]), name
        assert m["unit"] == next(x["unit"] for x in SPEC["per_layer"]
                                 if x["name"] == name)


def test_untraced_run_reports_every_end_to_end_metric(monkeypatch):
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    result = run.bench("sweep", seed=2, seconds=0.01, trace=0)
    assert result["correct"], result["problems"]
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def _first_jobs(workload, seed, count):
    with run.prepared(workload, seed) as runner:
        return runner.loop(1, count=count)


def test_planted_wrong_fit_is_caught_by_the_reference(monkeypatch):
    original = wvsagnac.sweep.fit_center
    calls = []

    def planted(spec, *args, **kwargs):
        fit = original(spec, *args, **kwargs)
        calls.append(1)
        if len(calls) == 2:  # job 1, row 0: a sampled row of the reference
            return dataclasses.replace(fit, center=fit.center + 1e-6)
        return fit

    with run.prepared("sweep", jobs.PINNED_SEED) as runner:
        monkeypatch.setattr(wvsagnac.sweep, "fit_center", planted)
        records = runner.loop(1, count=2)
    assert [len(r.problems) for r in records] == [1, 0]
    assert "nm:fitted:0" in records[0].problems[0]


def test_planted_wrong_weak_value_is_caught_for_any_seed(monkeypatch):
    original = wvsagnac.sweep.weak_value
    calls = []

    def planted(sel):
        wv = original(sel)
        calls.append(1)
        if len(calls) == 3:
            return dataclasses.replace(wv, a_w=wv.a_w + 1e-6j)
        return wv

    with run.prepared("sweep", 2) as runner:
        monkeypatch.setattr(wvsagnac.sweep, "weak_value", planted)
        records = runner.loop(1, count=2)
    assert [len(r.problems) for r in records] == [1, 0]
    assert "weak_value_direct" in records[0].problems[0]


def test_wrong_exit_code_is_counted():
    with run.prepared("cli", 2) as runner:
        index = jobs.CLI_KINDS.index("domain_error")
        runner.job(index)["exit_code"] = 0
        record = runner.run_one(index)
    assert record.exit_mismatch and "exit code 3, expected 0" in record.problems[0]


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def _runs(values, failed):
    return {("sweep", 0): [
        {"seed": i, "attempted": 185, "failed": failed, "correct": not failed,
         "metrics": {"job_ms_p50": {"value": v, "unit": "ms"}}}
        for i, v in enumerate(values)]}


def test_compare_verdicts():
    parent = [100.0 + d for d in (-2, -1, 0, 1, 2, -1.5, 0.5, 1.5, -0.5, 0)]
    faster = [v * 0.8 for v in parent]
    slower = [v * 1.3 for v in parent]
    noisy = [v * (1 + 0.5 * (-1) ** i) for i, v in enumerate(parent)]
    for change, want in ((faster, "better"), (slower, "worse"),
                         (parent, "unchanged"), (noisy, "unresolved")):
        got, _ = compare.verdict(parent, change, list(zip(parent, change)),
                                 lower_better=True, bound=0.1)
        assert got == want
    # three pairs are too few to claim a gain, however far apart the sides
    got, _ = compare.verdict(parent[:3], faster[:3],
                             list(zip(parent[:3], faster[:3])),
                             lower_better=True, bound=0.1)
    assert got == "unchanged"
    # one failed job in each change run: the faster runs claim nothing
    metrics = {"job_ms_p50": {"better": "lower", "bound": 0.1}}
    for failed, want in ((0, "better"), (1, "unchanged")):
        rows = compare.compare(_runs(parent, 0), _runs(faster, failed), metrics)
        assert rows[0][-1] == want
