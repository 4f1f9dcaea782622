"""Package surface and import cost: the lazily served names of `wvsagnac`
and `wvsagnac.cli`, and which commands load numpy."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import wvsagnac
import wvsagnac.cli
from wvsagnac import classical, design, errors, geometry, spectral, sweep, weak

SRC = Path(wvsagnac.__file__).resolve().parent.parent

# Where each public name is defined.
DEFINED_IN = {
    classical: ("NM", "SPEED_OF_LIGHT", "InterferometerConfig", "fringe_shift",
                "classical_intensity"),
    errors: ("NearOrthogonalSelection", "FitFailure"),
    geometry: ("MultipassDesign", "multipass_design"),
    weak: ("OVERLAP_FLOOR", "SelectionConfig", "WeakValueResult", "sagnac_phase",
           "amplitudes_mn", "weak_value", "weak_value_direct",
           "analytic_wavelength_shift"),
    spectral: ("FORM_EXACT", "FORM_PAPER", "SpectrumModel", "SampledSpectrum",
               "FitResult", "intensity_envelope", "modulation_factor",
               "output_spectrum", "fit_center", "default_grid"),
    sweep: ("ModelSpec", "SweepRow", "SweepResult", "run_sweep", "sensitivity",
            "benchmark_models"),
    design: ("DesignConstraints", "FeasibilityReport", "DesignSolution",
             "feasible", "min_area"),
}
# The names wvsagnac.cli bound at module level when it imported every module.
CLI_NAMES = {
    classical: ("InterferometerConfig", "classical_intensity", "fringe_shift"),
    design: ("DesignConstraints", "min_area"),
    errors: ("FitFailure",),
    geometry: ("multipass_design",),
    wvsagnac.serialize: ("ClassicalReading", "result_to_csv", "result_to_json"),
    spectral: ("SpectrumModel", "default_grid", "output_spectrum"),
    sweep: ("ModelSpec", "run_sweep"),
    weak: ("SelectionConfig", "sagnac_phase", "weak_value"),
}


def test_every_public_name_is_its_defining_modules_object():
    assert sorted(n for names in DEFINED_IN.values() for n in names) == sorted(
        wvsagnac.__all__)
    for module, names in DEFINED_IN.items():
        for name in names:
            assert getattr(wvsagnac, name) is getattr(module, name), name


def test_every_public_function_and_class_of_a_library_module_is_exported():
    for module in DEFINED_IN:
        defined = {name for name, obj in vars(module).items()
                   if not name.startswith("_") and callable(obj)
                   and getattr(obj, "__module__", None) == module.__name__}
        assert sorted(defined - set(wvsagnac.__all__)) == [], module.__name__


def test_star_import_and_dir_cover_all():
    namespace = {}
    exec("from wvsagnac import *", namespace)
    assert set(wvsagnac.__all__) <= namespace.keys()
    assert set(wvsagnac.__all__) <= set(dir(wvsagnac))
    assert {"spectral", "sweep", "design"} <= set(dir(wvsagnac))


def test_unknown_attributes_raise_attribute_error():
    for module in (wvsagnac, wvsagnac.cli):
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name
        assert not hasattr(module, "no_such_name")
    with pytest.raises(ImportError):
        exec("from wvsagnac import no_such_name", {})


def test_former_cli_names_still_resolve():
    for module, names in CLI_NAMES.items():
        for name in names:
            assert getattr(wvsagnac.cli, name) is getattr(module, name), name


def test_lazy_lookups_leave_the_module_dicts_unchanged():
    before = [dict(vars(m)) for m in (wvsagnac, wvsagnac.cli)]
    for name in wvsagnac.__all__:
        getattr(wvsagnac, name)
    for names in CLI_NAMES.values():
        for name in names:
            getattr(wvsagnac.cli, name)
    after = [dict(vars(m)) for m in (wvsagnac, wvsagnac.cli)]
    for b, a in zip(before, after):
        assert a.keys() == b.keys()
        assert all(a[k] is v for k, v in b.items())
    # nor did any earlier lookup: the numpy-backed names are never bound
    for module in (spectral, sweep, design):
        assert not set(DEFINED_IN[module]) & vars(wvsagnac).keys()
        assert not set(CLI_NAMES[module]) & vars(wvsagnac.cli).keys()


def test_lazy_names_follow_a_rebinding_in_their_module(monkeypatch):
    def stand_in(*args, **kwargs):
        raise AssertionError("not called")

    monkeypatch.setattr(sweep, "run_sweep", stand_in)
    assert wvsagnac.run_sweep is stand_in
    assert wvsagnac.cli.run_sweep is stand_in
    monkeypatch.undo()
    assert wvsagnac.run_sweep is wvsagnac.cli.run_sweep is sweep.run_sweep


# ── which commands import numpy (child processes, -X importtime) ─────────────

GEOMETRY = ["geometry", "--theta-deg", "10", "--rs", "1"]
CLASSICAL = ["classical", "--area", "16", "--lambda0", "1550", "--omega", "0.1"]
SIMULATE = ["simulate", "--alpha", "0.1", "--beta", "-0.3", "--area", "16",
            "--omega", "0.05", "--lambda0", "1550", "--dlambda", "10",
            "--grid-points", "64"]


def _child(args, cwd):
    """A finished `python ARGS` child that imports this source tree."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60)


def _imported_modules(args, cwd):
    """Exit code and the modules a `python -m wvsagnac.cli` child imported."""
    proc = _child(["-X", "importtime", "-m", "wvsagnac.cli", *args], cwd)
    modules = {line.rsplit("|", 1)[1].strip()
               for line in proc.stderr.splitlines()
               if line.startswith("import time:") and "|" in line}
    return proc.returncode, modules


@pytest.mark.parametrize("args, exit_code", [
    (GEOMETRY + ["--format", "csv"], 0),
    (GEOMETRY, 0),
    (CLASSICAL, 0),
    (["classical", "--config", "run.cfg", "--format", "json"], 0),
    (CLASSICAL[:3] + CLASSICAL[5:], 2),                  # missing --lambda0
    (["classical", "--config", "bad.cfg"], 2),           # unparseable value
    (["geometry", "--theta-deg", "0", "--rs", "1"], 3),  # domain error
    (["--help"], 0),
], ids=["geometry-csv", "geometry-json", "classical", "classical-config",
        "missing-option", "bad-config-value", "domain-error", "help"])
def test_commands_without_spectra_do_not_import_numpy(tmp_path, args, exit_code):
    (tmp_path / "run.cfg").write_text("area = 16\nlambda0 = 1550\nomega = 0.1\n")
    (tmp_path / "bad.cfg").write_text("area = sixteen\nlambda0 = 1550\nomega = 0.1\n")
    code, modules = _imported_modules(args, tmp_path)
    assert code == exit_code
    assert "wvsagnac.cli" in modules or "wvsagnac" in modules
    assert not any(m == "numpy" or m.startswith("numpy.") for m in modules)


def test_simulate_imports_numpy(tmp_path):
    code, modules = _imported_modules(SIMULATE, tmp_path)
    assert code == 0
    assert "numpy" in modules


def test_a_lazy_module_is_served_by_the_package(tmp_path):
    """In a fresh interpreter `wvsagnac.design` is not yet bound, so the
    package __getattr__ imports the submodule and returns it."""
    proc = _child(["-c", "import sys, wvsagnac\n"
                   "assert 'design' not in vars(wvsagnac)\n"
                   "assert wvsagnac.design is sys.modules['wvsagnac.design']"],
                  tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_a_failing_property_test_fails_and_the_run_goes_on(tmp_path):
    """Under this project's pytest settings a failing @given test is
    reported as failed and the tests after it still run, also where
    hypothesis imports libcst to print the failing example's patch."""
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    (tmp_path / "pyproject.toml").write_text(pyproject.read_text())
    (tmp_path / "test_property.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(n):\n"
        "    assert n < 0\n\n\n"
        "def test_passes():\n"
        "    pass\n")
    proc = _child(["-m", "pytest", "-q", "-p", "no:cacheprovider",
                   "test_property.py"], tmp_path)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr, proc.stdout
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout


def test_the_readme_python_blocks_run(capsys):
    """Each python block of README.md runs as written, so the documented
    library API cannot drift from the package: the sketch prints a
    first-order shift, a fitted center and a sensitivity, and the replaced
    benchmark model sweeps the new range."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```", readme.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 2
    sketch, example = {}, {}
    for block, namespace in zip(blocks, (sketch, example)):
        exec(compile(block, str(readme), "exec"), namespace)
    (shift, center), (k,) = [map(float, line.split())
                             for line in capsys.readouterr().out.splitlines()]
    assert center == sketch["fit_center"](sketch["spectrum"]).center
    # the fitted center sits near lambda0 plus the first-order shift
    assert shift < 0 and abs(center - 1550.0 - shift) < 0.1 * abs(shift) and k > 0
    wide, model = example["wide"], example["model"]
    assert wide.omega_range == (-0.5, 0.5, 101) and wide.name == model.name
