"""Command-line interface: parsing, artifacts, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given
from hypothesis import strategies as st

from wvsagnac import (FitResult, InterferometerConfig, SampledSpectrum,
                      fit_center, fringe_shift, multipass_design, serialize)
from wvsagnac.cli import main
from wvsagnac.errors import FitFailure

SIMULATE_ARGS = ["simulate", "--alpha", "0.1", "--beta", "-0.3", "--area", "16",
                 "--omega", "0", "--lambda0", "1550", "--dlambda", "10"]
SWEEP_ARGS = ["sweep", "--omega-min", "-0.1", "--omega-max", "0.1",
              "--steps", "201", "--alpha", "0.1", "--beta", "-0.3",
              "--area", "16", "--lambda0", "1550", "--dlambda", "10"]
DESIGN_ARGS = ["design", "--alpha", "0.1", "--lambda0", "1550", "--dlambda", "10",
               "--i0", "1.0", "--i-min", "0.005", "--dlambda-res", "0.01",
               "--omega-target", "0.05", "--beta-grid=-0.5,-0.3,-0.2",
               "--area-lo", "1", "--area-hi", "20"]
# one feasible run of every subcommand
COMMAND_ARGS = {
    "simulate": SIMULATE_ARGS,
    "sweep": SWEEP_ARGS[:6] + ["21"] + SWEEP_ARGS[7:],
    "design": DESIGN_ARGS,
    "geometry": ["geometry", "--theta-deg", "25", "--rs", "1.0"],
    "classical": ["classical", "--area", "16", "--lambda0", "1550",
                  "--omega", "0.1"],
}

# every parameter of every subcommand: (required, optional), in --help order
FULL_RUNS = {
    "simulate": ({"alpha": 0.1, "beta": -0.3, "area": 16, "omega": 0.05,
                  "lambda0": 1550, "dlambda": 10},
                 {"i0": 2.0, "grid_points": 512, "grid_span": 3.5,
                  "form": "paper"}),
    "sweep": ({"omega_min": -0.1, "omega_max": 0.1, "alpha": 0.1, "beta": -0.3,
               "area": 16, "lambda0": 1550, "dlambda": 10},
              {"steps": 21, "i0": 2.0, "window_lo": -0.05, "window_hi": 0.05,
               "form": "paper"}),
    "design": ({"alpha": 0.1, "lambda0": 1550, "dlambda": 10, "i0": 1.0,
                "i_min": 0.005, "dlambda_res": 0.01, "omega_target": 0.05,
                "beta_grid": "-0.5,-0.3,-0.2", "area_lo": 1, "area_hi": 20}, {}),
    "geometry": ({"theta_deg": 25, "rs": 1.0}, {}),
    "classical": ({"area": 16, "lambda0": 1550, "omega": 0.1},
                  {"amplitude": 2.0, "mod_phase": 0.5}),
}
# one parameter per subcommand and a value that changes the artifact
OVERRIDES = {"simulate": ("omega", 0.02), "sweep": ("beta", -0.2),
             "design": ("dlambda_res", 0.02), "geometry": ("theta_deg", 45),
             "classical": ("omega", 0.2)}


@pytest.fixture
def runner():
    return CliRunner()


def _flags(params):
    return [f"--{name.replace('_', '-')}={value}" for name, value in params.items()]


def _config(path, params):
    path.write_text("".join(f"{name} = {value}\n" for name, value in params.items()))
    return str(path)


def _parse_csv(text):
    rows = [line for line in text.strip().splitlines()
            if line and not line.startswith("#")]
    header = rows[0].split(",")
    data = np.array([[float(tok) for tok in line.split(",")] for line in rows[1:]])
    return header, data


# ── geometry ──────────────────────────────────────────────────────────────────

def test_geometry_reference_design(runner):
    result = runner.invoke(main, ["geometry", "--theta-deg", "25", "--rs", "1.0"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["theta_deg"] == 25
    assert payload["n_turns"] == 5
    assert payload["area_equiv_m2"] == pytest.approx(13.789, abs=0.014)
    assert payload["ratio_vs_square"] == pytest.approx(3.45, abs=0.01)


def test_geometry_csv_format(runner):
    result = runner.invoke(main, ["geometry", "--theta-deg", "45", "--rs", "2.0",
                                  "--format", "csv"])
    assert result.exit_code == 0
    header, data = _parse_csv(result.output)
    assert header == ["theta_deg", "n_turns", "area_equiv_m2", "ratio_vs_square"]
    assert data[0][2] == pytest.approx(8.0, rel=1e-12)


def test_ratio_vs_square_where_four_r_squared_overflows():
    # R^2 and the area are finite floats here, 4 R^2 is not
    doc = json.loads(serialize.result_to_json(multipass_design(60, 7.3e153)))
    unit = multipass_design(60, 1.0).area_equiv
    assert doc["ratio_vs_square"] == pytest.approx(unit / 4.0, rel=1e-12)


@pytest.mark.parametrize("result", [object(), FitResult(1550.0, 10.0, 1.0, 0.0, 3)],
                         ids=["object", "FitResult"])
def test_a_type_without_a_layout_is_rejected(result):
    for emit in (serialize.result_to_csv, serialize.result_to_json):
        with pytest.raises(TypeError, match=f"no artifact layout for "
                           f"{type(result).__name__}$"):
            emit(result)


# ── simulate ──────────────────────────────────────────────────────────────────

def test_simulate_null_spectrum_centers_on_lambda0(runner):
    result = runner.invoke(main, SIMULATE_ARGS)
    assert result.exit_code == 0
    header, data = _parse_csv(result.output)
    assert header == ["lambda_nm", "intensity"]
    assert data.shape == (2048, 2)
    spec = SampledSpectrum(data[:, 0], data[:, 1], "exact")
    assert abs(fit_center(spec).center - 1550.0) < 1e-3 * 10.0


def test_simulate_json_round_trip(runner):
    result = runner.invoke(main, SIMULATE_ARGS + ["--format", "json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["form"] == "exact"
    assert len(payload["lambda_nm"]) == len(payload["intensity"]) == 2048


def test_simulate_writes_file(runner, tmp_path):
    out = tmp_path / "spectrum.csv"
    result = runner.invoke(main, SIMULATE_ARGS + ["--out", str(out)])
    assert result.exit_code == 0
    assert out.read_text().startswith("lambda_nm,intensity")


def _json_columns(doc):
    """Column name -> values, for each JSON shape the CLI writes."""
    if "rows" in doc:
        return {k: [row[k] for row in doc["rows"]] for k in doc["rows"][0]}
    if "lambda_nm" in doc:
        return {k: doc[k] for k in ("lambda_nm", "intensity")}
    return {k: [v] for k, v in doc.items()}


def _same_value(token, value):
    """A CSV token and a JSON value carry the same bits (NaN is null)."""
    if value is None:
        return math.isnan(float(token))
    if isinstance(value, bool):
        return token == str(value).lower()
    return float(token).hex() == float(value).hex()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", list(COMMAND_ARGS))
def test_deterministic_output(runner, command, fmt):
    args = COMMAND_ARGS[command]
    first = runner.invoke(main, args + ["--format", fmt])
    second = runner.invoke(main, args + ["--format", fmt])
    assert first.exit_code == 0
    assert first.output == second.output
    other = runner.invoke(main, args + ["--format",
                                        "json" if fmt == "csv" else "csv"])
    csv_text, json_text = ((first.output, other.output) if fmt == "csv"
                           else (other.output, first.output))
    lines = [ln for ln in csv_text.splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    csv_columns = dict(zip(header, zip(*(ln.split(",") for ln in lines[1:]))))
    json_columns = _json_columns(json.loads(json_text))
    shared = csv_columns.keys() & json_columns.keys()
    assert shared == set(header)
    for name in shared:
        assert len(csv_columns[name]) == len(json_columns[name])
        assert all(_same_value(tok, value) for tok, value
                   in zip(csv_columns[name], json_columns[name])), name


def test_csv_floats_round_trip_losslessly(runner):
    result = runner.invoke(main, ["classical", "--area", "16", "--lambda0",
                                  "1550", "--omega", "0.1"])
    _, data = _parse_csv(result.output)
    # bit-exact against the library value: 17 significant digits are lossless
    expected = fringe_shift(InterferometerConfig.from_nm(16.0, 1550.0), 0.1)
    assert data[0][1] == expected


@given(st.floats(allow_nan=False, allow_infinity=False))
@example(-0.0)
@example(5e-324)
@example(-2.2250738585072009e-308)  # largest subnormal, negated
def test_csv_float_text_round_trips_bit_exactly(x):
    """Every finite float, subnormals and signed zeros included."""
    back = float(serialize.fmt(x))
    assert back == x and math.copysign(1.0, back) == math.copysign(1.0, x)
    assert math.isnan(float(serialize.fmt(math.nan)))


# ── sweep ─────────────────────────────────────────────────────────────────────

def test_sweep_csv_schema_and_symmetry(runner):
    result = runner.invoke(main, SWEEP_ARGS)
    assert result.exit_code == 0
    header, data = _parse_csv(result.output)
    assert header == ["omega", "phi", "im_aw", "dlambda_analytic_nm",
                      "dlambda_fitted_nm", "postselect_prob"]
    assert data.shape[0] == 201
    analytic = data[:, 3]
    assert np.max(np.abs(analytic + analytic[::-1])) < 1e-12


def test_sweep_json_carries_sensitivity(runner):
    result = runner.invoke(main, SWEEP_ARGS + ["--format", "json"])
    payload = json.loads(result.output)
    assert payload["form"] == "exact"
    assert payload["k_analytic"] == pytest.approx(0.3108, abs=5e-4)
    assert len(payload["rows"]) == 201


def test_sweep_degeneracy_warning_surfaces(runner):
    args = ["sweep", "--omega-min", "-0.03", "--omega-max", "0.03",
            "--steps", "11", "--alpha", "0.1", "--beta", "-0.1",
            "--area", "16", "--lambda0", "1550", "--dlambda", "10"]
    result = runner.invoke(main, args)
    assert result.exit_code == 0
    assert "# warning:" in result.output and "identically zero" in result.output


def test_sweep_of_a_tiny_probe_fits_like_a_unit_one(runner):
    """At i0 = 1e-200 the squared fit residuals would underflow; the fit
    scales the spectrum up, so the shifts match those at i0 = 1."""
    args = SWEEP_ARGS[:6] + ["3"] + SWEEP_ARGS[7:]
    columns = []
    for i0 in ("1", "1e-200"):
        result = runner.invoke(main, args + ["--i0", i0])
        assert result.exit_code == 0, result.output
        header, data = _parse_csv(result.output)
        columns.append(data[:, header.index("dlambda_fitted_nm")])
    assert np.abs(columns[1] - columns[0]).max() <= 1e-9
    assert np.abs(columns[0]).max() > 0.03


@pytest.mark.parametrize("args", [
    SWEEP_ARGS[:6] + ["3"] + SWEEP_ARGS[7:] + ["--i0", "1e-320"],
    DESIGN_ARGS[:7] + ["--i0", "1e-320", "--i-min", "0"] + DESIGN_ARGS[11:]],
    ids=["sweep", "design"])
def test_a_subnormal_probe_is_a_domain_error_naming_i0(runner, args):
    """At i0 = 1e-320 every sample is subnormal and has lost significant
    bits, so the fit would be wrong; it is refused instead."""
    result = runner.invoke(main, args)
    assert result.exit_code == 3, result.output
    assert "probe intensity i0" in result.stderr


def test_sweep_with_an_orthogonal_zero_rotation_selection_is_a_domain_error(runner):
    """beta = 0 makes the reference selection orthogonal: no shift can be
    measured from it, so the sweep fails as a whole, in one line."""
    result = runner.invoke(main, SWEEP_ARGS[:6] + ["5", "--alpha", "0.1",
                                                   "--beta", "0"] + SWEEP_ARGS[11:])
    assert result.exit_code == 3, result.output
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
    assert "orthogonal" in result.stderr
    assert result.stdout == ""


def test_sweep_window_override(runner):
    result = runner.invoke(main, SWEEP_ARGS + ["--window-lo", "-0.05",
                                               "--window-hi", "0.05",
                                               "--format", "json"])
    assert result.exit_code == 0
    assert json.loads(result.output)["k_window"] == [-0.05, 0.05]
    half = runner.invoke(main, SWEEP_ARGS + ["--window-lo", "-0.05"])
    assert half.exit_code == 2


def test_sweep_window_override_drops_the_default_window_warning(runner):
    # five rows: the default central window holds one, the given window all
    args = ["sweep", "--omega-min", "-0.1", "--omega-max", "0.1", "--steps", "5",
            "--alpha", "0.1", "--beta", "-0.3", "--area", "16", "--lambda0",
            "1550", "--dlambda", "10", "--window-lo", "-0.1", "--window-hi", "0.1"]
    result = runner.invoke(main, args)
    assert result.exit_code == 0
    assert "# warning" not in result.output
    k = dict(line[2:].split("=") for line in result.output.splitlines()[:2])
    assert float(k["k_fitted_nm_per_rad_s"]) == pytest.approx(0.31, rel=0.05)
    unusable = runner.invoke(main, args[:-4] + ["--window-lo", "0",
                                                "--window-hi", "0.01"])
    assert unusable.exit_code == 3
    assert "at least 3 usable rows" in unusable.stderr


def test_a_window_bound_that_is_not_finite_is_a_domain_error(runner):
    """An infinite bound would be written as -Infinity or Infinity, which is
    not JSON: the sweep refuses it, in one line, and writes no artifact."""
    result = runner.invoke(main, SWEEP_ARGS[:6] + ["5"] + SWEEP_ARGS[7:]
                           + ["--window-lo", "-inf", "--window-hi", "inf",
                              "--format", "json"])
    assert result.exit_code == 3, result.output
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
    assert "window" in result.stderr
    assert result.stdout == ""


# ── design ────────────────────────────────────────────────────────────────────

def test_design_vacuous_constraints(runner):
    args = ["design", "--alpha", "0.1", "--lambda0", "1550", "--dlambda", "10",
            "--i0", "1.0", "--i-min", "0", "--dlambda-res", "0",
            "--omega-target", "0.05", "--beta-grid", "-0.3,-0.2",
            "--area-lo", "1.0", "--area-hi", "20.0"]
    result = runner.invoke(main, args)
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["feasible"] is True
    assert payload["area_s_min_m2"] == 1.0


def test_design_infeasible_still_emits_report(runner):
    args = ["design", "--alpha", "0.1", "--lambda0", "1550", "--dlambda", "10",
            "--i0", "1.0", "--i-min", "0", "--dlambda-res", "1.0",
            "--omega-target", "0.001", "--beta-grid", "-0.1",
            "--area-lo", "1.0", "--area-hi", "2.0"]
    result = runner.invoke(main, args)
    assert result.exit_code == 5
    payload = json.loads(result.output)
    assert payload["feasible"] is False
    assert payload["area_s_min_m2"] is None


def test_design_names_a_beta_whose_every_area_is_orthogonal(runner):
    args = [a for a in DESIGN_ARGS if not a.startswith("--beta-grid")]
    result = runner.invoke(main, args + ["--beta-grid", "0"])
    assert result.exit_code == 5
    warning, = json.loads(result.output)["warnings"]
    assert warning.startswith("beta = 0: every probed area is infeasible: ")
    assert warning.endswith("the selections are effectively orthogonal")


# ── classical ─────────────────────────────────────────────────────────────────

def test_classical_matches_library(runner):
    result = runner.invoke(main, ["classical", "--area", "16", "--lambda0",
                                  "1550", "--omega", "0.1", "--format", "json"])
    payload = json.loads(result.output)
    dz = 6.4 / (1550e-9 * 299792458.0)
    assert payload["fringe_shift"] == pytest.approx(dz, rel=1e-15)
    assert payload["intensity"] == pytest.approx(1 + np.cos(2 * np.pi * dz),
                                                 rel=1e-12)


# ── config and errors ─────────────────────────────────────────────────────────

def test_config_file_supplies_values(runner, tmp_path):
    cfg = tmp_path / "run.cfg"
    # "utf-8-sig" starts the file with a byte order mark, which is skipped
    for text, encoding in (("# geometry run\ntheta-deg = 25\nrs = 1.0\n", "utf-8"),
                           ("theta-deg = 25\nrs = 1.0\n", "utf-8-sig")):
        cfg.write_text(text, encoding=encoding)
        result = runner.invoke(main, ["geometry", "--config", str(cfg)])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["n_turns"] == 5


def test_flag_overrides_config(runner, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("theta-deg = 25\nrs = 1.0\n")
    result = runner.invoke(main, ["geometry", "--config", str(cfg),
                                  "--theta-deg", "45"])
    assert json.loads(result.output)["n_turns"] == 1


def test_config_bad_value_names_the_token(runner, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("theta-deg = twenty\nrs = 1.0\n")
    result = runner.invoke(main, ["geometry", "--config", str(cfg)])
    assert result.exit_code == 2
    assert "twenty" in result.output


def test_config_bad_value_rejected_even_when_a_flag_overrides_it(runner, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("theta-deg = twenty\nrs = 1.0\n")
    result = runner.invoke(main, ["geometry", "--config", str(cfg),
                                  "--theta-deg", "25"])
    assert result.exit_code == 2
    assert "twenty" in result.output


def test_config_bad_line_rejected(runner, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("theta-deg 25\n")
    result = runner.invoke(main, ["geometry", "--config", str(cfg), "--rs", "1"])
    assert result.exit_code == 2


@pytest.mark.parametrize("line", ["grid_pionts = 64", "from = paper",
                                  "format = csv", "out = spectrum.csv"])
def test_config_unknown_key_rejected(runner, tmp_path, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"alpha = 0.1\n{line}\n")
    result = runner.invoke(main, SIMULATE_ARGS + ["--config", str(cfg)])
    assert result.exit_code == 2
    assert f"unknown key {line.split()[0]!r}" in result.output


@pytest.mark.parametrize("text, key, lines", [
    ("theta-deg = 25\nrs = 1.0\ntheta_deg = 30\n", "theta_deg", (1, 3)),
    ("rs = 1.0\n# again\ntheta-deg = 25\nrs = 2.0\n", "rs", (1, 4)),
], ids=["dash and underscore", "same spelling"])
@pytest.mark.parametrize("flag", [[], ["--theta-deg", "45", "--rs", "3"]],
                         ids=["no flag", "flags override"])
def test_config_key_given_twice_is_usage_error(runner, tmp_path, text, key, lines,
                                               flag):
    """A key given twice, `-` and `_` alike, names the key and both lines,
    also when flags override it, and is never settled by the last value."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    result = runner.invoke(main, ["geometry", "--config", str(cfg), *flag])
    assert result.exit_code == 2
    assert (f"run.cfg:{lines[1]}: key {key!r} is given twice, on lines "
            f"{lines[0]} and {lines[1]}") in result.output
    assert "n_turns" not in result.output


def test_config_undecodable_file_is_usage_error(runner, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"theta-deg = 25\nrs = 1\xff\xfe\n")
    result = runner.invoke(main, ["geometry", "--config", str(cfg)])
    assert result.exit_code == 2
    assert "cannot read config file" in result.output
    assert not isinstance(result.exception, UnicodeDecodeError)


def _cli_child(args):
    """A finished `python -m wvsagnac.cli ARGS` child on this source tree."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    return subprocess.run([sys.executable, "-m", "wvsagnac.cli", *args],
                          env=env, capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("where", ["missing directory", "directory", "full device"])
def test_unwritable_out_is_usage_error(tmp_path, where):
    """An --out that cannot be opened, or that fails while it is written or
    closed, exits 2 with a message naming --out, and no traceback, in a
    real `python -m wvsagnac.cli` child."""
    out = {"missing directory": tmp_path / "no" / "out.json",
           "directory": tmp_path, "full device": Path("/dev/full")}[where]
    if where == "full device" and not out.exists():
        pytest.skip("no /dev/full on this system")
    proc = _cli_child(["geometry", "--theta-deg", "10", "--rs", "1",
                       "--out", str(out)])
    assert proc.returncode == 2
    assert "Invalid value for '--out'" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_config_keys_match_dash_and_underscore(runner, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("omega_min = -0.1\nomega-max = 0.1\nsteps = 11\n"
                   "window_lo = -0.05\nwindow-hi = 0.05\n")
    result = runner.invoke(main, ["sweep", "--config", str(cfg), "--alpha", "0.1",
                                  "--beta", "-0.3", "--area", "16", "--lambda0",
                                  "1550", "--dlambda", "10", "--format", "json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["k_window"] == [-0.05, 0.05]
    assert [row["omega"] for row in payload["rows"]][::10] == [-0.1, 0.1]


@pytest.mark.parametrize("command", ["sweep", "design"])
def test_fit_failure_exit_code(runner, monkeypatch, command):
    def fail(*args, **kwargs):
        raise FitFailure("planted: the fit did not converge")

    monkeypatch.setattr("wvsagnac.sweep.fit_center", fail)
    monkeypatch.setattr("wvsagnac.design.fit_center", fail)
    result = runner.invoke(main, COMMAND_ARGS[command])
    assert result.exit_code == 4
    assert "error: planted: the fit did not converge" in result.stderr
    assert result.stdout == ""


def test_missing_physics_parameter_is_usage_error(runner):
    result = runner.invoke(main, ["simulate", "--alpha", "0.1", "--beta", "-0.3",
                                  "--area", "16", "--omega", "0",
                                  "--dlambda", "10"])
    assert result.exit_code == 2
    assert "lambda0" in result.output


def test_unknown_flag_rejected(runner):
    result = runner.invoke(main, ["geometry", "--theta-deg", "25", "--rs", "1",
                                  "--frobnicate", "3"])
    assert result.exit_code == 2


def test_unparseable_flag_rejected(runner):
    result = runner.invoke(main, ["geometry", "--theta-deg", "x", "--rs", "1"])
    assert result.exit_code == 2


def test_unparseable_beta_grid_rejected(runner):
    args = [a for a in DESIGN_ARGS if not a.startswith("--beta-grid")]
    # no angle; a token that is not a float; angles not split by commas
    for grid in (",", "-0.3,abc", "-0.5;-0.3"):
        result = runner.invoke(main, args + ["--beta-grid", grid])
        assert result.exit_code == 2
        assert f"--beta-grid: cannot parse {grid!r}" in result.stderr


def test_domain_error_exit_code(runner):
    result = runner.invoke(main, ["geometry", "--theta-deg", "90", "--rs", "1"])
    assert result.exit_code == 3


@pytest.mark.parametrize("args, quantity", [
    (["geometry", "--theta-deg", "25", "--rs", "1e-200"], "equivalent area"),
    (SIMULATE_ARGS[:-2] + ["--dlambda", "1e-200"], "wavelength grid"),
], ids=["area underflows", "grid collapses"])
def test_an_area_that_underflows_or_a_collapsed_grid_is_one_error_line(args, quantity):
    """A radius whose area underflows, and a probe so narrow that its grid
    collapses to one wavelength, exit 3 with one `error:` line naming the
    quantity, in a real child: no traceback and no numpy warning before it."""
    proc = _cli_child(args)
    assert proc.returncode == 3
    assert proc.stdout == ""
    line, = proc.stderr.splitlines()
    assert line.startswith(f"error: {quantity} ")


def test_unknown_command_rejected(runner):
    result = runner.invoke(main, ["frobnicate"])
    assert result.exit_code == 2


@pytest.mark.parametrize("args, quantity", [
    (["geometry", "--theta-deg", "1", "--rs", "1e300"], "radius_rs"),
    (["classical", "--area", "1e308", "--lambda0", "1550", "--omega", "1e308"],
     "fringe shift"),
    (["sweep", "--omega-min", "-1e308", "--omega-max", "1e308"] + SWEEP_ARGS[5:],
     "omega_range width"),
    (SIMULATE_ARGS + ["--grid-points", "3", "--grid-span", "1e308"],
     "span*width_dlambda"),
    (DESIGN_ARGS[:7] + ["--i0", "1e308", "--i-min", "1e-300"] + DESIGN_ARGS[11:-1]
     + ["1e308"], "integrated intensity"),
    (DESIGN_ARGS[:7] + ["--i0", "1e200", "--i-min", "1e-300"] + DESIGN_ARGS[11:15]
     + ["--beta-grid=-0.5,-0.3"] + DESIGN_ARGS[16:], "squared fit residuals"),
    (SWEEP_ARGS[:6] + ["100000000000000000000000"] + SWEEP_ARGS[7:], "omega_range"),
    (SIMULATE_ARGS[:7] + ["--omega", "0.05", "--lambda0", "1e300", "--dlambda",
                          "1e299", "--grid-points", "16"], "width_dlambda"),
    (SWEEP_ARGS[:13] + ["--lambda0", "1e160", "--dlambda", "1e154"],
     "width_dlambda"),
    (DESIGN_ARGS[:3] + ["--lambda0", "1e300", "--dlambda", "1e299"]
     + DESIGN_ARGS[7:], "width_dlambda"),
    # 4*pi*width^2 is finite, but the envelope squares 4*width
    (SIMULATE_ARGS[:9] + ["--lambda0", "1e160", "--dlambda", "3.5e153"],
     "span*width_dlambda"),
])
def test_huge_finite_input_is_a_domain_error_naming_the_quantity(runner, args,
                                                                 quantity):
    result = runner.invoke(main, args)
    assert result.exit_code == 3, result.output
    assert quantity in result.stderr
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1


def test_a_step_count_past_the_largest_float_array_exits_3_in_a_child():
    """--steps sys.maxsize, for which numpy 2.4's linspace raises an
    IndexError, is refused by name before any array is made."""
    proc = _cli_child(SWEEP_ARGS[:6] + [str(sys.maxsize)] + SWEEP_ARGS[7:])
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr == (f"error: omega_range needs from 3 to {sys.maxsize // 8}"
                           f" steps, got {sys.maxsize}\n")
    assert proc.stdout == ""


@pytest.mark.parametrize("command, allocation", [
    ("simulate", "wvsagnac.spectral.default_grid"),  # --grid-points 1e11
    ("sweep", "wvsagnac.sweep.np.linspace"),         # --steps 1e11
])
@pytest.mark.parametrize("message, shown", [
    ("Unable to allocate 745. GiB for an array with shape (100000000000,) "
     "and data type float64", "Unable to allocate 745. GiB"),
    ("", "MemoryError"),
])
def test_out_of_memory_is_a_one_line_domain_error(runner, monkeypatch, command,
                                                  allocation, message, shown):
    """A planted failing allocation: a real one that large could get the
    test process killed under memory overcommit."""
    def allocate(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(allocation, allocate)
    result = runner.invoke(main, COMMAND_ARGS[command])
    assert result.exit_code == 3, result.output
    assert result.stderr == f"error: {message or shown}\n"
    assert shown in result.stderr
    assert result.stdout == ""


# ── parameter resolution: flag over config over default ──────────────────────

@pytest.mark.parametrize("command", list(FULL_RUNS))
def test_config_with_every_parameter_gives_the_flags_artifact(runner, tmp_path,
                                                              command):
    required, optional = FULL_RUNS[command]
    params = {**required, **optional}
    by_flags, by_config = tmp_path / "flags.out", tmp_path / "config.out"
    assert runner.invoke(main, [command, "--out", str(by_flags)]
                         + _flags(params)).exit_code == 0
    assert runner.invoke(main, [command, "--out", str(by_config), "--config",
                                _config(tmp_path / "run.cfg", params)]).exit_code == 0
    assert by_config.read_bytes() == by_flags.read_bytes()
    # every optional parameter has a working default
    assert runner.invoke(main, [command] + _flags(required)).exit_code == 0


@pytest.mark.parametrize("command", list(FULL_RUNS))
def test_each_missing_required_parameter_is_named(runner, tmp_path, command):
    required, optional = FULL_RUNS[command]
    for name in required:
        rest = {k: v for k, v in {**required, **optional}.items() if k != name}
        for args in (_flags(rest), ["--config", _config(tmp_path / "run.cfg", rest)]):
            result = runner.invoke(main, [command] + args)
            assert result.exit_code == 2, (name, result.output)
            assert f"'--{name.replace('_', '-')}'" in result.stderr


@pytest.mark.parametrize("config_first", [True, False])
@pytest.mark.parametrize("command", list(FULL_RUNS))
def test_flag_beats_config_on_either_side(runner, tmp_path, command, config_first):
    required, optional = FULL_RUNS[command]
    params = {**required, **optional}
    name, value = OVERRIDES[command]
    config = ["--config", _config(tmp_path / "run.cfg", params)]
    flag = _flags({name: value})
    result = runner.invoke(main, [command] + (config + flag if config_first
                                              else flag + config))
    expected = runner.invoke(main, [command] + _flags({**params, name: value}))
    assert result.exit_code == expected.exit_code == 0
    assert result.stdout == expected.stdout
    assert result.stdout != runner.invoke(main, [command] + config).stdout
