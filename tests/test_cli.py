"""Command-line interface: parsing, artifacts, exit codes, determinism."""

import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

from wvsagnac import InterferometerConfig, SampledSpectrum, fit_center, fringe_shift
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


@pytest.fixture
def runner():
    return CliRunner()


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
    cfg.write_text("# geometry run\ntheta-deg = 25\nrs = 1.0\n")
    result = runner.invoke(main, ["geometry", "--config", str(cfg)])
    assert result.exit_code == 0
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


def test_config_undecodable_file_is_usage_error(runner, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"theta-deg = 25\nrs = 1\xff\xfe\n")
    result = runner.invoke(main, ["geometry", "--config", str(cfg)])
    assert result.exit_code == 2
    assert "cannot read config file" in result.output
    assert not isinstance(result.exception, UnicodeDecodeError)


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


def test_domain_error_exit_code(runner):
    result = runner.invoke(main, ["geometry", "--theta-deg", "90", "--rs", "1"])
    assert result.exit_code == 3


def test_unknown_command_rejected(runner):
    result = runner.invoke(main, ["frobnicate"])
    assert result.exit_code == 2
