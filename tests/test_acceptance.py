"""Acceptance suite: one test per release criterion, at fixed tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS lines and timings. Every tolerance is pinned here; nothing is deferred
to later calibration.
"""

import json
import math
import time

import numpy as np
import pytest
from click.testing import CliRunner

from wvsagnac import (SPEED_OF_LIGHT, DesignConstraints, ModelSpec,
                      SelectionConfig, SpectrumModel, amplitudes_mn,
                      benchmark_models, classical_intensity, default_grid,
                      feasible, fit_center, fringe_shift, InterferometerConfig,
                      intensity_envelope, min_area, multipass_design,
                      output_spectrum, run_sweep, SampledSpectrum, weak_value,
                      weak_value_direct)
from wvsagnac.cli import main

PROBE = SpectrumModel(i0=1.0, lambda0=1550.0, width_dlambda=10.0)


def _report(criterion: int, detail: str, elapsed: float | None = None):
    stamp = f" [{elapsed:.3f} s]" if elapsed is not None else ""
    print(f"\nACCEPTANCE {criterion}: PASS - {detail}{stamp}")


def test_criterion_1_geometry_reproduction():
    """Multipass design at 25 degrees: 5 turns, 13.789 m^2, ratio about 3.45."""
    result = CliRunner().invoke(main, ["geometry", "--theta-deg", "25",
                                       "--rs", "1.0"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["n_turns"] == 5
    assert payload["area_equiv_m2"] == pytest.approx(13.789, rel=1e-3)
    assert payload["area_equiv_m2"] == pytest.approx(14.0, rel=0.02)
    assert payload["ratio_vs_square"] == pytest.approx(3.45, abs=0.01)

    multipass_design(25, 1.0)  # warm up before timing
    elapsed = min(_timed(multipass_design, 25, 1.0) for _ in range(5))
    assert elapsed < 1e-3, f"geometry evaluation took {elapsed * 1e3:.3f} ms"
    _report(1, f"turns=5, area={payload['area_equiv_m2']:.4f} m^2, "
               f"ratio={payload['ratio_vs_square']:.3f}, "
               f"runtime {elapsed * 1e6:.1f} us")


def _timed(fn, *args):
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def test_criterion_2_weak_value_oracle_equivalence():
    """Closed form and direct inner-product route agree to 1e-12 relative."""
    start = time.perf_counter()
    rng = np.random.default_rng(20240817)
    accepted = 0
    worst = 0.0
    while accepted < 1000:
        alpha, beta, phi = rng.uniform(-math.pi, math.pi, 3)
        sel = SelectionConfig(float(alpha), float(beta), float(phi))
        m, n = amplitudes_mn(sel)
        if abs(m + n) <= 1e-6:
            continue
        accepted += 1
        closed = weak_value(sel).a_w
        direct = weak_value_direct(sel)
        rel = abs(closed - direct) / max(abs(closed), 1.0)
        worst = max(worst, rel)
        assert rel <= 1e-12, f"(alpha, beta, phi)=({alpha}, {beta}, {phi})"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(2, f"1000 selections, worst relative gap {worst:.2e}", elapsed)


def test_criterion_3_linear_regime_consistency():
    """Fitted center shift tracks the first-order formula within 5 percent."""
    start = time.perf_counter()
    model = ModelSpec(name="m2", area_s=16.0, alpha=0.1, beta=-0.3,
                      probe=PROBE, omega_range=(-0.1, 0.1, 201))
    result = run_sweep(model, form="exact")
    checked = 0
    worst = 0.0
    for row in result.rows:
        if row.failed or abs(row.im_aw) > 0.01:
            continue
        checked += 1
        if row.dlambda_analytic == 0.0:
            assert row.dlambda_fitted == 0.0
            continue
        rel = abs(row.dlambda_fitted - row.dlambda_analytic) \
            / abs(row.dlambda_analytic)
        worst = max(worst, rel)
        assert rel <= 0.05, f"omega={row.omega}: {rel:.3%}"
    assert checked >= 50
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(3, f"{checked} rows with |Im A_w| <= 0.01, worst gap {worst:.2%}",
            elapsed)


def test_criterion_4_sensitivity_scaling_law():
    """Doubling the loop area doubles the analytic sensitivity to 0.5 percent."""
    start = time.perf_counter()
    k = {}
    for area in (16.0, 8.0):
        model = ModelSpec(name=f"s{area}", area_s=area, alpha=0.1, beta=-0.3,
                          probe=PROBE, omega_range=(-0.1, 0.1, 201))
        k[area] = run_sweep(model, form="exact").k_analytic
    ratio = k[16.0] / k[8.0]
    assert ratio == pytest.approx(2.0, rel=0.005)
    elapsed = time.perf_counter() - start
    assert elapsed < 20.0
    _report(4, f"k(16)/k(8) = {ratio:.6f}", elapsed)


def test_criterion_5_qualitative_ordering_and_degeneracy_flag():
    """Slope ordering across post-selections; the pinned selection is flagged."""
    def phi_slope(alpha, beta):
        return abs(0.5 * math.sin(2 * (alpha + beta)) * math.sin(2 * alpha)
                   / math.sin(beta) ** 2)

    assert phi_slope(0.1, -0.3) > phi_slope(0.1, -0.5)

    models = {m.name: m for m in benchmark_models(1550.0, 10.0)}
    k1 = run_sweep(models["model1"]).k_analytic
    k2 = run_sweep(models["model2"]).k_analytic
    assert k2 > k1

    sweep3 = run_sweep(models["model3"])
    assert any("identically zero" in w for w in sweep3.warnings), \
        "pinned weak value must be flagged in the sweep report"
    assert all(r.dlambda_analytic == 0.0 for r in sweep3.rows)
    _report(5, f"slope(-0.3)={phi_slope(0.1, -0.3):.4f} > "
               f"slope(-0.5)={phi_slope(0.1, -0.5):.4f}; k2={k2:.1f} > k1={k1:.1f}; "
               "degenerate selection flagged")


def test_criterion_6_spectrum_form_discrepancy_audit():
    """exact - paper equals the dropped squared-real term, pointwise to 1e-12."""
    start = time.perf_counter()
    rng = np.random.default_rng(6021023)
    cases = 0
    worst = 0.0
    while cases < 100:
        alpha, beta = rng.uniform(-1.4, 1.4, 2)
        phi = rng.uniform(-math.pi, math.pi)
        sel = SelectionConfig(float(alpha), float(beta), float(phi))
        m, n = amplitudes_mn(sel)
        if abs(m + n) ** 2 <= 1e-6:
            continue
        cases += 1
        lambda0 = float(rng.uniform(500.0, 2000.0))
        dlambda = float(rng.uniform(2.0, lambda0 / 60.0))
        probe = SpectrumModel(i0=float(rng.uniform(0.1, 10.0)),
                              lambda0=lambda0, width_dlambda=dlambda)
        grid = default_grid(probe)  # the 2048-point default
        wv = weak_value(sel)
        exact = output_spectrum(probe, wv, lambda0, grid, "exact").intensities
        paper = output_spectrum(probe, wv, lambda0, grid, "paper").intensities
        pg = 2.0 * math.pi * lambda0 / grid
        dropped = (abs(wv.overlap) ** 2 * wv.a_w.real ** 2 * np.sin(pg) ** 2
                   * intensity_envelope(probe, grid))
        gap = np.max(np.abs((exact - paper) - dropped)) / exact.max()
        worst = max(worst, gap)
        assert gap <= 1e-12, f"case {cases}: gap {gap:.2e} of peak"
    elapsed = time.perf_counter() - start
    _report(6, f"100 parameter sets, worst pointwise gap {worst:.2e} of peak",
            elapsed)


def test_criterion_7_fitter_exactness():
    """500 clean Gaussians with injected shifts recovered to 1e-10 relative."""
    start = time.perf_counter()
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(500):
        peak = float(rng.uniform(0.1, 10.0))
        lambda0 = float(rng.uniform(500.0, 2000.0))
        width = float(rng.uniform(2.0, 40.0))
        shift = float(rng.uniform(-0.5, 0.5))
        center = lambda0 + shift
        lam = np.linspace(lambda0 - 4 * width, lambda0 + 4 * width, 1024)
        spec = SampledSpectrum(lam, peak * np.exp(-((lam - center) / width) ** 2),
                               "exact")
        fit = fit_center(spec)
        errs = (abs(fit.peak - peak) / peak,
                abs(fit.center - center) / center,
                abs(fit.width - width) / width)
        worst = max(worst, *errs)
        assert all(e <= 1e-10 for e in errs), \
            f"(peak, center, width)=({peak}, {center}, {width}): {errs}"
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(7, f"500 fits, worst relative parameter error {worst:.2e}", elapsed)


def test_criterion_8_design_solver_oracle_agreement():
    """Bisection optimum matches a 100x100 brute-force grid to one cell,
    and 50 randomized constraint tightenings never shrink the area."""
    start = time.perf_counter()
    alpha = 0.1
    betas = [float(b) for b in np.linspace(-0.55, -0.15, 100)]
    areas = np.linspace(2.0, 18.0, 100)
    cell = float(areas[1] - areas[0])

    vacuous = DesignConstraints(i0=1.0, i_min=0.0, delta_lambda_res=0.0,
                                omega_target=0.05, alpha=alpha, probe=PROBE)
    planted = feasible(-0.2, 9.3, vacuous).shift_nm
    cons = DesignConstraints(i0=1.0, i_min=0.005, delta_lambda_res=planted,
                             omega_target=0.05, alpha=alpha, probe=PROBE)

    grid_best = math.inf
    for beta in betas:
        for s in areas:
            rep = feasible(beta, float(s), cons)
            if rep.feasible and s < grid_best:
                grid_best = float(s)
    solution = min_area(cons, betas, (2.0, 18.0))
    assert solution.feasible and math.isfinite(grid_best)
    assert abs(solution.area_s_min - grid_best) <= cell, \
        f"solver {solution.area_s_min} vs grid {grid_best} (cell {cell})"
    # dominance: by construction no grid area below grid_best is feasible,
    # so the solver must not undercut it by more than one cell
    assert solution.area_s_min >= grid_best - cell

    base_betas = [-0.3, -0.25, -0.2]
    base_res = feasible(-0.2, 8.0, vacuous).shift_nm
    base_cons = DesignConstraints(i0=1.0, i_min=0.005, delta_lambda_res=base_res,
                                  omega_target=0.05, alpha=alpha, probe=PROBE)
    s_base = min_area(base_cons, base_betas, (2.0, 18.0)).area_s_min
    rng = np.random.default_rng(88)
    monotone_checked = 0
    for _ in range(50):
        tightened = DesignConstraints(
            i0=1.0,
            i_min=0.005 * float(rng.uniform(1.0, 3.0)),
            delta_lambda_res=base_res * float(rng.uniform(1.0, 1.6)),
            omega_target=0.05 * float(rng.uniform(0.5, 1.0)),
            alpha=alpha, probe=PROBE)
        sol = min_area(tightened, base_betas, (2.0, 18.0))
        s_new = sol.area_s_min if sol.feasible else math.inf
        assert s_new >= s_base * (1.0 - 2e-4), \
            f"tightening shrank the area: {s_new} < {s_base}"
        monotone_checked += 1
    assert monotone_checked == 50
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(8, f"solver {solution.area_s_min:.4f} m^2 vs grid {grid_best:.4f} "
               f"m^2 (cell {cell:.4f}); 50 tightenings monotone", elapsed)


def test_criterion_9_classical_baseline_sanity():
    """Readout periodic in one fringe and bounded by [0, 2A] on a dense scan."""
    start = time.perf_counter()
    cfg = InterferometerConfig.from_nm(area_s=16.0, lambda0_nm=1550.0)
    amplitude = 1.3
    period = cfg.lambda0 * SPEED_OF_LIGHT / (4.0 * cfg.area_s)  # one fringe in omega
    omegas = np.linspace(-3.0 * period, 3.0 * period, 5001)
    worst_period = 0.0
    for omega in omegas:
        val = classical_intensity(cfg, amplitude, float(omega))
        assert -1e-12 <= val <= 2.0 * amplitude + 1e-12
        shifted = classical_intensity(cfg, amplitude, float(omega) + period)
        worst_period = max(worst_period, abs(val - shifted))
        assert fringe_shift(cfg, float(omega) + period) - fringe_shift(
            cfg, float(omega)) == pytest.approx(1.0, rel=1e-9)
    assert worst_period < 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(9, f"5001-point scan, bounds hold, periodicity gap {worst_period:.2e}",
            elapsed)
