"""Rate sweeps: symmetry, sensitivity extraction, benchmark configurations."""

import math
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

import wvsagnac.spectral as spectral
from wvsagnac import (ModelSpec, SelectionConfig, SpectrumModel, SweepResult,
                      SweepRow, benchmark_models, default_grid, default_window,
                      output_spectrum, run_sweep, sensitivity, weak_value)
from wvsagnac.sweep import spectrum_at

PROBE = SpectrumModel(i0=1.0, lambda0=1550.0, width_dlambda=10.0)
PHI_PER_OMEGA_S16 = 8.0 * math.pi * 16.0 / (1550e-9 * 299792458.0)


def closed_form_k(area_s, alpha, beta, lambda0, dlambda):
    """Sensitivity from the chained first-order formulas, nm per rad/s."""
    slope_phi = 0.5 * math.sin(2.0 * (alpha + beta)) * math.sin(2.0 * alpha) \
        / math.sin(beta) ** 2
    dphi_domega = 8.0 * math.pi * area_s / ((lambda0 * 1e-9) * 299792458.0)
    return (4.0 * math.pi * dlambda ** 2 / lambda0) * abs(slope_phi) * dphi_domega


def _model(area_s=16.0, alpha=0.1, beta=-0.3, omega_range=(-0.1, 0.1, 201)):
    return ModelSpec(name="test", area_s=area_s, alpha=alpha, beta=beta,
                     probe=PROBE, omega_range=omega_range)


def _synthetic_result(omegas, shifts):
    rows = tuple(SweepRow(omega=float(o), phi=0.0, im_aw=0.0,
                          dlambda_analytic=float(s), dlambda_fitted=float(s),
                          postselect_prob=0.5)
                 for o, s in zip(omegas, shifts))
    return SweepResult(rows=rows, k_analytic=0.0, k_fitted=0.0,
                       k_window=(min(omegas), max(omegas)), form="exact")


# ── benchmark configurations ──────────────────────────────────────────────────

def test_benchmark_models_parameters():
    models = {m.name: m for m in benchmark_models(1550.0, 10.0)}
    assert (models["model1"].area_s, models["model1"].alpha,
            models["model1"].beta) == (16.0, 0.1, -0.5)
    assert (models["model4"].area_s, models["model4"].alpha,
            models["model4"].beta) == (3.0, 0.1, -0.1)
    m1, m2 = models["model1"], models["model2"]
    assert (m1.area_s, m1.alpha, m1.probe) == (m2.area_s, m2.alpha, m2.probe)
    assert m1.beta != m2.beta
    m3 = models["model3"]
    assert (m3.area_s, m3.alpha, m3.beta) == (16.0, 0.1, -0.1)
    for m in models.values():  # unit peak, 201 rates over +/-0.1 rad/s
        assert m.probe == PROBE
        assert m.omega_range == (-0.1, 0.1, 201)


def test_model_spec_validation():
    with pytest.raises(ValueError):
        _model(area_s=-1.0)
    with pytest.raises(ValueError):
        _model(omega_range=(0.1, -0.1, 201))
    with pytest.raises(ValueError):
        _model(omega_range=(-0.1, 0.1, 2))


# ── sweep content ─────────────────────────────────────────────────────────────

def test_row_depends_only_on_its_own_rate():
    """Rates two sweeps share give identical rows, whatever else is swept."""
    model = benchmark_models(1550.0, 10.0)[1]
    coarse, fine = (run_sweep(replace(model, omega_range=(-0.1, 0.1, steps)))
                    for steps in (5, 9))
    fine_rows = {r.omega: r for r in fine.rows}
    shared = [r for r in coarse.rows if r.omega in fine_rows]
    assert len(shared) == 5
    for row in shared:
        assert repr(row) == repr(fine_rows[row.omega])


def test_spectrum_at_is_output_spectrum_on_the_default_grid_bit_for_bit():
    for probe in (PROBE, SpectrumModel(i0=3.7, lambda0=1310.0, width_dlambda=6.0)):
        grid = default_grid(probe)
        for phi in (-0.02, 0.0, 0.013):
            for form in ("exact", "paper"):
                wv, spec = spectrum_at(probe, 0.1, -0.3, phi, form)
                want = output_spectrum(probe, wv, probe.lambda0, grid, form)
                assert spec.intensities.tobytes() == want.intensities.tobytes()
                assert spec.wavelengths.tobytes() == grid.tobytes()
                assert spec.form_tag == form
    wide = SpectrumModel(i0=1.0, lambda0=100.0, width_dlambda=40.0)
    wv = weak_value(SelectionConfig(0.1, -0.3, 0.0))
    with pytest.raises(ValueError, match="strictly positive"):
        output_spectrum(wide, wv, wide.lambda0, default_grid(wide))
    with pytest.raises(ValueError, match="strictly positive"):
        spectrum_at(wide, 0.1, -0.3, 0.0)


def test_spectrum_basis_is_read_only_and_bounded():
    spec = spectrum_at(PROBE, 0.1, -0.3, 0.0)[1]
    basis = spectral._default_basis(PROBE.lambda0, PROBE.width_dlambda)
    assert len(basis) == 4
    assert not any(arr.flags.writeable for arr in basis)
    assert spec.wavelengths is basis[0]
    with pytest.raises(ValueError):
        spec.wavelengths[0] = 0.0
    maxsize = spectral._default_basis.cache_info().maxsize
    assert maxsize <= 16
    for k in range(2 * maxsize):
        spectrum_at(replace(PROBE, lambda0=1500.0 + k), 0.1, -0.3, 0.0)
    assert spectral._default_basis.cache_info().currsize == maxsize


def test_zero_rotation_row_is_exactly_zero():
    res = run_sweep(_model(omega_range=(-0.02, 0.02, 5)))
    mid = res.rows[2]
    assert mid.omega == 0.0
    assert mid.dlambda_analytic == 0.0
    assert mid.dlambda_fitted == 0.0


def test_analytic_column_odd_in_omega():
    res = run_sweep(_model(omega_range=(-0.1, 0.1, 41)))
    rows = res.rows
    for a, b in zip(rows, reversed(rows)):
        assert a.dlambda_analytic == pytest.approx(-b.dlambda_analytic,
                                                   abs=1e-12)


def test_fitted_column_odd_in_omega_small_signal():
    # the full-spectrum route is odd only up to terms quadratic in Im(A_w)
    # and the p(lambda) curvature, so pin the small-signal regime
    res = run_sweep(_model(omega_range=(-0.001, 0.001, 21)))
    rows = res.rows
    assert max(abs(r.im_aw) for r in rows) < 5e-4
    for a, b in zip(rows, reversed(rows)):
        assert a.dlambda_fitted == pytest.approx(-b.dlambda_fitted, abs=1e-9)


def test_degenerate_selection_is_flagged_and_shiftless():
    model = ModelSpec(name="model3", area_s=16.0, alpha=0.1, beta=-0.1,
                      probe=PROBE, omega_range=(-0.03, 0.03, 21))
    res = run_sweep(model)
    assert any("identically zero" in w for w in res.warnings)
    for row in res.rows:
        assert row.im_aw == 0.0
        assert row.dlambda_analytic == 0.0
    assert res.k_analytic == pytest.approx(0.0, abs=1e-15)


def test_near_orthogonal_row_is_isolated():
    # at beta = -2*alpha the two amplitudes are equal, so the overlap
    # vanishes when the differential phase reaches pi
    rate = 8.0 * math.pi * 16.0 / (1550e-9 * 299792458.0)
    omega_star = math.pi / rate
    model = _model(beta=-0.2, omega_range=(omega_star - 0.01, omega_star + 0.01, 3))
    res = run_sweep(model)
    assert res.rows[1].failed and "orthogonal" in res.rows[1].note
    assert math.isnan(res.rows[1].dlambda_fitted)
    assert not res.rows[0].failed and not res.rows[2].failed


def test_postselect_probability_column():
    res = run_sweep(_model(omega_range=(-0.02, 0.02, 9)))
    for row in res.rows:
        assert 0.0 <= row.postselect_prob <= 1.0
        # at this selection the rest probability is sin^2(beta)
        assert row.postselect_prob == pytest.approx(math.sin(0.3) ** 2, rel=1e-3)


def test_result_is_frozen():
    res = _synthetic_result(np.linspace(-1.0, 1.0, 5), np.zeros(5))
    with pytest.raises(FrozenInstanceError):
        res.k_analytic = 1.0
    with pytest.raises(FrozenInstanceError):
        res.k_window = (0.0, 1.0)
    # frozen all the way down: rows and warnings are tuples, so it hashes
    swept = run_sweep(_model(beta=-0.1, omega_range=(-0.02, 0.02, 5)))
    assert swept.warnings and not hasattr(swept.warnings, "append")
    assert not hasattr(swept.rows, "append")
    assert hash(swept) == hash(run_sweep(_model(beta=-0.1,
                                                omega_range=(-0.02, 0.02, 5))))


def test_rows_sorted_validation():
    rows = [SweepRow(1.0, 0, 0, 0, 0, 0.5), SweepRow(-1.0, 0, 0, 0, 0, 0.5)]
    with pytest.raises(ValueError):
        SweepResult(rows=rows, k_analytic=0, k_fitted=0, k_window=(-1, 1),
                    form="exact")


# ── sensitivity ───────────────────────────────────────────────────────────────

def test_sensitivity_on_perfectly_linear_rows():
    omegas = np.linspace(-1.0, 1.0, 11)
    res = _synthetic_result(omegas, 7.0 * omegas)
    k = sensitivity(res, (-1.0, 1.0))
    assert k.k_analytic == pytest.approx(7.0, rel=1e-12)
    assert k.k_fitted == pytest.approx(7.0, rel=1e-12)


def test_sensitivity_on_zero_rows():
    omegas = np.linspace(-1.0, 1.0, 11)
    k = sensitivity(_synthetic_result(omegas, np.zeros(11)), (-1.0, 1.0))
    assert k.k_analytic == 0.0 and k.k_fitted == 0.0


def test_sensitivity_window_preconditions():
    omegas = np.linspace(-1.0, 1.0, 11)
    res = _synthetic_result(omegas, 7.0 * omegas)
    with pytest.raises(ValueError):
        sensitivity(res, (0.0, 0.05))  # only one row inside
    with pytest.raises(ValueError):
        sensitivity(res, (1.0, -1.0))


def test_default_window_is_central_fifth():
    assert default_window((-0.1, 0.1, 201)) == pytest.approx((-0.02, 0.02))
    assert default_window((0.0, 1.0, 11)) == pytest.approx((0.4, 0.6))


def test_explicit_window_is_used_and_an_unusable_one_raises():
    model = _model(omega_range=(-0.1, 0.1, 5))
    # the default window holds one row: k is NaN and a warning says why
    default = run_sweep(model)
    assert math.isnan(default.k_fitted)
    assert default.warnings == ("sensitivity window unusable: need at least 3 "
                                "usable rows inside the window, got 1",)
    res = run_sweep(model, window=(-0.1, 0.1))
    assert res.k_window == (-0.1, 0.1) and res.warnings == ()
    k = sensitivity(res, (-0.1, 0.1))
    assert (res.k_analytic, res.k_fitted) == (k.k_analytic, k.k_fitted)
    with pytest.raises(ValueError, match="at least 3 usable rows"):
        run_sweep(model, window=(0.0, 0.01))
    with pytest.raises(ValueError, match="lo < hi"):
        run_sweep(model, window=(0.05, -0.05))


def test_windowed_slope_matches_closed_form_chain():
    """k from the sweep agrees with the chained analytic slope to 0.1%."""
    res = run_sweep(_model(omega_range=(-0.1, 0.1, 201)))
    expected = closed_form_k(16.0, 0.1, -0.3, 1550.0, 10.0)
    assert res.k_analytic == pytest.approx(expected, rel=1e-3)


def test_k_scales_linearly_with_area():
    k16 = run_sweep(_model(area_s=16.0)).k_analytic
    k8 = run_sweep(_model(area_s=8.0)).k_analytic
    assert k16 / k8 == pytest.approx(2.0, rel=0.005)


def test_fitted_tracks_analytic_in_linear_regime():
    res = run_sweep(_model(omega_range=(-0.1, 0.1, 201)))
    checked = 0
    for row in res.rows:
        if row.failed or abs(row.im_aw) > 0.01:
            continue
        checked += 1
        if abs(row.dlambda_analytic) < 1e-3:
            assert abs(row.dlambda_fitted - row.dlambda_analytic) <= 1e-4
        else:
            assert abs(row.dlambda_fitted - row.dlambda_analytic) <= \
                0.05 * abs(row.dlambda_analytic)
    assert checked >= 50


def test_amplification_grows_as_selection_closes():
    # smaller |beta| gives the larger small-signal slope: model2 beats model1
    k_03 = run_sweep(_model(beta=-0.3)).k_analytic
    k_05 = run_sweep(_model(beta=-0.5)).k_analytic
    assert k_03 > k_05
