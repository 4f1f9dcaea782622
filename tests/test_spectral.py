"""Spectra and fitting: input model, output forms, center extraction."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import wvsagnac.spectral as spectral
from wvsagnac import (DegenerateInput, FitFailure, InterferometerConfig,
                      NearOrthogonalSelection, SampledSpectrum, SelectionConfig,
                      SpectrumModel, analytic_wavelength_shift, benchmark_models,
                      default_grid, fit_center, intensity_envelope,
                      modulation_factor, output_spectrum, sagnac_phase,
                      weak_value)

PROBE = SpectrumModel(i0=1.0, lambda0=1550.0, width_dlambda=10.0)
CFG = InterferometerConfig.from_nm(area_s=16.0, lambda0_nm=1550.0)
G = 1550.0  # coupling length, nm


def _wv(alpha, beta, phi):
    return weak_value(SelectionConfig(alpha, beta, phi))


def _random_weak_value(rng, overlap_floor=1e-3):
    while True:
        alpha, beta = rng.uniform(-1.4, 1.4, 2)
        phi = rng.uniform(-0.5, 0.5)
        sel = SelectionConfig(float(alpha), float(beta), float(phi))
        res = weak_value(sel)
        if res.postselect_prob > overlap_floor:
            return res


# ── input model ───────────────────────────────────────────────────────────────

def test_envelope_peak_and_standard_deviation():
    assert intensity_envelope(PROBE, 1550.0) == 1.0
    # one standard deviation out: exp(-1/2)
    assert intensity_envelope(PROBE, 1560.0) == pytest.approx(
        math.exp(-0.5), rel=1e-14)
    # quadrature check that the intensity std is width_dlambda
    lam = np.linspace(1550.0 - 80.0, 1550.0 + 80.0, 20001)
    env = intensity_envelope(PROBE, lam)
    var = np.trapezoid(env * (lam - 1550.0) ** 2, lam) / np.trapezoid(env, lam)
    assert math.sqrt(var) == pytest.approx(10.0, rel=1e-9)


def test_probe_validation():
    with pytest.raises(ValueError):
        SpectrumModel(i0=0.0, lambda0=1550.0, width_dlambda=10.0)
    with pytest.raises(ValueError):
        SpectrumModel(i0=1.0, lambda0=-1.0, width_dlambda=10.0)
    with pytest.raises(ValueError):
        SpectrumModel(i0=1.0, lambda0=1550.0, width_dlambda=2000.0)


# ── output spectrum ───────────────────────────────────────────────────────────

def test_output_nonnegative_both_forms():
    rng = np.random.default_rng(23)
    grid = default_grid(PROBE)
    for _ in range(25):
        res = _random_weak_value(rng)
        for form in ("paper", "exact"):
            spec = output_spectrum(PROBE, res, G, grid, form)
            assert np.all(spec.intensities >= 0.0)


def test_output_scale_equivariant_in_peak_intensity():
    res = _wv(0.1, -0.3, 0.02)
    grid = default_grid(PROBE)
    base = output_spectrum(PROBE, res, G, grid)
    scaled_probe = SpectrumModel(i0=7.5, lambda0=1550.0, width_dlambda=10.0)
    scaled = output_spectrum(scaled_probe, res, G, grid)
    assert np.allclose(scaled.intensities, 7.5 * base.intensities, rtol=1e-14)
    assert fit_center(scaled).center == pytest.approx(fit_center(base).center,
                                                      abs=1e-10)


def test_exact_form_matches_complex_modulus_oracle():
    """The exact form equals |m e^{-i pg} + n e^{i pg}|^2 times the envelope."""
    rng = np.random.default_rng(29)
    grid = default_grid(PROBE)
    pg = 2.0 * math.pi * G / grid
    env = intensity_envelope(PROBE, grid)
    for _ in range(25):
        res = _random_weak_value(rng)
        oracle = np.abs(res.m * np.exp(-1j * pg) + res.n * np.exp(1j * pg)) ** 2 * env
        spec = output_spectrum(PROBE, res, G, grid, "exact")
        scale = spec.intensities.max()
        assert np.max(np.abs(spec.intensities - oracle)) <= 1e-9 * scale


def test_exact_minus_paper_is_the_dropped_term():
    rng = np.random.default_rng(31)
    grid = default_grid(PROBE)
    pg = 2.0 * math.pi * G / grid
    env = intensity_envelope(PROBE, grid)
    for _ in range(25):
        res = _random_weak_value(rng)
        exact = output_spectrum(PROBE, res, G, grid, "exact").intensities
        paper = output_spectrum(PROBE, res, G, grid, "paper").intensities
        dropped = (res.postselect_prob * res.a_w.real ** 2
                   * np.sin(pg) ** 2 * env)
        diff = exact - paper
        assert np.all(diff >= -1e-12 * exact.max())
        assert np.max(np.abs(diff - dropped)) <= 1e-12 * exact.max()


def test_paper_form_close_to_exact_when_premise_holds():
    """Small real weak value: per-point relative gap stays below 2e-3."""
    res = _wv(0.1, -0.201, 0.01)
    grid = default_grid(PROBE)
    window = np.abs(grid - 1550.0) <= 2.5 * 10.0
    pg = 2.0 * math.pi * G / grid[window]
    assert np.max(np.abs(res.a_w.real * np.sin(pg))) <= 1e-3  # premise
    exact = output_spectrum(PROBE, res, G, grid, "exact").intensities[window]
    paper = output_spectrum(PROBE, res, G, grid, "paper").intensities[window]
    assert np.max(np.abs(exact - paper) / paper) <= 2e-3


def test_zero_coupling_limit_is_pure_probability_scaling():
    res = _wv(0.2, -0.45, 0.3)
    pg = np.zeros(64)
    for form in ("paper", "exact"):
        mod = modulation_factor(pg, res, form)
        assert np.allclose(mod, res.postselect_prob, rtol=1e-15)


def test_output_validation():
    res = _wv(0.1, -0.3, 0.0)
    with pytest.raises(ValueError):
        output_spectrum(PROBE, res, G, np.array([]))
    with pytest.raises(ValueError):
        output_spectrum(PROBE, res, G, np.array([-1.0, 1550.0]))
    with pytest.raises(ValueError):
        output_spectrum(PROBE, res, 0.0, default_grid(PROBE))
    with pytest.raises(ValueError):
        output_spectrum(PROBE, res, G, default_grid(PROBE), form="bogus")


def test_sampled_spectrum_validation():
    # a step down, a repeated point and a NaN anywhere get the same message
    message = "^wavelength grid must be strictly increasing$"
    for lam in ([2.0, 1.0, 3.0], [1.0, 1.0, 2.0], [1.0, math.nan, 2.0],
                [math.nan, 1.0, 2.0], [1.0, 2.0, math.nan]):
        with pytest.raises(ValueError, match=message):
            SampledSpectrum(np.array(lam), np.ones(3), "exact")
    with pytest.raises(ValueError):
        SampledSpectrum(np.array([1.0, 2.0]), np.array([1.0, -1.0]), "exact")
    with pytest.raises(ValueError):
        SampledSpectrum(np.array([1.0, 2.0]), np.array([1.0]), "exact")
    with pytest.raises(ValueError):
        SampledSpectrum(np.array([1.0, 2.0]), np.array([1.0, 1.0]), "other")


# ── fitting ───────────────────────────────────────────────────────────────────

def test_fit_recovers_its_own_model():
    lam = np.linspace(1510.0, 1590.0, 512)
    spec = SampledSpectrum(lam, 2.5 * np.exp(-((lam - 1550.0) / 9.0) ** 2), "exact")
    fit = fit_center(spec)
    assert fit.peak == pytest.approx(2.5, rel=1e-10)
    assert fit.center == pytest.approx(1550.0, rel=1e-10)
    assert fit.width == pytest.approx(9.0, rel=1e-10)
    assert fit.residual_norm < 1e-12


def test_fit_translation_covariance():
    lam = np.linspace(1510.0, 1590.0, 512)
    spec = SampledSpectrum(lam, np.exp(-((lam - 1550.5) / 10.0) ** 2), "exact")
    assert fit_center(spec).center == pytest.approx(1550.5, rel=1e-10)


def test_fit_exact_on_coarse_grids():
    rng = np.random.default_rng(37)
    for points in (64, 128, 1024):
        center = 1550.0 + float(rng.uniform(-0.5, 0.5))
        width = float(rng.uniform(6.0, 14.0))
        peak = float(rng.uniform(0.5, 4.0))
        lam = np.linspace(center - 4 * width, center + 4 * width, points)
        spec = SampledSpectrum(lam, peak * np.exp(-((lam - center) / width) ** 2),
                               "exact")
        fit = fit_center(spec)
        assert fit.center == pytest.approx(center, rel=1e-10), f"{points} points"
        assert fit.width == pytest.approx(width, rel=1e-10)
        assert fit.peak == pytest.approx(peak, rel=1e-10)


@settings(max_examples=30, deadline=None)
@given(alpha=st.floats(0.05, 0.3), beta=st.floats(-0.6, -0.1),
       phi=st.floats(-0.05, 0.05), form=st.sampled_from(["exact", "paper"]))
def test_fits_are_mirror_symmetric(alpha, beta, phi, form):
    """The mirror image of a spectrum about lambda0 fits to the mirrored center."""
    grid = default_grid(PROBE)  # exactly symmetric about lambda0
    try:
        spec = output_spectrum(PROBE, _wv(alpha, beta, phi), G, grid, form)
    except NearOrthogonalSelection:
        reject()
    mirror = SampledSpectrum(grid, spec.intensities[::-1], form)
    offset = fit_center(spec).center - PROBE.lambda0
    mirror_offset = fit_center(mirror).center - PROBE.lambda0
    assert abs(offset + mirror_offset) <= 1e-9


def test_fitted_shift_matches_first_order_formula():
    """Full pipeline against the analytic shift in the linear regime."""
    grid = default_grid(PROBE)
    ref = fit_center(output_spectrum(PROBE, _wv(0.1, -0.3, 0.0), G, grid)).center
    # rotation rate chosen so Im(A_w) is close to 0.01
    phi = sagnac_phase(CFG, 0.0261)
    res = _wv(0.1, -0.3, phi)
    assert abs(res.a_w.imag - 0.01) < 3e-4
    fitted = fit_center(output_spectrum(PROBE, res, G, grid)).center - ref
    analytic = analytic_wavelength_shift(PROBE, res.a_w)
    assert fitted == pytest.approx(analytic, rel=0.05)
    assert analytic == pytest.approx(-0.0081, abs=3e-4)


def test_zero_rotation_center_stays_put():
    grid = default_grid(PROBE)
    spec = output_spectrum(PROBE, _wv(0.1, -0.3, 0.0), G, grid)
    assert abs(fit_center(spec).center - 1550.0) < 1e-3 * 10.0


def test_fit_rejects_degenerate_input():
    lam = np.linspace(1540.0, 1560.0, 64)
    with pytest.raises(DegenerateInput):
        fit_center(SampledSpectrum(lam, np.zeros_like(lam), "exact"))
    sparse = np.zeros_like(lam)
    sparse[10:20] = 1.0  # only 10 nonzero samples
    with pytest.raises(ValueError):
        fit_center(SampledSpectrum(lam, sparse, "exact"))


def test_fit_failure_carries_residual(monkeypatch):
    monkeypatch.setattr(spectral, "FIT_MAX_ITERATIONS", 1)
    grid = default_grid(PROBE)
    spec = output_spectrum(PROBE, _wv(0.1, -0.3, 0.05), G, grid)
    with pytest.raises(FitFailure) as err:
        fit_center(spec)
    assert err.value.iterations == 1
    assert err.value.residual_norm is not None


# Fits recorded before the Gauss-Newton loop moved to a closed-form Cholesky
# solve on reused Jacobian buffers: [model, form, omega, center, width, peak,
# iterations] for the four benchmark models at five rates and [seed, points,
# noise, center, width, peak, iterations] for noisy synthetic spectra (which
# converge linearly, so their counts notice a change in the summation order
# of the gradient). Centers, widths and peaks are those of the rounding-floor
# stop rule; the iteration counts are those of the error-estimate stop.
# [FIT_MAX_ITERATIONS, type, message, iterations, residual_norm] of the
# failure under small iteration caps: caps 1-2 on the model2 spectrum at
# 0.05 rad/s (which converges from cap 3 on) and, prefixed by the spectrum's
# [seed, points, noise], caps 3-5 on a noisy spectrum that needs 28.
RECORDED = json.loads((Path(__file__).parent / "recorded_fits.json").read_text())


def _noisy_spectrum(seed, points, noise):
    rng = np.random.default_rng(seed)
    lam = np.linspace(1500.0, 1600.0, points)
    clean = 2.0 * np.exp(-((lam - 1551.3) / 11.0) ** 2)
    return SampledSpectrum(lam, np.abs(clean + rng.normal(0.0, noise, points)),
                           "exact")


def _model_spectrum(name, form, omega):
    m, = [m for m in benchmark_models(1550.0, 10.0) if m.name == name]
    cfg = InterferometerConfig.from_nm(m.area_s, 1550.0)
    return output_spectrum(m.probe, _wv(m.alpha, m.beta, sagnac_phase(cfg, omega)),
                           G, default_grid(m.probe), form)


def _assert_matches_record(fit, center, width, peak, iterations):
    assert fit.iterations == iterations
    assert abs(fit.center - float.fromhex(center)) <= 1e-10
    assert abs(fit.width - float.fromhex(width)) <= 1e-10
    assert fit.peak == pytest.approx(float.fromhex(peak), rel=1e-10)


def test_fit_matches_recorded_parent_fits(monkeypatch):
    """Same iterations, centers and widths within 1e-10 nm, and the same
    FitFailure under a small iteration cap."""
    for name, form, omega, *record in RECORDED["model_fits"]:
        _assert_matches_record(fit_center(_model_spectrum(name, form, omega)), *record)
    for seed, points, noise, *record in RECORDED["noisy_fits"]:
        _assert_matches_record(fit_center(_noisy_spectrum(seed, points, noise)),
                               *record)

    def assert_failure(spec, cap, kind, message, iterations, residual_norm):
        monkeypatch.setattr(spectral, "FIT_MAX_ITERATIONS", cap)
        with pytest.raises(FitFailure) as err:
            fit_center(spec)
        assert type(err.value).__name__ == kind
        assert str(err.value) == message
        assert err.value.iterations == iterations
        assert err.value.residual_norm == pytest.approx(
            float.fromhex(residual_norm), rel=1e-12, abs=0.0)

    spec = _model_spectrum("model2", "exact", 0.05)
    for record in RECORDED["failures"]:
        assert_failure(spec, *record)
    records = {tuple(r[:3]): r[3:] for r in RECORDED["model_fits"]}
    center, width, _, _ = records[("model2", "exact", 0.05)]
    for cap in (3, 4, 5):
        monkeypatch.setattr(spectral, "FIT_MAX_ITERATIONS", cap)
        fit = fit_center(spec)
        assert abs(fit.center - float.fromhex(center)) <= 1e-10
        assert abs(fit.width - float.fromhex(width)) <= 1e-10
    for seed, points, noise, *record in RECORDED["noisy_failures"]:
        assert_failure(_noisy_spectrum(seed, points, noise), *record)


def test_fit_stops_once_the_estimated_error_is_negligible():
    """The error-estimate stop ends a benchmark-model fit within 3 iterations
    and still fits an exact Gaussian to the last bit of its center."""
    for name, form, omega, *_ in RECORDED["model_fits"]:
        assert fit_center(_model_spectrum(name, form, omega)).iterations <= 3
    for center, width in ((1550.0, 10.0), (1551.3, 3.0), (1520.0, 25.0)):
        lam = np.linspace(center - 4 * width, center + 4 * width, 2048)
        fit = fit_center(SampledSpectrum(lam, np.exp(-((lam - center) / width) ** 2),
                                         "exact"))
        assert fit.center == center
        assert fit.iterations <= 5


def test_growing_steps_do_not_stop_the_fit():
    """On a flat pedestal the moment start is poor and the first accepted
    steps grow; the error estimate must not fire on them. Centers and widths
    recorded under the rounding-floor stop rule."""
    lam = np.linspace(1500.0, 1600.0, 1024)
    for center, width, fitted_center, fitted_width in (
            (1551.3, 11.0, "0x1.83d333290247ep+10", "0x1.9afef88c35d4cp+3"),
            (1547.0, 6.0, "0x1.82c0000000000p+10", "0x1.c05cc56ccddb7p+2")):
        spec = SampledSpectrum(lam, np.exp(-((lam - center) / width) ** 2) + 0.1,
                               "exact")
        fit = fit_center(spec)
        assert abs(fit.center - float.fromhex(fitted_center)) <= 1e-10
        assert abs(fit.width - float.fromhex(fitted_width)) <= 1e-10


# ── closed-form normal equations ──────────────────────────────────────────────

def test_cholesky_solve_matches_linalg_solve():
    rng = np.random.default_rng(41)
    for _ in range(500):
        jac = rng.normal(size=(3, 40)) * 10.0 ** rng.uniform(-3.0, 3.0, (3, 1))
        a = jac @ jac.T
        a[np.diag_indices(3)] *= 1.0 + 10.0 ** rng.uniform(-15.0, 2.0)  # damping
        b = rng.normal(size=3)
        x = np.array(spectral._cholesky_solve(a.tolist(), b.tolist()))
        want = np.linalg.solve(a, b)
        assert np.max(np.abs(x - want)) <= 1e-12 * np.max(np.abs(want))


def test_cholesky_solve_refuses_non_positive_pivots():
    b = [1.0, 2.0, 3.0]
    singular = [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [3.0, 6.0, 9.0]]
    indefinite = [[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0]]
    zero_first = [[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    last_pivot_zero = [[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 1.0]]
    nan = [[math.nan, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    for a in (singular, indefinite, zero_first, last_pivot_zero, nan):
        assert spectral._cholesky_solve(a, b) is None


def test_refused_solve_raises_damping_and_retries(monkeypatch):
    """A non-positive pivot costs one iteration and retries with the damping
    raised 10x on the same normal matrix."""
    spec = output_spectrum(PROBE, _wv(0.1, -0.3, 0.05), G, default_grid(PROBE))
    clean = fit_center(spec)
    solve = spectral._cholesky_solve
    seen = []

    def refuse_first(a, b):
        seen.append(([row[:] for row in a], list(b)))
        return None if len(seen) == 1 else solve(a, b)

    monkeypatch.setattr(spectral, "_cholesky_solve", refuse_first)
    fit = fit_center(spec)
    (a1, b1), (a2, b2) = seen[:2]
    assert b2 == b1
    for i in range(3):
        raw = a1[i][i] / (1.0 + 1e-3)  # start damping 1e-3, then 1e-2
        assert a2[i][i] == pytest.approx(raw * (1.0 + 1e-2), rel=1e-14)
        assert [a2[i][j] for j in range(3) if j != i] == \
            [a1[i][j] for j in range(3) if j != i]
    assert fit.iterations >= clean.iterations + 1
    assert abs(fit.center - clean.center) <= 1e-10
