"""Spectra and fitting: input model, output forms, center extraction."""

import math

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import wvsagnac.spectral as spectral
from wvsagnac import (DegenerateInput, FitFailure, InterferometerConfig,
                      NearOrthogonalSelection, SampledSpectrum, SelectionConfig,
                      SpectrumModel, analytic_wavelength_shift, centroid,
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
    with pytest.raises(ValueError):
        SampledSpectrum(np.array([2.0, 1.0]), np.array([1.0, 1.0]), "exact")
    with pytest.raises(ValueError):
        SampledSpectrum(np.array([1.0, 2.0]), np.array([1.0, -1.0]), "exact")
    with pytest.raises(ValueError):
        SampledSpectrum(np.array([1.0, 2.0]), np.array([1.0]), "exact")
    with pytest.raises(ValueError):
        SampledSpectrum(np.array([1.0, 2.0]), np.array([1.0, 1.0]), "other")


# ── centroid ──────────────────────────────────────────────────────────────────

def test_centroid_symmetric_spectrum():
    grid = default_grid(PROBE)
    spec = SampledSpectrum(grid, intensity_envelope(PROBE, grid), "exact")
    assert centroid(spec) == pytest.approx(1550.0, abs=1e-9)


def test_centroid_two_equal_bins():
    lam = np.linspace(1540.0, 1560.0, 41)  # 0.5 nm spacing; 1549 and 1551 on grid
    inten = np.zeros_like(lam)
    inten[np.argmin(np.abs(lam - 1549.0))] = 3.0
    inten[np.argmin(np.abs(lam - 1551.0))] = 3.0
    assert centroid(SampledSpectrum(lam, inten, "exact")) == pytest.approx(
        1550.0, abs=1e-12)


def test_centroid_single_bin():
    lam = np.linspace(1540.0, 1560.0, 41)
    inten = np.zeros_like(lam)
    inten[7] = 2.0
    assert centroid(SampledSpectrum(lam, inten, "exact")) == pytest.approx(
        float(lam[7]), abs=1e-12)


def test_centroid_zero_intensity_raises():
    lam = np.linspace(1540.0, 1560.0, 41)
    with pytest.raises(DegenerateInput):
        centroid(SampledSpectrum(lam, np.zeros_like(lam), "exact"))


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
