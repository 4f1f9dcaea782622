"""Spectra and fitting: input model, output forms, center extraction."""

import dataclasses
import json
import math
import tracemalloc
from collections import namedtuple
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

import wvsagnac.spectral as spectral
from wvsagnac import (FitFailure, InterferometerConfig, ModelSpec,
                      NearOrthogonalSelection, SampledSpectrum, SelectionConfig,
                      SpectrumModel, WeakValueResult, analytic_wavelength_shift,
                      benchmark_models, default_grid, fit_center,
                      intensity_envelope, modulation_factor, output_spectrum,
                      run_sweep, sagnac_phase, weak_value)

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
    # a width below lambda0 whose 4*pi*width^2 (the analytic shift's factor)
    # overflows; from 1e307 on, the grid's lambda0 + span*width would as well
    for lambda0, width in ((1e160, 3.8e153), (1.7e308, 1e307)):
        with pytest.raises(ValueError, match="width_dlambda = .* too large"):
            SpectrumModel(i0=1.0, lambda0=lambda0, width_dlambda=width)
    SpectrumModel(i0=1.0, lambda0=1e160, width_dlambda=3.7e153)  # accepted


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
    with pytest.raises(ValueError, match="at least 2 grid points"):
        default_grid(PROBE, points=1)
    for span in (0.0, -1.0, math.nan, math.inf):  # 0, -1: a constant, a falling grid
        with pytest.raises(ValueError, match=f"^grid span must be positive and "
                           f"finite, got {span:g}$"):
            default_grid(PROBE, 16, span)
    # a grid and a coupling are refused by name before numpy computes on
    # them, not after a warning: a probe narrower than its grid can resolve
    # collapses the grid to one wavelength, and a 2*pi*g/lambda that
    # overflows would make cos pg NaN
    narrow = SpectrumModel(1.0, 1550.0, 1e-200)
    with pytest.raises(ValueError, match="^wavelength grid must be strictly "
                       "increasing$"):
        output_spectrum(narrow, res, narrow.lambda0, default_grid(narrow))
    with pytest.raises(ValueError, match="^wavelength grid must be 1-d$"):
        output_spectrum(PROBE, res, G, np.array(1550.0))
    for g in (1.7e308, np.float64(1.7e308), math.inf):
        with pytest.raises(ValueError, match="^coupling g must be positive, "
                           r"2\*pi\*g/lambda finite"):
            output_spectrum(PROBE, res, g, default_grid(PROBE))


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
    with pytest.raises(ValueError, match="^spectrum grid is empty$"):
        SampledSpectrum([], [], "exact")


@pytest.mark.parametrize("lam", [[-math.inf, 1500.0, 1600.0],
                                 [1500.0, 1600.0, math.inf], [math.inf]])
def test_a_grid_with_an_infinite_end_is_refused(lam):
    """A grid that is strictly increasing but ends at -inf or +inf is
    refused by name, not at its fit as an overflowing integrated intensity.
    output_spectrum passes +inf as positive, and refuses -inf as not."""
    message = "^wavelength grid must be finite$"
    with pytest.raises(ValueError, match=message):
        SampledSpectrum(np.array(lam), np.ones(len(lam)), "exact")
    if lam[0] < 0:
        message = "^wavelength grid must be strictly positive$"
    with pytest.raises(ValueError, match=message):
        output_spectrum(PROBE, _wv(0.1, -0.3, 0.05), G, np.array(lam))


@pytest.mark.parametrize("probe, span", [
    (PROBE, 1e308),                                 # span * width is inf
    (PROBE, 1e307),                                 # hi - lo is inf
    (SpectrumModel(1.0, 1e160, 3.5e153), 4.0),      # half * half is inf
])
def test_default_grid_rejects_an_overflowing_span(probe, span):
    # warnings are errors in this suite, so a numpy RuntimeWarning fails it
    with pytest.raises(ValueError, match=r"span\*width_dlambda overflows"):
        default_grid(probe, points=3, span=span)


def test_envelope_rejects_an_overflowing_squared_distance():
    """A valid wide probe 5 widths out, where the envelope is exp(-12.5),
    and a valid grid far from the probe: (lam - lambda0)^2 overflows, and
    the refusal names it before numpy warns (warnings are errors here)."""
    message = r"^squared distance \(lam - lambda0\)\^2 of the wavelength grid overflows"
    wide = SpectrumModel(1.0, 1e155, 3.5e153)
    with pytest.raises(ValueError, match=message):
        intensity_envelope(wide, np.array([1e155, 1e155 + 5 * 3.5e153]))
    with pytest.raises(ValueError, match=message):
        output_spectrum(SpectrumModel(1.0, 1550.0, 5.0), _wv(0.1, -0.3, 0.05), G,
                        np.array([1.0, 1e200]))
    assert intensity_envelope(wide, 1e155 + 3 * 3.5e153) == pytest.approx(
        math.exp(-4.5), rel=1e-13)


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
    with pytest.raises(ValueError, match="^cannot fit an all-zero spectrum$"):
        fit_center(SampledSpectrum(lam, np.zeros_like(lam), "exact"))
    sparse = np.zeros_like(lam)
    sparse[10:20] = 1.0  # only 10 nonzero samples
    with pytest.raises(ValueError):
        fit_center(SampledSpectrum(lam, sparse, "exact"))
    # on a grid spaced by the smallest subnormal, each trapezoid of 0.4 rounds
    # to zero, and 0.75 has a positive total but its variance rounds to zero
    tiny = np.arange(1, 65) * 5e-324
    for level, message in ((0.4, "^spectrum has zero total intensity$"),
                           (0.75, "^spectrum is too narrow or too weak")):
        with pytest.raises(ValueError, match=message):
            fit_center(SampledSpectrum(tiny, np.full(tiny.size, level), "exact"))


@pytest.mark.parametrize("scale, quantity", [
    (1e308, "integrated intensity"),               # the total is inf
    (1e306, "wavelength moments"),                 # intensity * lambda is inf
])
def test_fit_names_the_moment_that_overflows(scale, quantity):
    lam = np.linspace(1510.0, 1590.0, 512)
    inten = scale * np.exp(-((lam - 1550.0) / 10.0) ** 2)
    with pytest.raises(ValueError, match=quantity):
        fit_center(SampledSpectrum(lam, inten, "exact"))


@pytest.mark.parametrize("scale, quantity", [
    (1e160, "squared fit residuals"),              # the starting cost is inf
    (1e156, "normal equations"),                   # the cost is not, J^T J is
])
def test_fit_names_the_overflowing_cost_or_normal_equations(scale, quantity):
    lam = np.linspace(1510.0, 1590.0, 512)
    inten = scale * np.exp(-((lam - 1550.0) / 10.0) ** 2)
    with pytest.raises(ValueError, match=quantity):
        fit_center(SampledSpectrum(lam, inten, "exact"))


def test_fit_scales_exactly_with_a_power_of_two_intensity():
    """Large and small finite intensities fit bit for bit like unit ones."""
    spec = output_spectrum(PROBE, _wv(0.1, -0.3, 0.05), G, default_grid(PROBE))
    base = fit_center(spec)
    for k in (-300, -100, 100, 300):
        scaled = fit_center(SampledSpectrum(spec.wavelengths,
                                            spec.intensities * 2.0 ** k, "exact"))
        assert (scaled.center, scaled.width, scaled.iterations) == (
            base.center, base.width, base.iterations)
        assert scaled.peak == base.peak * 2.0 ** k


def test_tiny_intensities_fit_exactly_like_unit_ones():
    """Below 2^-256 the fit scales the spectrum to a unit peak, so squared
    residuals stay out of the subnormal range and the fit stays exact."""
    spectra = [output_spectrum(PROBE, _wv(0.1, beta, phi), G, default_grid(PROBE),
                               form)
               for beta, phi, form in ((-0.3, 0.05, "exact"), (-0.5, -0.08, "paper"))]
    spectra.append(_noisy_spectrum(3, 800, 0.02))
    for spec in spectra:
        base = fit_center(spec)
        for k in (-600, -700, -800, -900):
            inten = spec.intensities * 2.0 ** k
            assert np.array_equal(inten * 2.0 ** -k, spec.intensities)  # exact
            scaled = fit_center(SampledSpectrum(spec.wavelengths, inten, "exact"))
            assert (scaled.center, scaled.width, scaled.residual_norm,
                    scaled.iterations) == (base.center, base.width,
                                           base.residual_norm, base.iterations)
            assert scaled.peak == base.peak * 2.0 ** k


def test_a_fit_window_below_the_smallest_normal_float_is_refused():
    """Samples below 2^-1022 lost significant bits when they were computed,
    which no scaling brings back: a fit window holding one is refused. A
    peak of 2^-1000 keeps every sample normal and fits bit for bit like the
    unit spectrum; the window's smallest sample decides the boundary. A
    sweep of a probe whose i0 is that small refuses its default-grid rows."""
    wv = _wv(0.1, -0.3, 0.05)
    spec = output_spectrum(PROBE, wv, G, default_grid(PROBE))
    base = fit_center(spec)
    lo, hi, *_ = spectral._fit_start(spec)
    low = math.frexp(spec.intensities[lo:hi].min())[1]
    normal, subnormal = -1021 - low, -1022 - low  # the window's least exponent
    assert subnormal < -1000

    inten = spec.intensities * 2.0 ** -1000
    assert np.array_equal(inten * 2.0 ** 1000, spec.intensities)  # exact
    scaled = fit_center(SampledSpectrum(spec.wavelengths, inten, "exact"))
    assert (scaled.center, scaled.width, scaled.residual_norm,
            scaled.iterations) == (base.center, base.width, base.residual_norm,
                                   base.iterations)
    assert scaled.peak == base.peak * 2.0 ** -1000

    lowest = fit_center(SampledSpectrum(spec.wavelengths,
                                        spec.intensities * 2.0 ** normal, "exact"))
    assert lowest.center == pytest.approx(base.center, abs=1e-9)
    inten = spec.intensities * 2.0 ** subnormal
    message = "below the smallest normal float.*probe intensity i0"
    with pytest.raises(ValueError, match=message):
        fit_center(SampledSpectrum(spec.wavelengths, inten, "exact"))
    tiny = dataclasses.replace(PROBE, i0=PROBE.i0 * 2.0 ** subnormal)
    with pytest.raises(ValueError, match=message):
        run_sweep(ModelSpec("tiny", 16.0, 0.1, -0.3, tiny, (-0.1, 0.1, 3)))


def _stack(probe, form, phis):
    rows = [(phi, _wv(0.1, -0.3, phi)) for phi in phis]
    return [spec for _, _, spec in spectral._default_rows(probe, rows, form)]


def _start(spec):
    """_fit_start of a spectrum, or the error it raises."""
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return spectral._fit_start(spec)
    except ValueError as exc:
        return exc


# How far the start of a default-grid row, from its basis's closed-form
# moments, may lie from the start worked out from its samples, relative to
# the center and to sigma: the largest seen over 9000 random probes,
# selections (|Re A_w| up to 30), forms and i0 from 2^-1032 to 2^1019 was
# 5.6e-16 for the center and 4.8e-16 for sigma, about 2.5 units in the last
# place of the center, mostly the rounding of its sum of w * lam * y.
_START_TOL = 2e-15


def _assert_same_start(row, alone, tol=_START_TOL):
    """The row carries the facts of the spectrum built alone, and its fit
    starts the same: the same window and scale and a start (center, sigma)
    within `tol` relative, or an error of the same type and message. Only
    where both centers lie within `tol` of the midpoint of two samples, a
    tie that rounding breaks, may the window snap to the other sample: a
    spectrum that is exactly the probe's envelope (A_w = +-1, exact form)
    is centered on the default grid's middle midpoint."""
    assert (row._peak, row._floor) == (alone._peak, alone._floor)
    assert np.array_equal(row.wavelengths, alone.wavelengths)
    got, want = _start(row), _start(alone)
    if isinstance(got, ValueError) or isinstance(want, ValueError):
        assert repr(got) == repr(want)
        return
    for a, b in zip(got[3:], want[3:]):
        assert abs(a - b) <= tol * abs(b)
    if got[:3] != want[:3]:
        lam = alone.wavelengths
        i, j = (int(np.abs(lam - start[3]).argmin()) for start in (got, want))
        mid = (lam[i] + lam[j]) / 2
        assert abs(i - j) == 1 and got[2] == want[2]
        assert (got[0] - want[0], got[1] - want[1]) == (i - j, i - j)
        assert all(abs(start[3] - mid) <= tol * mid for start in (got, want))


@pytest.mark.parametrize("form", ["exact", "paper"])
def test_stack_rows_fit_like_fresh_spectra(form):
    """A stack row starts its fit from its basis's moments, within
    _START_TOL of the start from its samples, and fits bit for bit like
    the same spectrum built alone."""
    probe = SpectrumModel(i0=2.5, lambda0=1310.0, width_dlambda=6.0)
    rows = _stack(probe, form, np.linspace(-0.09, 0.09, 7))
    grid = _stack(probe, form, [0.0])[0].wavelengths  # another stack's
    assert not grid.flags.writeable and np.array_equal(grid, default_grid(probe))
    for row in rows:
        assert row.wavelengths is grid
        assert not row.intensities.flags.writeable
        with pytest.raises(ValueError):
            row.intensities[0] = 0.0
        fresh = SampledSpectrum(np.array(row.wavelengths),
                                np.array(row.intensities), form)
        _assert_same_start(row, fresh)
        assert repr(fit_center(row)) == repr(fit_center(fresh))
        assert repr(row) == repr(fresh) and row == row
    assert [r.form_tag for r in rows] == [form] * 7


def _planted(overlap):
    """A weak value whose default-grid row is NaN (overlap 0: 0 * inf) or
    +inf (overlap 1) at every sample, from an infinite Re A_w."""
    return WeakValueResult(overlap / 2, overlap / 2, overlap, complex(math.inf, 0.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1e-300])
def test_stack_with_a_bad_row_raises_the_spectrum_message(bad):
    """A spectrum with a NaN, infinite or negative sample is refused. A
    default-grid row can hold only NaN or +inf samples, from a planted weak
    value: a stack refuses it with the same message at its turn, after the
    rows before it, and ends."""
    lam = default_grid(PROBE)
    stack = np.ones((3, lam.size))
    stack[1, 100] = bad
    message = "^intensities must be finite and nonnegative$"
    with pytest.raises(ValueError, match=message):
        SampledSpectrum(lam, stack[1], "exact")
    if bad < 0:  # no default row has a negative sample
        return
    planted = _planted(0.0 if math.isnan(bad) else 1.0)
    wv = _wv(0.1, -0.3, 0.05)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        inten = modulation_factor(2.0 * math.pi * G / lam, planted)
        assert np.array_equal(inten, np.full(lam.size, bad), equal_nan=True)
        rows = spectral._default_rows(PROBE, [(0, wv), (1, planted), (2, wv)],
                                      "exact")  # raises nothing yet
        assert isinstance(next(rows)[2], SampledSpectrum)
        with pytest.raises(ValueError, match=message) as info:
            next(rows)
    assert type(info.value) is ValueError
    assert next(rows, None) is None  # the refused row ends the rows


def test_stack_setup_errors_are_raised_at_their_row(monkeypatch):
    """A spectrum whose fit cannot start raises its error only when it is
    fit, the same error at each fit. So does a default-grid row, after the
    rows before it, with the error of the same spectrum built alone: here
    one whose overlap is so small that its fit window holds subnormal
    samples."""
    lam = np.linspace(1540.0, 1560.0, 64)
    good = np.exp(-((lam - 1550.0) / 4.0) ** 2)
    sparse = np.zeros_like(lam)
    sparse[10:20] = 1.0  # only 10 nonzero samples
    stack = np.array([good, np.zeros_like(lam), good[::-1], sparse, 1e-300 * good])
    spectra = [SampledSpectrum(lam, inten, "exact") for inten in stack]
    wv = _wv(0.1, -0.3, 0.05)
    faint = dataclasses.replace(wv, overlap=wv.overlap * 2.0 ** -520)
    wvs = [wv, faint, _wv(0.1, -0.3, -0.05)]
    rows = [spec for _, _, spec in spectral._default_rows(
        PROBE, enumerate(wvs), "exact")]  # raises nothing
    alone = [output_spectrum(PROBE, w, G, default_grid(PROBE)) for w in wvs]

    def outcome(spec):
        try:
            return repr(fit_center(spec))
        except (ValueError, FitFailure) as exc:
            return f"{type(exc).__name__}: {exc}"

    for row, spec in zip(rows, alone):
        _assert_same_start(row, spec)
    for cap in (1, spectral.FIT_MAX_ITERATIONS):
        monkeypatch.setattr(spectral, "FIT_MAX_ITERATIONS", cap)
        got = [outcome(spec) for spec in spectra]
        assert got[1] == "ValueError: cannot fit an all-zero spectrum"
        assert got[3].startswith("ValueError: need at least 16 grid points")
        assert got[0].startswith("FitFailure" if cap == 1 else "FitResult")
        assert got == [outcome(spec) for spec in spectra]  # again, the same
        got = [outcome(row) for row in rows]
        assert got[1] == outcome(alone[1])
        assert got[1].startswith("ValueError: fit window of the spectrum holds "
                                 "intensities below the smallest normal float")
        assert [g.startswith("FitFailure" if cap == 1 else "FitResult")
                for g in got] == [True, False, True]
        assert got == [outcome(row) for row in rows]  # again, the same


@pytest.mark.parametrize("scale", [1.0, 2.0 ** -900])
def test_window_of_too_few_points_is_refused_when_every_sample_is_positive(scale):
    """A narrow Gaussian on a coarse grid: no sample is zero (the tails are
    about 1e-44), but the +/-2.5 sigma window holds only 11 of them."""
    lam = np.linspace(1540.0, 1560.0, 64)
    inten = scale * np.exp(-((lam - 1550.0) / 1.0) ** 2)
    assert inten.min() > 0
    message = "^fit window holds fewer than 16 nonzero points$"
    with pytest.raises(ValueError, match=message):
        fit_center(SampledSpectrum(lam, inten, "exact"))


def test_a_replaced_spectrum_gets_its_own_setup():
    """dataclasses.replace builds through __init__, so the copy's setup is
    worked out from its own intensities, never kept from its parent."""
    spec = output_spectrum(PROBE, _wv(0.1, -0.3, 0.05), G, default_grid(PROBE))
    fit_center(spec)
    zeroed = dataclasses.replace(spec, intensities=np.zeros_like(spec.intensities))
    with pytest.raises(ValueError, match="all-zero"):
        fit_center(zeroed)
    assert repr(fit_center(dataclasses.replace(spec))) == repr(fit_center(spec))


def _traced_peak(fn):
    """The most memory fn() held at once beyond what was held before it, as
    tracemalloc counts it (numpy reports its arrays' data to tracemalloc)."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


def test_a_fit_and_a_stack_allocate_only_their_buffers():
    """A fit on the default 1277-point window holds at most its start's
    temporaries, freed before the fit proper begins, or one (8, window)
    float64 block, give or take 8 KiB of Python objects: one more row in
    the block, or a second (u, residual) pair, would not fit. The start of
    a stack row, from its basis's moments, allocates no grid-sized array;
    that of a spectrum built directly, with no warm-up, holds one (2, n)
    array, the grid's trapezoid weights made into w*y and w*lam*y in place,
    give or take 4 KiB: a second such array, as a buffered broadcast of the
    weights by the intensities makes, would not fit. An 8-row exact-form
    stack holds the stack, one scratch row and the i0 * unit envelope, give
    or take 16 KiB: one more grid-sized row would not fit."""
    rows = [(k, _wv(0.1, -0.3, 1e-3 * k)) for k in range(8)]

    def stack():
        return list(spectral._default_rows(PROBE, rows, "exact"))

    spec = stack()[3][2]
    n = spec.wavelengths.size
    lo, hi, *_ = spectral._fit_start(spec)
    assert hi - lo == 1277
    fit_center(spec)  # warm: the first call may make lasting objects
    start = _traced_peak(lambda: spectral._fit_start(spec))
    assert start < n * 8
    assert _traced_peak(lambda: fit_center(spec)) <= max(start, 8 * 1277 * 8) + 8192
    alone = SampledSpectrum(spec.wavelengths, spec.intensities, "exact")
    assert _traced_peak(lambda: spectral._fit_start(alone)) <= 2 * n * 8 + 4096
    assert _traced_peak(stack) <= (8 + 2) * n * 8 + 16384


def test_a_spectrum_works_out_its_moments_only_when_it_is_fit():
    """A spectrum built directly holds no moments until its first fit, so
    one that is only written out costs its two arrays, and no spectrum ever
    holds trapezoid weights: a directly built one's moments are its sums
    against the grid's weights, formed at its fit and not kept, and the rows
    of a stack have theirs from the cached basis's sums as they are built."""
    spec = output_spectrum(PROBE, _wv(0.1, -0.3, 0.05), G, default_grid(PROBE))
    assert "_moments" not in vars(spec)
    fit = fit_center(spec)
    w, w_lam = spectral._trapezoid_weights(spec.wavelengths)
    y = spec.intensities
    total = float(np.add.reduce(w * y))
    center = float(np.add.reduce(w_lam * y)) / total
    var = float(np.add.reduce((spec.wavelengths - center) ** 2 * (w * y))) / total
    assert vars(spec)["_moments"] == (1.0, total, center, var)
    row, = _stack(PROBE, "exact", [0.05])
    assert "_moments" in vars(row)  # from the basis, as the row was built
    assert repr(fit_center(row)) == repr(fit) == repr(fit_center(spec))
    assert not hasattr(spec, "_weights") and not hasattr(row, "_weights")


def test_a_spectrum_keeps_its_data_when_the_caller_rewrites_the_buffer():
    """A spectrum holds its own copies, so its setup stays that of its data:
    refilling the caller's arrays, even with negative values, changes
    nothing it reports."""
    lam = np.linspace(1510.0, 1590.0, 512)
    inten = np.exp(-((lam - 1550.0) / 9.0) ** 2)
    spec = SampledSpectrum(lam, inten, "exact")
    want = repr(fit_center(spec))
    inten[:] = np.exp(-((lam - 1580.0) / 9.0) ** 2)  # moved 30 nm
    assert repr(fit_center(spec)) == want
    inten[:] = -1.0
    lam[:] = 0.0
    assert repr(fit_center(spec)) == want
    assert spec.intensities.min() > 0 and spec.wavelengths[0] == 1510.0


def test_spectra_compare_and_hash_by_identity():
    """Comparing or hashing a spectrum raises nothing: it is equal to itself
    alone, so a copy is a different spectrum, and it can key a set."""
    spec = output_spectrum(PROBE, _wv(0.1, -0.3, 0.05), G, default_grid(PROBE))
    row, = _stack(PROBE, "exact", [0.05])
    copy = dataclasses.replace(spec)
    assert spec == spec and row == row
    assert spec != copy and spec != row
    assert {spec, copy, row} == {row, copy, spec} and len({spec, spec}) == 1


def test_every_spectrum_is_read_only():
    lam = np.linspace(1510.0, 1590.0, 512)
    alone = SampledSpectrum(lam, np.exp(-((lam - 1550.0) / 9.0) ** 2), "exact")
    built = output_spectrum(PROBE, _wv(0.1, -0.3, 0.05), G, default_grid(PROBE))
    row, = _stack(PROBE, "exact", [0.05])
    for spec in (alone, built, row):
        for arr in (spec.wavelengths, spec.intensities):
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = -1.0
        copy = dataclasses.replace(spec)
        assert repr(fit_center(copy)) == repr(fit_center(spec))


def test_each_fit_of_a_refused_row_raises_a_fresh_exception():
    """An all-zero spectrum, and a default-grid row of a probe whose i0 is
    too small to fit, raise a new exception at each fit."""
    lam = np.linspace(1540.0, 1560.0, 64)
    zero = SampledSpectrum(lam, np.zeros(lam.size), "exact")
    tiny = dataclasses.replace(PROBE, i0=2.0 ** -1040)
    (_, _, row), = spectral._default_rows(tiny, [(0, _wv(0.1, -0.3, 0.05))], "exact")
    for spec, error, match in ((zero, ValueError, "all-zero"),
                               (row, ValueError, "below the smallest normal float")):
        errors = []
        for _ in range(2):
            with pytest.raises(error, match=match) as info:
                fit_center(spec)
            # a caller's mark (not add_note, which Python 3.10 lacks)
            info.value.seen_by = getattr(info.value, "seen_by", 0) + 1
            errors.append(info.value)
        assert errors[0] is not errors[1]
        assert errors[1].seen_by == 1


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


# ── the fit start against np.trapezoid's moments ─────────────────────────────

# the oracle's record of a row: fit window [lo, hi), scale, peak, start and a
# factory of the fit's error, or None
_Setup = namedtuple("_Setup", "lo hi scale peak center sigma error")


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _trapezoid_fit_setups(lam, stack):
    """The fit setup of each row of a stack as it was worked out before its
    moments became weighted sums: three trapezoids with np.trapezoid's
    formula, the nearest sample by argmin and the window by a mask over the
    whole grid, for every row. The oracle of _fit_start."""
    peaks = np.maximum.reduce(stack, axis=1).tolist()
    floors = np.minimum.reduce(stack, axis=1).tolist()
    scales = [2.0 ** min(-math.frexp(p)[1], 1023)
              if 0 < p < spectral._TINY_PEAK else 1.0 for p in peaks]
    raw = stack
    if any(s != 1.0 for s in scales):
        stack = stack * np.array(scales)[:, None]
    d = np.subtract(lam[1:], lam[:-1])

    def trapezoid(y):  # d * (y[1:] + y[:-1]) / 2.0 of each row, summed
        y = np.add(y[:, 1:], y[:, :-1])
        y *= d
        y *= 0.5
        return np.add.reduce(y, axis=1)

    total = trapezoid(stack)
    center = trapezoid(stack * lam) / total
    dev = lam - center[:, None]
    snap = lam[np.abs(dev).argmin(axis=1)]
    np.square(dev, out=dev)
    dev *= stack
    var = (trapezoid(dev) / total).tolist()
    sigma = [math.sqrt(max(v, 0.0)) for v in var]
    dist = np.subtract(lam, snap[:, None])
    half = np.array([spectral.FIT_WINDOW_SIGMAS * s for s in sigma])[:, None]
    inside = np.abs(dist, out=dist) <= half
    lo = inside.argmax(axis=1).tolist()
    hi = (lam.size - inside[:, ::-1].argmax(axis=1)).tolist()

    setups, least = [], spectral.MIN_FIT_POINTS
    for row, (peak, floor, t, c, v, s, a, b, scale) in enumerate(zip(
            peaks, floors, total.tolist(), center.tolist(), var, sigma,
            lo, hi, scales)):
        if not (floor >= 0 and peak < math.inf):
            setups.append(None)
            continue
        pos = floor > 0
        count = lam.size if pos else np.count_nonzero(stack[row])
        error = None
        if not peak > 0:
            error = partial(ValueError, "cannot fit an all-zero spectrum")
        elif count < least:
            error = partial(ValueError, f"need at least {least} grid points with "
                                        f"nonzero intensity, got {count}")
        elif not math.isfinite(t):
            error = partial(ValueError, "integrated intensity of the spectrum "
                                        "overflows a float")
        elif t <= 0:
            error = partial(ValueError, "spectrum has zero total intensity")
        elif not (math.isfinite(c) and math.isfinite(v)):
            error = partial(ValueError, "intensity-weighted wavelength moments "
                                        "of the spectrum overflow a float")
        elif not s > 0:
            error = partial(ValueError,
                            "spectrum is too narrow or too weak to seed a fit")
        elif (b - a if pos else np.count_nonzero(stack[row, a:b])) < least:
            error = partial(ValueError, f"fit window holds fewer than "
                                        f"{least} nonzero points")
        elif scale != 1.0 and ((raw[row, a:b] > 0)
                               & (raw[row, a:b] < np.finfo(float).tiny)).any():
            error = partial(ValueError, "fit window of the spectrum holds "
                                        "intensities below the smallest normal "
                                        "float, which have lost precision; the "
                                        "probe intensity i0 is too small")
        setups.append(_Setup(a, b, scale, peak, c, s, error))
    return setups


def _setup_grid(kind, n, seed):
    """A strictly increasing wavelength grid of n points, in nm."""
    rng = np.random.default_rng(seed)
    start = rng.uniform(1.0, 3000.0)
    span = rng.uniform(1e-3, 2.0) * 10.0 ** rng.integers(-2, 4)
    if kind == "linspace":
        return np.linspace(start, start + span, n)
    steps = rng.uniform(0.05, 1.0, n) * span / n  # random, strictly increasing
    return start + np.cumsum(steps)


def _setup_row(kind, lam, seed):
    """Gaussian, noisy, zero-run, all-zero and bad-sample rows on `lam`."""
    rng = np.random.default_rng(seed)
    if kind == "zero":
        return np.zeros(lam.size)
    lo, hi = lam[0], lam[-1]
    mid = rng.uniform(lo, hi) if hi > lo else lo
    width = (hi - lo or 1.0) * 10.0 ** rng.uniform(-2.0, 0.5)
    row = rng.uniform(0.1, 1.0) * np.exp(-((lam - mid) / width) ** 2)
    if kind == "noisy":
        row = np.abs(row + rng.normal(0.0, rng.uniform(0.0, 0.3), lam.size))
    elif kind == "zero runs":
        for _ in range(rng.integers(1, 4)):
            start = rng.integers(0, lam.size)
            row[start:start + rng.integers(1, lam.size + 1)] = 0.0
    elif kind == "bad":
        row[rng.integers(0, lam.size)] = rng.choice([math.nan, -1e-3, math.inf])
    return row


def _moments_overflow(lam, stack):
    """Whether a product or sum of the moments may overflow a float, in the
    trapezoid formula or the weighted sums: there the two may refuse a row
    with different messages, or only one of them refuse it."""
    with np.errstate(over="ignore"):
        bound = (np.max(np.abs(stack)) * 4.0 * lam.size * max(1.0, lam[-1] - lam[0])
                 * max(1.0, np.max(np.abs(lam))) ** 2)
    return not math.isfinite(bound)


def _same_start(a, b, slack=0.0):
    """a and b agree within 1e-14 + `slack` relative, or are both NaN."""
    return (math.isnan(a) and math.isnan(b)) or a == b or (
        abs(a - b) <= (1e-14 + slack) * max(abs(a), abs(b)))


# How far sigma may lie from the oracle's beyond 1e-14 relative, in units of
# (spacing(center) / sigma)^2: a variance taken about a center off by d is
# var + d^2, and the two centers can differ by a few units in the last
# place where a narrow spectrum lies far from zero. The largest seen over
# 350,000 rows drawn as this test draws them, two thirds of them on 2048
# point grids spanning less than 0.01 nm, was 8.0: twice that.
_SIGMA_ULPS2 = 16.0


_GRID_SIZES = st.sampled_from([1, 2, 3, 15, 16, 17, 64, 2048])
_ROW_KINDS = st.sampled_from(["gaussian", "noisy", "zero runs", "zero", "bad"])


@settings(max_examples=300, deadline=None)
@given(grid=st.sampled_from(["linspace", "random"]), n=_GRID_SIZES,
       seed=st.integers(0, 2 ** 32 - 1), kinds=st.lists(_ROW_KINDS, min_size=1,
                                                         max_size=3),
       k=st.integers(-1070, 1020))
@example(grid="random", n=2048, seed=12329571, kinds=["zero runs"],
         k=0)  # the centers differ by about an ulp: sigma by 3.4e-14 relative
def test_fit_starts_match_the_trapezoid_oracle(grid, n, seed, kinds, k):
    """Every row of a stack, built as a spectrum, gets the oracle's peak
    and refusal, and at any power-of-two scale its fit starts with the
    oracle's error, or with its window and scale and a center within 1e-14
    relative, and a sigma within that and _SIGMA_ULPS2. Only where a moment
    may overflow may the errors differ; there the window and start, taken
    from those moments, are not compared."""
    lam = _setup_grid(grid, n, seed)
    stack = np.array([_setup_row(kind, lam, seed + i) for i, kind in enumerate(kinds)])
    stack *= 2.0 ** k
    overflow = _moments_overflow(lam, stack)
    for inten, want in zip(stack, _trapezoid_fit_setups(lam, stack)):
        if want is None:
            with pytest.raises(ValueError, match="^intensities must be finite"):
                SampledSpectrum(lam, inten, "exact")
            continue
        spec = SampledSpectrum(lam, inten, "exact")
        assert spec._peak == want.peak
        got, want_error = _start(spec), want.error and want.error()
        if isinstance(got, ValueError) or want_error is not None:
            if not (overflow and "overflow" in f"{got} {want_error}"):
                assert repr(got) == repr(want_error)
        elif not overflow:  # else the windows and starts may differ
            lo, hi, scale, center, sigma = got
            assert (lo, hi, scale) == (want.lo, want.hi, want.scale)
            assert _same_start(center, want.center)
            ulps2 = (np.spacing(want.center) / want.sigma) ** 2
            assert _same_start(sigma, want.sigma, _SIGMA_ULPS2 * ulps2)


# probes as in test_sweep's _PROBES, with i0 times 2^k from 2^-1012 to 2^1020
_SCALED_PROBES = st.builds(
    lambda i0, k, lambda0, share: SpectrumModel(i0 * 2.0 ** k, lambda0,
                                                share * lambda0),
    st.floats(1e-3, 1e3), st.integers(-1002, 1010), st.floats(400.0, 2000.0),
    st.floats(1e-3, 0.24))
# (alpha, beta, phi): anywhere, or beta near -alpha, where |Re A_w| is large
_SELECTION_ANGLES = st.one_of(
    st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5), st.floats(-0.5, 0.5)),
    st.builds(lambda a, off, phi: (a, -a + off, phi), st.floats(-1.5, 1.5),
              st.floats(-0.05, 0.05), st.floats(-0.05, 0.05)))


def _attempt(build):
    """build(), or the ValueError or FitFailure it raises."""
    try:
        return build()
    except (ValueError, FitFailure) as exc:
        return exc


@settings(max_examples=300, deadline=None)
@given(probe=_SCALED_PROBES, angles=_SELECTION_ANGLES,
       form=st.sampled_from(["exact", "paper"]))
@example(probe=SpectrumModel(1.0, 435.0, 54.375), angles=(0.0, 1.0, 0.0),
         form="exact")  # A_w = 1: the envelope, its center on a tie
def test_closed_form_starts_match_the_samples(probe, angles, form):
    """A default-grid row's fit starts from its basis's closed-form moments
    with the window and scale, or the refusal, that the same spectrum built
    by output_spectrum gets from its samples, and with a start within
    _START_TOL; its fitted center lies within 2 FIT_RELATIVE_TOL lambda0 of
    that spectrum's. Only where a moment may overflow (_moments_overflow)
    may the refusals differ."""
    try:
        wv = weak_value(SelectionConfig(*angles))
    except NearOrthogonalSelection:
        reject()
    if abs(wv.a_w.real) > 30.0:
        reject()
    grid = default_grid(probe)
    fresh = _attempt(partial(output_spectrum, probe, wv, probe.lambda0, grid, form))
    row = _attempt(lambda: next(spectral._default_rows(probe, [(0, wv)], form))[2])
    if isinstance(fresh, ValueError):  # a sample is not finite
        assert repr(row) == repr(fresh)
        return
    assert row.intensities.tobytes() == fresh.intensities.tobytes()
    got, want = _start(row), _start(fresh)
    if _moments_overflow(grid, fresh.intensities[None, :]) and any(
            isinstance(s, ValueError) and "overflow" in str(s) for s in (got, want)):
        return
    _assert_same_start(row, fresh)
    fit, fit_alone = _attempt(partial(fit_center, row)), _attempt(
        partial(fit_center, fresh))
    if isinstance(fit, Exception) or isinstance(fit_alone, Exception):
        assert repr(fit) == repr(fit_alone)
    else:
        tol = 2 * spectral.FIT_RELATIVE_TOL * probe.lambda0
        assert abs(fit.center - fit_alone.center) <= tol


def _scan_window(lam, c, half):
    """The window as a mask over the whole grid: the oracle of _window."""
    snap = lam[np.abs(lam - c).argmin()]
    inside = np.abs(lam - snap) <= half
    return int(inside.argmax()), int(lam.size - inside[::-1].argmax())


def _window_grid(kind, n, rng):
    """A strictly increasing grid of n points for the _window test: "dense"
    is spaced by one to three units in the last place, "decades" spans 2 to
    20 decades, so that snap -/+ half rounds past a sample at the edge, and
    "near zero" is 1e-300, 2e-300 and then 1.0 and up over decades, whose
    first two samples round to one distance from any c above about 1e-284."""
    if kind == "dense":
        start = rng.uniform(1.0, 3000.0)
        return start + np.cumsum(rng.integers(1, 4, n)) * np.spacing(start)
    if kind == "random":
        return _setup_grid("random", n, int(rng.integers(0, 2 ** 32)))
    steps = rng.uniform(0.05, 1.0, n) * rng.uniform(2.0, 20.0) / n
    if kind == "decades":
        return 10.0 ** (rng.uniform(-300.0, 280.0) + np.cumsum(steps))
    return np.concatenate(([1e-300, 2e-300], 10.0 ** (np.cumsum(steps) - steps[0])))[:n]


@settings(max_examples=400, deadline=None)
@given(n=_GRID_SIZES, grid=st.sampled_from(["dense", "random", "decades", "near zero"]),
       seed=st.integers(0, 2 ** 32 - 1),
       c_kind=st.sampled_from(["sample", "midpoint", "uniform", "log-uniform",
                               "outside"]),
       half_kind=st.sampled_from(["distance", "uniform", "zero", "inf"]))
# each moves an end past its binary search or takes the tie scan, which
# about 0.04%, 1% and 4% of random draws do
@example(n=3, grid="decades", seed=39, c_kind="sample", half_kind="distance")  # hi
@example(n=3, grid="decades", seed=1, c_kind="uniform", half_kind="distance")  # lo
@example(n=3, grid="near zero", seed=0, c_kind="log-uniform", half_kind="uniform")
def test_window_matches_the_full_scan(n, grid, seed, c_kind, half_kind):
    """The binary search finds the full scan's window exactly, for the
    finite c and the half that is not NaN _fit_start passes it: at ties
    between two samples, at an edge exactly `half` away, on grids spaced by
    one to three units in the last place, where the rounded distances
    repeat, on grids spanning decades, where an end moves past where its
    binary search put it, and where two samples left of c tie, which takes
    the full scan (lam = [1e-300, 2e-300, 1.0] and c = 1e-10: window (0, 2))."""
    rng = np.random.default_rng(seed)
    lam = _window_grid(grid, n, rng)
    i, k = rng.integers(0, n, 2)
    c = {"sample": lam[i], "midpoint": (lam[i] + lam[min(i + 1, n - 1)]) / 2,
         "uniform": rng.uniform(lam[0], lam[-1]),
         "log-uniform": 10.0 ** rng.uniform(math.log10(lam[0]), math.log10(lam[-1])),
         "outside": lam[0] - rng.uniform(0, 3) * (lam[-1] - lam[0] + 1)}[c_kind]
    snap = lam[np.abs(lam - c).argmin()]
    half = {"distance": abs(float(lam[k] - snap)),
            "uniform": rng.uniform(0, 1.2) * (lam[-1] - lam[0]),
            "zero": 0.0, "inf": math.inf}[half_kind]
    assert spectral._window(lam, float(c), half) == _scan_window(lam, c, half)


@pytest.mark.parametrize("lam", [[1550.0], [1550.0, 1551.0]])
def test_one_and_two_point_spectra_build_and_refuse_their_fit(lam):
    """The grid of one point has no step and that of two no interior
    sample; both spectra build, and their fits are refused for too few
    points, as before the moments became weighted sums."""
    spec = SampledSpectrum(np.array(lam), np.ones(len(lam)), "exact")
    message = f"^need at least 16 grid points with nonzero intensity, got {len(lam)}$"
    with pytest.raises(ValueError, match=message):
        fit_center(spec)


# ── closed-form normal equations ──────────────────────────────────────────────

def _lower(a):
    """The lower triangle of the 3x3 matrix `a`, row by row: the first six
    arguments of spectral._cholesky_solve."""
    return a[0][0], a[1][0], a[1][1], a[2][0], a[2][1], a[2][2]


def _full(lower):
    """The symmetric 3x3 matrix, as lists, of its lower triangle row by row."""
    a00, a10, a11, a20, a21, a22 = lower
    return [[a00, a10, a20], [a10, a11, a21], [a20, a21, a22]]


def test_cholesky_solve_matches_linalg_solve():
    rng = np.random.default_rng(41)
    for _ in range(500):
        jac = rng.normal(size=(3, 40)) * 10.0 ** rng.uniform(-3.0, 3.0, (3, 1))
        a = jac @ jac.T
        a[np.diag_indices(3)] *= 1.0 + 10.0 ** rng.uniform(-15.0, 2.0)  # damping
        b = rng.normal(size=3)
        x = np.array(spectral._cholesky_solve(*_lower(a.tolist()), *b.tolist()))
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
        assert spectral._cholesky_solve(*_lower(a), *b) is None


def test_refused_solve_raises_damping_and_retries(monkeypatch):
    """A non-positive pivot costs one iteration and retries with the damping
    raised 10x on the same normal matrix."""
    spec = output_spectrum(PROBE, _wv(0.1, -0.3, 0.05), G, default_grid(PROBE))
    clean = fit_center(spec)
    solve = spectral._cholesky_solve
    seen = []

    def refuse_first(*args):
        seen.append((_full(args[:6]), list(args[6:])))
        return None if len(seen) == 1 else solve(*args)

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


# ── the lean iteration against the loop that formed everything each time ─────

def _moment_point(lam, y, peak, center, width):
    """The residual at (peak, center, width) and a function forming the
    normal equations there from the moments of one GEMM, in fit_center's
    arithmetic."""
    z = (lam - center) / width
    z2 = z * z
    u = np.exp(-z2)
    residual = u * peak - y

    def normal_equations():
        weights = np.array([u * u, u * u * z2, residual * u])
        powers = np.array([np.ones_like(z), z, z2])
        (m0, m1, m2), (_, m3, m4), (n0, n1, n2) = weights.dot(powers.T).tolist()
        t = 2.0 * peak / width
        tt = t * t
        return ([[m0, t * m1, t * m2], [t * m1, tt * m2, tt * m3],
                 [t * m2, tt * m3, tt * m4]], [-n0, -t * n1, -t * n2])
    return residual, normal_equations


def _explicit_point(lam, y, peak, center, width):
    """The residual and the normal equations of an explicit (3, n) Jacobian,
    as the fit formed them before it summed moments."""
    jac = np.empty((3, lam.size))
    envelope, d_center, d_width = jac
    np.subtract(lam, center, out=d_width)
    d_width /= width
    np.multiply(d_width, d_width, out=envelope)
    np.negative(envelope, out=envelope)
    np.exp(envelope, out=envelope)
    model = envelope * peak
    np.multiply(d_width, 2.0, out=d_center)
    d_width *= d_center
    d_width /= width
    d_width *= model
    d_center /= width
    d_center *= model
    residual = model - y

    def normal_equations():
        jac_nt = jac.T.copy()
        return (jac @ jac_nt).tolist(), (-(jac_nt.T @ residual)).tolist()
    return residual, normal_equations


def _fit_forming_everything(spec, point=_moment_point):
    """fit_center with the normal equations formed afresh on every
    iteration, also after a rejected step or a refused solve: the oracle
    the lean loop must match bit for bit. With `point=_explicit_point` it
    is the explicit-Jacobian fit the moments replaced."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        lo, hi, scale, center, sigma = spectral._fit_start(spec)
        lam_w, y = spec.wavelengths[lo:hi], spec.intensities[lo:hi] * scale
        params = (spec._peak * scale, center, math.sqrt(2.0) * sigma)
        residual, normal_equations = point(lam_w, y, *params)
        cost = float(residual @ residual)
        if not math.isfinite(cost):
            raise ValueError("sum of squared fit residuals of the spectrum "
                             "overflows a float")
        damping, last_change = 1e-3, math.nan
        for iteration in range(1, spectral.FIT_MAX_ITERATIONS + 1):
            jtj, gradient = normal_equations()
            if not math.isfinite(jtj[0][0] + jtj[1][1] + jtj[2][2] + sum(gradient)):
                raise ValueError("normal equations of the fit to the spectrum "
                                 "overflow a float")
            for i in range(3):
                d = jtj[i][i]
                jtj[i][i] = d + damping * (1e-30 if d <= 0 else d)
            step = spectral._cholesky_solve(*_lower(jtj), *gradient)
            if step is None:
                damping *= 10.0
                continue
            trial = tuple(p + s for p, s in zip(params, step))
            accepted = False
            if trial[2] > 0:
                residual_t, normal_t = point(lam_w, y, *trial)
                cost_t = float(residual_t @ residual_t)
                if cost_t <= cost:
                    params, residual, cost = trial, residual_t, cost_t
                    normal_equations = normal_t
                    damping = max(damping * 0.1, 1e-15)
                    accepted = True
            if not accepted:
                damping *= 10.0
                continue
            rel_change = max(abs(s) / max(abs(p), 1e-300)
                             for s, p in zip(step, params))
            theta = rel_change / last_change
            if rel_change < spectral.FIT_RELATIVE_TOL or (
                    theta < 1.0 and rel_change * theta / (1.0 - theta)
                    < spectral.FIT_RELATIVE_TOL):
                break
            last_change = rel_change
        else:
            iteration = None
    residual_norm = math.sqrt(cost / lam_w.size) / (abs(params[0]) or 1.0)
    if iteration is None:
        cap = spectral.FIT_MAX_ITERATIONS
        raise FitFailure(f"Gaussian fit did not converge in {cap} iterations "
                         f"(relative rms residual {residual_norm:.3e})",
                         residual_norm=residual_norm, iterations=cap)
    return spectral.FitResult(params[1], params[2], params[0] / scale,
                              residual_norm, iteration)


def _outcome(fit, spec):
    """The repr of a fit, or the type, message, iterations and residual
    norm of its error."""
    try:
        return repr(fit(spec))
    except (ValueError, FitFailure) as exc:
        return repr((type(exc).__name__, str(exc), getattr(exc, "iterations", None),
                     getattr(exc, "residual_norm", None)))


def _assert_fits_like_the_oracle(spec):
    want = _outcome(_fit_forming_everything, spec)
    assert _outcome(fit_center, spec) == want
    return want


def _pedestal_spectrum(center, width, pedestal, points):
    lam = np.linspace(1500.0, 1600.0, points)
    return SampledSpectrum(lam, np.exp(-((lam - center) / width) ** 2) + pedestal,
                           "exact")


_MODEL_NAMES = [m.name for m in benchmark_models(1550.0, 10.0)]
_SPECTRA = st.one_of(
    st.builds(_noisy_spectrum, st.integers(0, 2 ** 32 - 1),
              st.integers(64, 2048), st.floats(0.0, 0.2)),
    st.builds(_pedestal_spectrum, st.floats(1530.0, 1570.0), st.floats(3.0, 25.0),
              st.floats(0.01, 0.5), st.integers(256, 2048)),
    st.builds(_model_spectrum, st.sampled_from(_MODEL_NAMES),
              st.sampled_from(["exact", "paper"]), st.floats(-0.1, 0.1)))


@settings(max_examples=120, deadline=None)
@given(spec=_SPECTRA, tiny=st.booleans())
def test_fit_matches_the_loop_that_forms_everything_each_time(spec, tiny):
    """Bit for bit, iterations and residual norm included: noisy spectra,
    flat pedestals (whose fits reject steps), benchmark-model rows, each at
    unit scale and scaled by 2^-300."""
    if tiny:
        spec = SampledSpectrum(spec.wavelengths, spec.intensities * 2.0 ** -300,
                               "exact")
    _assert_fits_like_the_oracle(spec)


@pytest.mark.parametrize("refused", [{1}, {2}, {1, 2, 3}, {2, 4, 6, 8}])
def test_refused_solves_fit_like_the_oracle(monkeypatch, refused):
    solve = spectral._cholesky_solve
    calls = []

    def refuse(*args):
        calls.append(None)
        return None if len(calls) in refused else solve(*args)

    monkeypatch.setattr(spectral, "_cholesky_solve", refuse)
    for spec in (_model_spectrum("model2", "exact", 0.05),
                 _pedestal_spectrum(1551.3, 11.0, 0.1, 1024),
                 _noisy_spectrum(5, 900, 0.05)):
        calls.clear()
        want = _outcome(_fit_forming_everything, spec)
        calls.clear()
        assert _outcome(fit_center, spec) == want


@pytest.mark.parametrize("scale, quantity", [(1e160, "squared fit residuals"),
                                             (1e156, "normal equations")])
def test_overflowing_fits_fail_like_the_oracle(scale, quantity):
    lam = np.linspace(1510.0, 1590.0, 512)
    spec = SampledSpectrum(lam, scale * np.exp(-((lam - 1550.0) / 10.0) ** 2),
                           "exact")
    assert quantity in _assert_fits_like_the_oracle(spec)


@pytest.mark.parametrize("cap", [1, 2, 3, 4, 5])
def test_capped_fits_fail_like_the_oracle(monkeypatch, cap):
    monkeypatch.setattr(spectral, "FIT_MAX_ITERATIONS", cap)
    outcomes = [_assert_fits_like_the_oracle(spec) for spec in (
        _model_spectrum("model2", "exact", 0.05), _noisy_spectrum(7, 600, 0.05),
        _pedestal_spectrum(1547.0, 6.0, 0.1, 1024))]
    assert "FitFailure" in outcomes[1]


def _count_evaluations(monkeypatch):
    counts = dict.fromkeys(("model", "normal"), 0)
    for key, name in (("model", "_gaussian_model"),
                      ("normal", "_normal_equations")):
        def counted(*args, _key=key, _evaluate=getattr(spectral, name)):
            counts[_key] += 1
            return _evaluate(*args)
        monkeypatch.setattr(spectral, name, counted)
    return counts


def test_a_fit_forms_the_jacobian_only_for_steps_that_continue(monkeypatch):
    """A 3-iteration fit evaluates 4 models (start and 3 trials) and forms 3
    normal equations: none for the step that ends it. A refused solve of
    that last step costs an iteration and no evaluation; a rejected last
    step one model evaluation and nothing more."""
    spec = _model_spectrum("model2", "exact", 0.05)
    counts = _count_evaluations(monkeypatch)
    clean = fit_center(spec)
    assert clean.iterations == 3
    assert counts == {"model": 4, "normal": 3}

    solve = spectral._cholesky_solve
    for planted, models in ((None, 4), ((0.0, 5.0, 0.0), 5)):
        calls = []

        def third_planted(*args):
            calls.append(None)
            return planted if len(calls) == 3 else solve(*args)

        monkeypatch.setattr(spectral, "_cholesky_solve", third_planted)
        counts.update(model=0, normal=0)
        fit = fit_center(spec)
        assert fit.iterations == clean.iterations + 1
        assert counts == {"model": models, "normal": 3}
        assert abs(fit.center - clean.center) <= 1e-10


# ── the moment normal equations against an explicit Jacobian ─────────────────

def _rounding_floor(spec, fit):
    """How far (peak, center, width) can move at `fit` before the cost
    changes by a rounding of itself: sqrt(eps * cost * diag((J J^T)^-1)),
    the peak relative. A fit that ends at the rounding floor is determined
    only to this; any change of summation order moves it by about as much."""
    lo, hi, scale, _, _ = spectral._fit_start(spec)
    residual, normal_equations = _explicit_point(
        spec.wavelengths[lo:hi], spec.intensities[lo:hi] * scale, fit.peak * scale,
        fit.center, fit.width)
    inverse = np.linalg.inv(np.array(normal_equations()[0]))
    floor = np.sqrt(np.finfo(float).eps * (residual @ residual) * np.diag(inverse))
    return floor[0] / abs(fit.peak * scale), floor[1], floor[2]


@settings(max_examples=60, deadline=None)
@given(spec=_SPECTRA)
def test_fit_matches_the_explicit_jacobian_fit(spec):
    """Centers and widths within 1e-10 nm and peaks within 1e-10 relative
    of the fit that formed J J^T from an explicit (3, n) Jacobian, give or
    take four times the fit's rounding floor; the same errors; and for a
    benchmark-model row the same number of iterations. A fit that ends at
    the rounding floor may take a different number, and within 200
    iterations or not."""
    outcomes = []
    for fit in (partial(_fit_forming_everything, point=_explicit_point), fit_center):
        try:
            outcomes.append(fit(spec))
        except (ValueError, FitFailure) as exc:
            outcomes.append(exc)
    want, got = outcomes
    model_row = spec.wavelengths[0] != 1500.0  # the others start at 1500 nm
    if isinstance(want, ValueError) or isinstance(got, ValueError):
        assert repr(got) == repr(want)
    elif isinstance(want, FitFailure) or isinstance(got, FitFailure):
        assert not model_row
    else:
        peak, center, width = _rounding_floor(spec, want)
        assert abs(got.center - want.center) <= 1e-10 + 4.0 * center
        assert abs(got.width - want.width) <= 1e-10 + 4.0 * width
        assert abs(got.peak / want.peak - 1.0) <= 1e-10 + 4.0 * peak
        if model_row:
            assert got.iterations == want.iterations


@settings(max_examples=200, deadline=None)
@given(peak=st.floats(1e-3, 1e3), center=st.floats(1500.0, 1600.0),
       width=st.floats(1.0, 50.0), points=st.integers(16, 2048),
       seed=st.integers(0, 2 ** 32 - 1))
def test_normal_equations_match_an_explicit_jacobian(peak, center, width, points,
                                                     seed):
    """J J^T from the moments within 1e-12 of its largest entry, and -J r
    within 1e-12 of the largest sum of |J| |r| it cancels, against the
    products of the explicit (3, n) Jacobian."""
    lam = np.linspace(1500.0, 1600.0, points)
    y = peak * np.random.default_rng(seed).uniform(0.0, 1.0, points)
    block = np.empty((8, points))
    block[3] = 1.0
    rows = (block[:3], block[3:6], *block)
    spectral._gaussian_model(lam, y, peak, center, width, *rows[6:])
    a00, a01, a02, a11, a12, a22, *gradient = spectral._normal_equations(
        rows, peak, width)
    jtj = _full((a00, a01, a11, a02, a12, a22))
    u, residual = block[6:]
    z = (lam - center) / width
    jac = np.array([u, peak * u * 2.0 * z / width, peak * u * 2.0 * z * z / width])
    want = jac @ jac.T
    assert np.abs(np.array(jtj) - want).max() <= 1e-12 * np.abs(want).max()
    scale = (np.abs(jac) @ np.abs(residual)).max()
    assert np.abs(np.array(gradient) + jac @ residual).max() <= 1e-12 * scale
