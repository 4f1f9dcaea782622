"""Weak-value core: amplitudes, closed form vs direct evaluation, shift formulas."""

import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wvsagnac import (OVERLAP_FLOOR, InterferometerConfig, NearOrthogonalSelection,
                      SelectionConfig, SpectrumModel, amplitudes_mn,
                      analytic_wavelength_shift, fringe_shift, sagnac_phase,
                      weak_value, weak_value_direct)

CFG = InterferometerConfig.from_nm(area_s=16.0, lambda0_nm=1550.0)


def closed_form_phi_slope(alpha, beta):
    """d Im(A_w) / d phi at phi = 0, from the small-phase expansion."""
    return -0.5 * math.sin(2.0 * (alpha + beta)) * math.sin(2.0 * alpha) \
        / math.sin(beta) ** 2


# ── phase ─────────────────────────────────────────────────────────────────────

def test_phase_zero_at_rest():
    assert sagnac_phase(CFG, 0.0) == 0.0


def test_phase_is_two_pi_times_fringe_shift():
    rng = np.random.default_rng(3)
    for omega in rng.uniform(-5.0, 5.0, 100):
        assert sagnac_phase(CFG, omega) == 2.0 * math.pi * fringe_shift(CFG, omega)


def test_phase_hand_evaluated():
    expected = 2.0 * math.pi * 6.4 / (1550e-9 * 299792458.0)  # = 0.0865381...
    assert sagnac_phase(CFG, 0.1) == pytest.approx(expected, rel=1e-15)


def test_phase_area_ratio():
    small = InterferometerConfig.from_nm(area_s=3.0, lambda0_nm=1550.0)
    assert sagnac_phase(small, 0.1) / sagnac_phase(CFG, 0.1) == pytest.approx(
        3.0 / 16.0, rel=1e-15)


# ── amplitudes ────────────────────────────────────────────────────────────────

def test_m_vanishes_when_angles_cancel():
    for phi in (0.0, 0.4, -2.0):
        m, _ = amplitudes_mn(SelectionConfig(0.1, -0.1, phi))
        assert m == 0.0


def test_amplitudes_hand_evaluated():
    m, n = amplitudes_mn(SelectionConfig(0.1, -0.5, 0.0))
    assert m == pytest.approx(-math.sin(-0.4) * math.cos(0.1), rel=1e-15)
    assert n == pytest.approx(math.cos(-0.4) * math.sin(0.1), rel=1e-15)
    assert m.imag == 0.0 and n.imag == 0.0


def test_amplitudes_real_at_zero_phase():
    rng = np.random.default_rng(5)
    for alpha, beta in rng.uniform(-1.5, 1.5, (50, 2)):
        m, n = amplitudes_mn(SelectionConfig(alpha, beta, 0.0))
        assert m.imag == 0.0 and n.imag == 0.0


# ── weak value ────────────────────────────────────────────────────────────────

def test_weak_value_is_minus_one_when_m_vanishes():
    for phi in (0.0, 1.0, -0.3):
        res = weak_value(SelectionConfig(0.1, -0.1, phi))
        assert res.a_w == -1.0


def test_weak_value_closed_form_at_zero_phase():
    # simplifies to sin(2*alpha+beta)/sin(beta) when phi = 0
    res = weak_value(SelectionConfig(0.1, -0.5, 0.0))
    expected = math.sin(-0.3) / math.sin(-0.5)  # = 0.6164048...
    assert res.a_w.imag == 0.0
    assert res.a_w.real == pytest.approx(expected, rel=1e-12)
    assert weak_value_direct(SelectionConfig(0.1, -0.5, 0.0)) == pytest.approx(
        expected, rel=1e-12)


def test_closed_form_matches_direct_evaluation_everywhere():
    """The two shipped routes to A_w agree to 1e-12 relative, 1000 samples."""
    rng = np.random.default_rng(42)
    accepted = 0
    while accepted < 1000:
        alpha, beta = rng.uniform(-math.pi, math.pi, 2)
        phi = rng.uniform(-math.pi, math.pi)
        sel = SelectionConfig(alpha, beta, phi)
        m, n = amplitudes_mn(sel)
        if abs(m + n) <= 1e-6:
            continue
        accepted += 1
        a_closed = weak_value(sel).a_w
        a_direct = weak_value_direct(sel)
        assert abs(a_closed - a_direct) <= 1e-12 * max(abs(a_closed), 1.0), (
            f"mismatch at alpha={alpha}, beta={beta}, phi={phi}: "
            f"{a_closed} vs {a_direct}")


# angles anywhere, or within 1e-6 rad of zero, where m + n nearly cancels
_ANGLE = st.one_of(st.floats(-math.pi, math.pi), st.floats(-1e-6, 1e-6))


@settings(max_examples=50, deadline=None)
@given(alpha=st.floats(-math.pi, math.pi), beta=_ANGLE, phi=_ANGLE)
def test_closed_form_matches_direct_evaluation_property(alpha, beta, phi):
    """weak_value and weak_value_direct agree to 1e-9 relative wherever the
    overlap is at least 1e3 * OVERLAP_FLOOR, up to the rounding of m and n
    (a few ulps each) that A_w = (m - n)/(m + n) amplifies by
    4|m||n|/|m + n|^2 as the overlap cancels."""
    sel = SelectionConfig(alpha, beta, phi)
    m, n = amplitudes_mn(sel)
    assume(abs(m + n) >= 1e3 * OVERLAP_FLOOR)
    a_closed = weak_value(sel).a_w
    a_direct = weak_value_direct(sel)
    rounding = 16 * sys.float_info.epsilon * 4 * abs(m) * abs(n) / abs(m + n) ** 2
    assert abs(a_closed - a_direct) <= max(1e-9 * abs(a_direct), rounding)


def test_identity_aw_times_overlap():
    rng = np.random.default_rng(13)
    for alpha, beta, phi in rng.uniform(-1.5, 1.5, (200, 3)):
        try:
            res = weak_value(SelectionConfig(alpha, beta, phi))
        except NearOrthogonalSelection:
            continue
        lhs = res.a_w * res.overlap
        rhs = res.m - res.n
        assert abs(lhs - rhs) <= 1e-12 * max(abs(rhs), 1e-30)


def test_postselect_probability_in_unit_interval():
    rng = np.random.default_rng(17)
    for alpha, beta, phi in rng.uniform(-math.pi, math.pi, (500, 3)):
        try:
            res = weak_value(SelectionConfig(alpha, beta, phi))
        except NearOrthogonalSelection:
            continue
        assert 0.0 <= res.postselect_prob <= 1.0 + 1e-12


def test_weak_value_real_at_zero_phase():
    rng = np.random.default_rng(19)
    for alpha, beta in rng.uniform(-1.5, 1.5, (100, 2)):
        try:
            res = weak_value(SelectionConfig(alpha, beta, 0.0))
        except NearOrthogonalSelection:
            continue
        assert res.a_w.imag == 0.0


def test_small_phase_slope_matches_closed_form():
    """Central difference of Im(A_w) in phi at 0 vs the closed-form slope."""
    h = 1e-4
    alpha = 0.1
    for beta in np.concatenate([np.linspace(0.05, 1.0, 20),
                                np.linspace(-1.0, -0.05, 20)]):
        beta = float(beta)
        hi = weak_value(SelectionConfig(alpha, beta, h)).a_w.imag
        lo = weak_value(SelectionConfig(alpha, beta, -h)).a_w.imag
        fd_slope = (hi - lo) / (2.0 * h)
        expected = closed_form_phi_slope(alpha, beta)
        if abs(expected) < 1e-12:  # degenerate point beta = -alpha
            assert abs(fd_slope) < 1e-12
        else:
            assert fd_slope == pytest.approx(expected, rel=1e-6), f"beta={beta}"


def test_orthogonal_selection_raises():
    # beta = 0, phi = 0 makes m + n cancel exactly
    with pytest.raises(NearOrthogonalSelection):
        weak_value(SelectionConfig(0.3, 0.0, 0.0))
    with pytest.raises(NearOrthogonalSelection):
        weak_value_direct(SelectionConfig(0.3, 0.0, 0.0))


def test_selection_requires_finite_angles():
    with pytest.raises(ValueError):
        SelectionConfig(math.nan, 0.1, 0.0)
    with pytest.raises(ValueError):
        SelectionConfig(0.1, math.inf, 0.0)


# ── first-order shifts ────────────────────────────────────────────────────────

def test_wavelength_shift_zero_for_real_weak_value():
    probe = SpectrumModel(i0=1.0, lambda0=1550.0, width_dlambda=10.0)
    assert analytic_wavelength_shift(probe, complex(3.0, 0.0)) == 0.0


def test_wavelength_shift_hand_evaluated():
    probe = SpectrumModel(i0=1.0, lambda0=1550.0, width_dlambda=10.0)
    expected = -4.0 * math.pi * 100.0 / 1550.0 * 0.01  # = -0.0081073...
    assert analytic_wavelength_shift(probe, complex(0.0, 0.01)) == pytest.approx(
        expected, rel=1e-15)


def test_wavelength_shift_quadratic_in_width():
    narrow = SpectrumModel(i0=1.0, lambda0=1550.0, width_dlambda=10.0)
    wide = SpectrumModel(i0=1.0, lambda0=1550.0, width_dlambda=20.0)
    a_w = complex(0.1, 0.02)
    assert analytic_wavelength_shift(wide, a_w) == pytest.approx(
        4.0 * analytic_wavelength_shift(narrow, a_w), rel=1e-15)
