"""Classical interferometer baseline: fringe shift and intensity readout."""

import math

import numpy as np
import pytest

from wvsagnac import (SPEED_OF_LIGHT, InterferometerConfig, classical_intensity,
                      fringe_shift)

CFG = InterferometerConfig.from_nm(area_s=16.0, lambda0_nm=1550.0)


def test_fringe_shift_zero_rotation():
    assert fringe_shift(CFG, 0.0) == 0.0


def test_fringe_shift_hand_evaluated():
    """4*0.1*16 / (lambda0*c), evaluated by hand for S=16 m^2, 1550 nm."""
    expected = 6.4 / (1550e-9 * SPEED_OF_LIGHT)  # = 0.013772969...
    assert fringe_shift(CFG, 0.1) == pytest.approx(expected, rel=1e-15)
    assert fringe_shift(CFG, 0.1) == pytest.approx(0.013772969092052731, rel=1e-12)


def test_fringe_shift_linear_in_area():
    doubled = InterferometerConfig.from_nm(area_s=32.0, lambda0_nm=1550.0)
    assert fringe_shift(doubled, 0.1) == pytest.approx(2.0 * fringe_shift(CFG, 0.1),
                                                       rel=1e-15)


def test_fringe_shift_odd_in_omega():
    rng = np.random.default_rng(7)
    for omega in rng.uniform(-5.0, 5.0, 50):
        assert fringe_shift(CFG, -omega) == -fringe_shift(CFG, omega)


def test_intensity_constructive_at_rest():
    assert classical_intensity(CFG, 1.0, 0.0) == pytest.approx(2.0, abs=1e-15)


def test_intensity_destructive_with_pi_modulation():
    cfg = InterferometerConfig.from_nm(16.0, 1550.0, mod_phase=math.pi)
    assert classical_intensity(cfg, 1.0, 0.0) == pytest.approx(0.0, abs=1e-15)


def test_intensity_hand_composed():
    """Compose the fringe shift into the cosine readout by hand."""
    dz = 6.4 / (1550e-9 * SPEED_OF_LIGHT)
    expected = 1.0 + math.cos(2.0 * math.pi * dz)
    assert classical_intensity(CFG, 1.0, 0.1) == pytest.approx(expected, rel=1e-15)


def test_intensity_bounds_dense_scan():
    amplitude = 1.7
    for omega in np.linspace(-50.0, 50.0, 4001):
        val = classical_intensity(CFG, amplitude, float(omega))
        assert -1e-12 <= val <= 2.0 * amplitude + 1e-12


def test_intensity_periodic_in_unit_fringe_shift():
    # one fringe corresponds to Omega -> Omega + lambda0*c/(4S)
    period = CFG.lambda0 * SPEED_OF_LIGHT / (4.0 * CFG.area_s)
    rng = np.random.default_rng(11)
    for omega in rng.uniform(-2.0, 2.0, 25):
        a = classical_intensity(CFG, 1.0, float(omega))
        b = classical_intensity(CFG, 1.0, float(omega) + period)
        assert a == pytest.approx(b, abs=1e-9)


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        InterferometerConfig(area_s=-1.0, lambda0=1550e-9)
    with pytest.raises(ValueError):
        InterferometerConfig(area_s=16.0, lambda0=0.0)
    with pytest.raises(TypeError):  # the light speed is a constant, not a field
        InterferometerConfig(area_s=16.0, lambda0=1550e-9, c=3e8)
    with pytest.raises(ValueError):
        InterferometerConfig(area_s=16.0, lambda0=1550e-9, mod_phase=math.inf)


def test_rejects_nonfinite_omega_and_negative_amplitude():
    with pytest.raises(ValueError):
        fringe_shift(CFG, math.nan)
    with pytest.raises(ValueError):
        classical_intensity(CFG, -0.5, 0.1)


def test_overflowing_fringe_shift_and_phase_are_domain_errors():
    huge = InterferometerConfig(area_s=1e308, lambda0=1550e-9)
    with pytest.raises(ValueError, match="fringe shift"):
        fringe_shift(huge, 1e308)
    with pytest.raises(ValueError, match="fringe shift"):
        classical_intensity(huge, 1.0, 1e308)
    # a finite shift whose phase 2*pi*dz + mod_phase overflows
    near = InterferometerConfig(area_s=1e300, lambda0=1550e-9, mod_phase=1.79e308)
    assert math.isfinite(fringe_shift(near, 4e7))
    with pytest.raises(ValueError, match="fringe phase"):
        classical_intensity(near, 1.0, 4e7)
