"""Inverse design solver: feasibility reports and minimum-area search."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wvsagnac.design as design
import wvsagnac.spectral as spectral
import wvsagnac.sweep as sweep
from wvsagnac import DesignConstraints, SpectrumModel, feasible, min_area

PROBE = SpectrumModel(i0=1.0, lambda0=1550.0, width_dlambda=10.0)


def _constraints(i_min=0.0, res=0.0, omega=0.05, alpha=0.1, i0=1.0):
    return DesignConstraints(i0=i0, i_min=i_min, delta_lambda_res=res,
                             omega_target=omega, alpha=alpha, probe=PROBE)


def test_vacuous_constraints_return_bracket_low():
    sol = min_area(_constraints(), [-0.3, -0.2], (1.0, 20.0))
    assert sol.feasible
    assert sol.area_s_min == 1.0
    assert sol.beta == -0.2  # tie on the area goes to the smaller |beta|


def test_zero_shift_branch_is_infeasible():
    # beta = -alpha pins the weak value at -1: no shift, ever
    sol = min_area(_constraints(res=1e-6), [-0.1], (1.0, 20.0))
    assert not sol.feasible
    assert math.isnan(sol.area_s_min)


def test_feasibility_margins_self_referential():
    base = feasible(-0.25, 8.0, _constraints())
    assert base.feasible and base.shift_nm > 0 and base.peak_intensity > 0
    # tighten the intensity floor just above the achieved peak: infeasible
    tight = feasible(-0.25, 8.0, _constraints(i_min=1.01 * base.peak_intensity))
    assert not tight.feasible
    assert tight.intensity_margin < 0
    # tighten the resolution floor just above the achieved shift: infeasible
    tight2 = feasible(-0.25, 8.0, _constraints(res=1.01 * base.shift_nm))
    assert not tight2.feasible
    assert tight2.shift_margin_nm < 0


def test_planted_midpoint_is_recovered():
    s_star = 10.5
    planted = feasible(-0.2, s_star, _constraints()).shift_nm
    sol = min_area(_constraints(i_min=0.01, res=planted), [-0.2], (1.0, 20.0))
    assert sol.feasible
    assert sol.area_s_min == pytest.approx(s_star, rel=2e-4)
    assert sol.k_achieved * 0.05 >= planted * (1 - 1e-9)
    assert sol.peak_intensity >= 0.01


def test_orthogonal_angle_reports_infeasible_not_error():
    rep = feasible(0.0, 8.0, _constraints())  # beta = 0: zero overlap at rest
    assert not rep.feasible
    assert "orthogonal" in rep.reason


@settings(max_examples=15, deadline=None)
@given(planted_beta=st.floats(-0.45, -0.18), planted_area=st.floats(2.0, 18.0),
       i_min=st.floats(0.0, 0.05), omega_target=st.floats(0.01, 0.1))
@example(planted_beta=-0.24, planted_area=9.0, i_min=0.005, omega_target=0.05)
def test_solution_matches_brute_force_grid(planted_beta, planted_area, i_min,
                                           omega_target):
    """min_area lands within one cell of the smallest feasible grid area."""
    betas = list(np.linspace(-0.45, -0.18, 10))
    areas = np.linspace(2.0, 18.0, 12)
    planted = feasible(planted_beta, planted_area,
                       _constraints(omega=omega_target))
    cons = _constraints(i_min=min(i_min, planted.peak_intensity),
                        res=planted.shift_nm, omega=omega_target)

    # every cell, no early exit: feasibility need not be monotone in area
    grid = [float(s) for beta in betas for s in areas
            if feasible(beta, float(s), cons).feasible]
    sol = min_area(cons, betas, (2.0, 18.0))
    if not grid:
        assert not sol.feasible
        return
    cell = areas[1] - areas[0]
    assert sol.feasible
    assert min(grid) - cell <= sol.area_s_min <= min(grid) + cell


def test_tightening_never_shrinks_the_area():
    planted = feasible(-0.22, 8.0, _constraints()).shift_nm
    base_cons = _constraints(i_min=0.01, res=planted)
    betas = [-0.3, -0.22]
    s_base = min_area(base_cons, betas, (2.0, 18.0)).area_s_min
    tighter = [
        _constraints(i_min=0.02, res=planted),
        _constraints(i_min=0.01, res=1.5 * planted),
        _constraints(i_min=0.01, res=planted, omega=0.04),
    ]
    for cons in tighter:
        sol = min_area(cons, betas, (2.0, 18.0))
        s_new = sol.area_s_min if sol.feasible else math.inf
        assert s_new >= s_base - 1e-3 * s_base


def test_intensity_floor_drives_solution_infeasible_everywhere():
    # peak detected intensity is about sin(beta)^2; a floor above it kills all
    sol = min_area(_constraints(i_min=0.5), [-0.3, -0.2], (1.0, 20.0))
    assert not sol.feasible


def test_source_intensity_override_scales_peak():
    weak_src = feasible(-0.25, 8.0, _constraints(i0=1.0))
    strong_src = feasible(-0.25, 8.0, _constraints(i0=5.0))
    assert strong_src.peak_intensity == pytest.approx(
        5.0 * weak_src.peak_intensity, rel=1e-12)


def test_constraint_validation():
    with pytest.raises(ValueError):
        _constraints(i0=-1.0)
    with pytest.raises(ValueError):
        _constraints(i_min=2.0)  # floor above the source
    with pytest.raises(ValueError):
        _constraints(res=-0.1)
    with pytest.raises(ValueError):
        _constraints(omega=0.0)


def test_bracket_and_grid_validation():
    with pytest.raises(ValueError):
        min_area(_constraints(), [-0.2], (5.0, 1.0))
    with pytest.raises(ValueError):
        min_area(_constraints(), [-0.2], (-1.0, 5.0))
    with pytest.raises(ValueError):
        min_area(_constraints(), [], (1.0, 5.0))
    with pytest.raises(ValueError):
        feasible(-0.2, -1.0, _constraints())


# ── memoized zero-rotation reference ──────────────────────────────────────────

@settings(max_examples=25, deadline=None)
@given(beta=st.floats(-0.55, -0.15), area_s=st.floats(2.0, 18.0))
def test_memoized_reference_gives_bit_identical_reports(beta, area_s):
    cons = _constraints(i_min=0.005, res=0.01)
    design._reference_center.cache_clear()
    cold = feasible(beta, area_s, cons)
    design._reference_center.cache_clear()
    min_area(cons, [-0.3, beta], (2.0, 18.0))  # warms the cache at beta
    warm = feasible(beta, area_s, cons)
    again = feasible(beta, area_s, cons)
    assert repr(cold) == repr(warm) == repr(again)


def test_repeated_feasible_calls_fit_the_reference_once(monkeypatch):
    fits = []

    def counted(*args, **kwargs):
        fits.append(1)
        return spectral.fit_center(*args, **kwargs)

    monkeypatch.setattr(sweep, "fit_center", counted)
    monkeypatch.setattr(design, "fit_center", counted)
    design._reference_center.cache_clear()
    for i in range(10):
        feasible(-0.25, 4.0 + i, _constraints())
    assert len(fits) == 11  # one reference, one fit per call
