"""Inverse design solver: feasibility reports and minimum-area search."""

import json
import math
import re
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import wvsagnac.design as design
import wvsagnac.spectral as spectral
import wvsagnac.sweep as sweep
from wvsagnac import (SPEED_OF_LIGHT, DesignConstraints, FitFailure,
                      InterferometerConfig, NearOrthogonalSelection,
                      SelectionConfig, SpectrumModel, analytic_wavelength_shift,
                      benchmark_models, default_grid, feasible, fit_center,
                      min_area, output_spectrum, run_sweep, sagnac_phase,
                      weak_value)
from test_sweep import _weak

PROBE = SpectrumModel(i0=1.0, lambda0=1550.0, width_dlambda=10.0)


def _constraints(i_min=0.0, res=0.0, omega=0.05, alpha=0.1, i0=1.0):
    return DesignConstraints(i0=i0, i_min=i_min, delta_lambda_res=res,
                             omega_target=omega, alpha=alpha, probe=PROBE)


@pytest.fixture
def fits(monkeypatch):
    """Every fit_center call from here on, the zero-rotation references'
    included, from a cold reference cache."""
    fitted = []

    def counted(spec):
        fitted.append(spec)
        return spectral.fit_center(spec)

    monkeypatch.setattr(design, "fit_center", counted)  # references included
    design._reference_center.cache_clear()
    return fitted


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


def test_an_orthogonal_only_grid_is_infeasible():
    # every area of beta = 0 is orthogonal at rest: the regime probe ends it
    reason = feasible(0.0, 1.0, _constraints()).reason
    assert "effectively orthogonal" in reason
    warnings = (f"beta = 0: every probed area is infeasible: {reason}",)
    sol = min_area(_constraints(), [0.0], (1.0, 20.0))
    assert not sol.feasible and sol.warnings == warnings
    assert all(math.isnan(x) for x in (sol.beta, sol.area_s_min,
                                       sol.k_achieved, sol.peak_intensity))
    # beside a beta with feasible areas, only beta = 0 is named
    assert min_area(_constraints(), [0.0, -0.3], (1.0, 20.0)).warnings == warnings


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
    # i_min = 2: a floor above the source
    for bad in ({"i0": -1.0}, {"i_min": 2.0}, {"res": -0.1}, {"omega": 0.0}):
        with pytest.raises(ValueError):
            _constraints(**bad)
    with pytest.raises(ValueError, match="alpha must be finite"):
        _constraints(alpha=math.nan)


def test_bracket_and_grid_validation():
    for betas, bracket in ([-0.2], (5.0, 1.0)), ([-0.2], (-1.0, 5.0)), ([], (1.0, 5.0)):
        with pytest.raises(ValueError):
            min_area(_constraints(), betas, bracket)
    with pytest.raises(ValueError):
        feasible(-0.2, -1.0, _constraints())
    with pytest.raises(ValueError, match="beta must be finite"):
        feasible(math.nan, 4.0, _constraints())


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


def test_repeated_feasible_calls_fit_the_reference_once(fits):
    for i in range(10):
        feasible(-0.25, 4.0 + i, _constraints())
    assert len(fits) == 11  # one reference, one fit per call


def test_constraints_probe_carries_the_source_i0():
    cons = DesignConstraints(i0=2.0, i_min=0.0, delta_lambda_res=0.01,
                             omega_target=0.05, alpha=0.1,
                             probe=SpectrumModel(1.0, 1550.0, 10.0))
    assert cons.probe == SpectrumModel(2.0, 1550.0, 10.0)
    assert replace(cons, i0=3.0).probe.i0 == 3.0
    assert replace(cons, probe=PROBE).probe.i0 == 2.0
    assert cons == replace(cons, probe=SpectrumModel(5.0, 1550.0, 10.0))


def test_constraints_keep_the_source_probe_out_of_eq_hash_and_repr():
    cons = _constraints(i0=2.0)
    fresh = replace(cons)
    feasible(-0.25, 4.0, cons)
    assert cons == fresh and hash(cons) == hash(fresh)
    assert repr(cons) == repr(fresh)


# ── stacked candidates ────────────────────────────────────────────────────────

# beta = -2 alpha and a phase of pi at the target rate: the selections of
# that one area are orthogonal, those of its neighbours are not
ORTHOGONAL_AREA = 1550e-9 * SPEED_OF_LIGHT / (8 * 0.05)


def _phase(cons, area_s):
    """The Sagnac phase of the loop area `area_s` at the target rate."""
    cfg = InterferometerConfig.from_nm(area_s, cons.probe.lambda0)
    return sagnac_phase(cfg, cons.omega_target)


def _unstacked_report(beta, area_s, cons):
    """feasible() as one spectrum at a time, from the public pieces: no
    cached basis, no stack."""
    def readout(phi):
        wv = weak_value(SelectionConfig(cons.alpha, beta, phi))
        return wv, output_spectrum(cons.probe, wv, cons.probe.lambda0,
                                   default_grid(cons.probe))

    try:
        ref = fit_center(readout(0.0)[1]).center
        wv, spectrum = readout(_phase(cons, area_s))
    except NearOrthogonalSelection as exc:
        return design.FeasibilityReport(False, 0.0, -cons.i_min, 0.0,
                                        -cons.delta_lambda_res, math.nan,
                                        reason=str(exc))
    peak = float(spectrum.intensities.max())
    shift = abs(fit_center(spectrum).center - ref)
    return design.FeasibilityReport(
        peak >= cons.i_min and shift >= cons.delta_lambda_res, peak,
        peak - cons.i_min, shift, shift - cons.delta_lambda_res, wv.a_w.imag)


def _outcome(fn, *args):
    """repr(fn(*args)), or the type and message of the error it raises."""
    try:
        return repr(fn(*args))
    except (ValueError, FitFailure) as exc:
        return f"{type(exc).__name__}: {exc}"


@settings(max_examples=20, deadline=None)
@given(beta=st.floats(-0.55, 0.05),
       areas=st.lists(st.floats(1.0, 40.0), min_size=1, max_size=17),
       i_min=st.floats(0.0, 0.01), res=st.floats(0.0, 0.03),
       i0=st.sampled_from([1.0, 1e-200]))  # 1e-200: fit scaled up, see spectral
@example(beta=0.0, areas=[2.0, 5.0], i_min=0.0, res=0.0, i0=1.0)  # orthogonal reference
@example(beta=-0.2, areas=[3.0] * 7 + [ORTHOGONAL_AREA] + [40.0] * 3,
         i_min=0.0, res=0.01, i0=1.0)  # an orthogonal row in the first stack
@example(beta=-0.3, areas=[2.0, 9.0], i_min=0.004, res=0.01, i0=1e-200)
@example(beta=6.103515625e-05, areas=[6.578125], i_min=0.0, res=0.0,
         i0=1.0)  # |A_w| about 3256: every path's fits fail alike
def test_stacked_rows_equal_one_candidate_at_a_time(beta, areas, i_min, res, i0):
    """Each area's outcome, its report's repr or its error's type and
    message, is the same from a stack, from feasible() and from the public
    pieces."""
    cons = _constraints(i_min=i_min * i0, res=res, i0=i0)
    rows = spectral._default_rows(cons.probe, design._candidates(beta, areas, cons),
                                  "exact")
    stacked = [_outcome(design._report, cons, beta, wv, spectrum)
               for _, wv, spectrum in rows]
    assert stacked == [_outcome(feasible, beta, s, cons) for s in areas]
    assert stacked == [_outcome(_unstacked_report, beta, s, cons) for s in areas]


def _sequential_scan(cons, beta, s_lo, s_hi):
    """The fallback scan one feasible() call at a time."""
    for s in np.linspace(s_lo, s_hi, design.FALLBACK_SCAN_POINTS):
        rep = feasible(beta, float(s), cons)
        if rep.feasible:
            return float(s), rep
    return None


@pytest.mark.parametrize("first", [0, 7, 8, 255, None])
def test_fallback_scan_matches_a_sequential_scan(monkeypatch, first):
    """At beta = -0.15 over (1, 60) |Im A_w| leaves the monotone regime, so
    the solver scans; the shift grows along the scan, so a resolution floor
    at the shift of one scan area makes that area the first feasible one.
    The stacked scan returns the same area, report and warning. It fits no
    probe area and no area past its answer, and the first-order screen
    spares it the fits of the areas below the floor. It screens each area
    as it reaches it: none past the stack that holds its answer."""
    beta, s_lo, s_hi = -0.15, 1.0, 60.0
    scan = np.linspace(s_lo, s_hi, design.FALLBACK_SCAN_POINTS).tolist()
    shifts = [feasible(beta, s, _constraints()).shift_nm for s in scan]
    assert all(b > a for a, b in zip(shifts, shifts[1:]))
    res = 1.01 * shifts[-1] if first is None else shifts[first]
    cons = _constraints(res=res)
    expected = _sequential_scan(cons, beta, s_lo, s_hi)
    wvs = [_weak(cons.alpha, beta, _phase(cons, s)) for s in scan]
    kept = [k for k, wv in enumerate(wvs) if not design._ruled_out(cons, wv)]

    built = []  # (spectrum, its area, which stack call built it)
    default_rows = design._default_rows

    def recorded(probe, rows, form):
        call = len({c for _, _, c in built})
        for s, wv, spectrum in default_rows(probe, rows, form):
            built.append((spectrum, s, call))
            yield s, wv, spectrum

    fitted = []

    def counted(spec):
        fitted.append(next((s, c) for b, s, c in built if b is spec))
        return spectral.fit_center(spec)

    screened = []
    ruled_out = design._ruled_out

    def screen(c, wv):
        screened.append(wv)
        return ruled_out(c, wv)

    monkeypatch.setattr(design, "_default_rows", recorded)
    monkeypatch.setattr(design, "fit_center", counted)
    monkeypatch.setattr(design, "_ruled_out", screen)
    sol = min_area(cons, [beta], (s_lo, s_hi))
    assert sol.warnings == (
        "beta = -0.15: response is outside the verified-monotone regime; "
        "falling back to an exhaustive 256-point area scan",)
    if first is None:
        assert expected is None and not sol.feasible
    else:
        area, rep = expected
        assert sol.feasible and area == scan[first]
        assert (sol.beta, sol.area_s_min, sol.peak_intensity, sol.k_achieved) == (
            beta, area, rep.peak_intensity, rep.shift_nm / cons.omega_target)
        assert all(s <= area for s, _ in fitted)
    assert all(call > 0 for _, call in fitted)  # the probe stack is call 0
    scanned = design.FALLBACK_SCAN_POINTS if first is None else first + 1
    assert len(fitted) <= scanned
    # no area past the stack of unscreened areas that holds the answer
    chunk = spectral._CHUNK_ROWS
    end = len(kept) if first is None else (kept.index(first) // chunk + 1) * chunk
    assert screened == wvs[:len(screened)]  # in order, each once
    assert len(screened) <= kept[min(end, len(kept)) - 1] + 1


def test_a_fallback_scan_evaluates_each_weak_value_once(monkeypatch):
    """The scan of test_fallback_scan_matches_a_sequential_scan with no area
    feasible, so that it screens all 256 areas and fits the kept ones: the
    screen and the stack read one weak value per area. Only the bracket's
    ends, which are also probe areas, are evaluated twice, and the phase 0
    of the zero-rotation selection is not counted."""
    beta, s_lo, s_hi = -0.15, 1.0, 60.0
    scan = np.linspace(s_lo, s_hi, design.FALLBACK_SCAN_POINTS).tolist()
    probes = np.linspace(s_lo, s_hi, design.MONOTONE_PROBE_POINTS).tolist()
    cons = _constraints(res=1.01 * feasible(beta, s_hi, _constraints()).shift_nm)
    phases = []
    original = sweep.weak_value

    def counted(sel):
        phases.append(sel.phi)
        return original(sel)

    monkeypatch.setattr(sweep, "weak_value", counted)
    sol = min_area(cons, [beta], (s_lo, s_hi))
    warning, = sol.warnings
    assert not sol.feasible and "falling back" in warning
    expected = Counter(_phase(cons, s) for s in probes + scan)
    assert Counter(phi for phi in phases if phi != 0.0) == expected


@pytest.mark.parametrize("res", [0.0, 0.01])
def test_an_orthogonal_scan_area_is_kept_by_the_screen_and_scanned(monkeypatch, res):
    """The bracket starts at ORTHOGONAL_AREA: that probe has no weak value,
    so the solver scans. The screen reads no first-order shift there and
    keeps the area, which the scan reports infeasible with its reason; it
    answers with the sequential scan's area and report."""
    beta, bracket = -0.2, (ORTHOGONAL_AREA, 1.2 * ORTHOGONAL_AREA)
    cons = _constraints(res=res)
    screened = []
    ruled_out = design._ruled_out

    def screen(c, wv):
        screened.append((wv, ruled_out(c, wv)))
        return screened[-1][1]

    monkeypatch.setattr(design, "_ruled_out", screen)
    sol = min_area(cons, [beta], bracket)
    assert isinstance(screened[0][0], NearOrthogonalSelection)  # ORTHOGONAL_AREA
    assert screened[0][1] is False
    assert "orthogonal" in feasible(beta, ORTHOGONAL_AREA, cons).reason
    area, rep = _sequential_scan(cons, beta, *bracket)
    assert area > ORTHOGONAL_AREA
    assert sol.warnings == (
        "beta = -0.2: response is outside the verified-monotone regime; "
        "falling back to an exhaustive 256-point area scan",)
    assert (sol.beta, sol.area_s_min, sol.peak_intensity, sol.k_achieved) == (
        beta, area, rep.peak_intensity, rep.shift_nm / cons.omega_target)


# ── root-finding against a plain bisection ────────────────────────────────────

def _bisection_reference(cons, beta, s_lo, s_hi):
    """Smallest feasible area by plain bisection from the bracketing pair of
    the solver's own 8-point probe, to the solver's tolerance."""
    probes = np.linspace(s_lo, s_hi, design.MONOTONE_PROBE_POINTS)
    flags = [feasible(beta, float(s), cons).feasible for s in probes]
    if flags[0]:
        return float(probes[0])
    if not any(flags):
        return None
    k = flags.index(True)
    lo, hi = float(probes[k - 1]), float(probes[k])
    while hi - lo > design.BISECTION_REL_TOL * hi:
        mid = 0.5 * (lo + hi)
        if feasible(beta, mid, cons).feasible:
            hi = mid
        else:
            lo = mid
    return hi


@settings(max_examples=25, deadline=None)
@given(betas=st.lists(st.floats(-0.55, -0.15), min_size=1, max_size=3),
       planted_area=st.floats(2.5, 17.5), i_min=st.floats(0.0, 0.008),
       omega_target=st.floats(0.01, 0.1))
@example(betas=[-0.3], planted_area=10.5, i_min=0.005, omega_target=0.05)
def test_min_area_matches_a_plain_bisection(betas, planted_area, i_min,
                                            omega_target):
    tol = design.BISECTION_REL_TOL
    planted = feasible(betas[0], planted_area, _constraints(omega=omega_target))
    cons = _constraints(i_min=min(i_min, planted.peak_intensity),
                        res=planted.shift_nm, omega=omega_target)
    sol = min_area(cons, betas, (2.0, 18.0))
    refs = [r for b in betas
            if (r := _bisection_reference(cons, b, 2.0, 18.0)) is not None]
    assert sol.feasible == bool(refs)
    if refs:
        assert abs(sol.area_s_min - min(refs)) <= tol * min(refs)
    for beta in betas:
        one = min_area(cons, [beta], (2.0, 18.0))
        if one.feasible:
            assert feasible(beta, one.area_s_min, cons).feasible
            if not one.warnings and one.area_s_min > 2.0:
                assert not feasible(beta, one.area_s_min * (1.0 - tol), cons).feasible


def test_root_finding_needs_few_feasibility_evaluations(fits):
    """Counts every fit_center call, the zero-rotation references' included:
    the probe stack is fit only at the bracketing pair its first-order
    shifts point to, and regula falsi closes the bracket in a few steps."""
    cons = _constraints(i_min=0.005, res=0.01)
    betas = [-0.5, -0.3, -0.2]  # the README design
    sol = min_area(cons, betas, (1.0, 20.0))
    assert sol.feasible and not sol.warnings
    # 3 references and 4 fits per beta; fitting every probe took 33
    assert len(fits) <= 15
    for beta in betas:
        fits.clear()
        one = min_area(cons, [beta], (1.0, 20.0))
        assert one.feasible and not one.warnings and one.area_s_min > 1.0
        assert len(fits) <= 4  # the reference is cached


@pytest.mark.parametrize("cons, betas", [
    (_constraints(i_min=0.5), [-0.5, -0.3]),
    (_constraints(res=0.2), [-0.5, -0.3, -0.2]),
], ids=["largest_probe_undetected", "largest_probe_screened_out"])
def test_an_angle_no_fit_can_make_feasible_fits_nothing(fits, cons, betas):
    """Inside the regime feasibility grows with area, so an angle whose
    largest probe area is undetected, or ruled out by the first-order
    screen, has no feasible area: it ends with no fit, not even of its
    zero-rotation reference."""
    sol = min_area(cons, betas, (1.0, 20.0))
    assert not sol.feasible and not sol.warnings
    assert fits == []
    areas = np.linspace(1.0, 20.0, 20).tolist()
    assert not any(feasible(beta, s, cons).feasible for beta in betas for s in areas)


@pytest.mark.parametrize("beta", [-0.5, -0.3, -0.2])
def test_a_largest_probe_at_six_tenths_of_the_floor_is_not_fit(fits, beta):
    """Where |Re A_w| <= 1 the screen is tight: a largest probe area whose
    first-order shift is 0.6 of the resolution floor is ruled out, so the
    angle ends with no fit, not even of its zero-rotation reference."""
    cons = _constraints(i_min=0.005)
    wv = _weak(cons.alpha, beta, _phase(cons, 20.0))
    assert abs(wv.a_w.real) <= 1.0
    first = abs(analytic_wavelength_shift(PROBE, wv.a_w))
    cons = replace(cons, delta_lambda_res=first / 0.6)
    sol = min_area(cons, [beta], (1.0, 20.0))
    assert not sol.feasible and not sol.warnings
    assert fits == []
    assert not feasible(beta, 20.0, cons).feasible


def test_a_probe_the_walk_does_not_reach_raises_nothing(monkeypatch, fits):
    """The regime reads every probe's peak, which its spectrum carries and
    which never raises: an error planted in the fit start of a probe the
    walk does not fit leaves the solution as it was, and one planted in a
    fitted probe's is raised."""
    cons = _constraints(i_min=0.005, res=0.01)
    default_rows, fit_start, probes, plant = (design._default_rows,
                                              spectral._fit_start, [], [])

    def recorded(probe, rows, form):  # the spectra of the 8-row probe stack
        rows = list(rows)
        for s, wv, spec in default_rows(probe, rows, form):
            if len(rows) == design.MONOTONE_PROBE_POINTS:
                probes.append(spec)
            yield s, wv, spec

    def planted(spec):
        if any(k < len(probes) and probes[k] is spec for k in plant):
            raise RuntimeError("planted")
        return fit_start(spec)

    monkeypatch.setattr(design, "_default_rows", recorded)
    monkeypatch.setattr(spectral, "_fit_start", planted)
    clean = min_area(cons, [-0.3], (1.0, 20.0))
    assert clean.feasible and not clean.warnings
    assert len(probes) == design.MONOTONE_PROBE_POINTS
    fitted = [any(spec is fit for fit in fits) for spec in probes]
    assert 0 < sum(fitted) < len(fitted)
    for k, was_fit in enumerate(fitted):
        plant[:], probes[:] = [k], []
        if was_fit:
            with pytest.raises(RuntimeError, match="planted"):
                min_area(cons, [-0.3], (1.0, 20.0))
        else:
            assert repr(min_area(cons, [-0.3], (1.0, 20.0))) == repr(clean)


def test_every_fit_start_belongs_to_a_fit(monkeypatch, fits):
    """The README design makes 15 fits, the zero-rotation references'
    included, and works out a fit start for each of them and for no other
    spectrum: the probes the walk skips compute no moments."""
    fit_start, starts = spectral._fit_start, []

    def counted(spec):
        starts.append(spec)
        return fit_start(spec)

    monkeypatch.setattr(spectral, "_fit_start", counted)
    cons = _constraints(i_min=0.005, res=0.01)
    sol = min_area(cons, [-0.5, -0.3, -0.2], (1.0, 20.0))
    assert sol.feasible and not sol.warnings
    assert len(fits) == 15
    assert len(starts) == len(fits)
    assert all(start is fit for start, fit in zip(starts, fits))


# ── the fit-free regime against fitting every probe ───────────────────────────

def _fit_every_probe(cons, beta, s_lo, s_hi, warnings, regimes):
    """The solver that took its regime from the fits of all 8 probe areas,
    inside that regime; `regimes` records whether the regime held, and an
    angle outside it is None here. Where the probe peaks fall through the
    detection floor that regime is not recorded as holding: there it could
    miss a feasible interval between two probes (see
    test_a_feasible_interval_between_two_probes_is_found)."""
    probes = np.linspace(s_lo, s_hi, design.MONOTONE_PROBE_POINTS).tolist()
    reports = [feasible(beta, s, cons) for s in probes]
    shifts = [r.shift_nm for r in reports]
    flags = [r.feasible for r in reports]
    detected = [r.peak_intensity >= cons.i_min for r in reports]
    regimes.append(
        all(not r.reason for r in reports)
        and all(abs(r.im_aw) <= design.MONOTONE_IM_AW_MAX for r in reports)
        and all(b - a >= -1e-12 for a, b in zip(shifts, shifts[1:]))
        and flags == sorted(flags) and detected == sorted(detected))
    if not (regimes[-1] and flags[-1]):
        return None
    if flags[0]:
        return probes[0], reports[0]
    k = flags.index(True)
    return design._illinois(cons, beta, probes[k - 1], reports[k - 1],
                            probes[k], reports[k])


@settings(max_examples=30, deadline=None)
@given(betas=st.lists(st.floats(-0.55, -0.15), min_size=1, max_size=3),
       s_lo=st.floats(1.0, 79.0), span=st.floats(0.01, 1.0),
       planted=st.floats(0.0, 1.0), res_scale=st.floats(0.0, 1.5),
       i_scale=st.floats(0.0, 1.02), omega=st.floats(0.01, 0.1),
       width_ratio=st.floats(1e-4, 0.06))
@example(betas=[-0.5, -0.3, -0.2], s_lo=1.0, span=19 / 79, planted=0.43,
         res_scale=1.0, i_scale=0.1, omega=0.05, width_ratio=10 / 1550)
@example(betas=[-0.2], s_lo=2.0, span=0.2, planted=0.0, res_scale=0.9,
         i_scale=0.5, omega=0.1, width_ratio=1e-4)
@example(betas=[-0.25, -0.35], s_lo=1.0, span=0.3, planted=1.0, res_scale=1.2,
         i_scale=0.0, omega=0.05, width_ratio=0.06)
@example(betas=[-0.3], s_lo=1.0, span=19 / 79, planted=0.0, res_scale=0.0,
         i_scale=1.02, omega=0.05, width_ratio=10 / 1550)  # largest probe undetected
@example(betas=[-0.2, -0.55], s_lo=1.0, span=19 / 79, planted=1.0, res_scale=1.5,
         i_scale=0.0, omega=0.05, width_ratio=10 / 1550)  # -0.55's screened out
# near beta = -alpha the fitted shift exceeds the first-order one: the first
# probe predicted feasible is one too high, and the walk steps down from it
@example(betas=[-0.051], s_lo=9.8, span=0.08, planted=0.81, res_scale=1.018,
         i_scale=0.0, omega=0.014, width_ratio=0.03)
def test_fit_free_regime_matches_fitting_every_probe(
        betas, s_lo, span, planted, res_scale, i_scale, omega, width_ratio):
    """Wherever the regime taken from all 8 probe fits holds, with no peak
    falling through the detection floor, the solver that decides it from
    first-order shifts and peaks, and fits only the bracketing probes, gives
    the same solution, bit for bit."""
    probe = SpectrumModel(i0=1.0, lambda0=1550.0,
                          width_dlambda=width_ratio * 1550.0)
    base = DesignConstraints(i0=1.0, i_min=0.0, delta_lambda_res=0.0,
                             omega_target=omega, alpha=0.1, probe=probe)
    bracket = (s_lo, s_lo + span * (80.0 - s_lo))
    rep = feasible(betas[0], bracket[0] + planted * (bracket[1] - bracket[0]),
                   base)
    cons = replace(base, i_min=i_scale * rep.peak_intensity,
                   delta_lambda_res=res_scale * rep.shift_nm)
    solution = min_area(cons, betas, bracket)
    regimes = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(design, "_min_area_for_beta",
                   partial(_fit_every_probe, regimes=regimes))
        reference = min_area(cons, betas, bracket)
    if all(regimes):
        assert repr(solution) == repr(reference)


RECORDED = json.loads((Path(__file__).parent / "recorded_designs.json").read_text())


def _records(keep=lambda case: True):
    """The recorded designs whose case `keep` accepts, with their test ids."""
    records = [r for r in RECORDED["designs"] if keep(r["case"])]
    return pytest.mark.parametrize(
        "record", records,
        ids=[re.sub(r"\W+", "_", r["case"]).strip("_") for r in records])


@_records()
def test_design_matches_recorded_parent_design(record):
    """min_area as recorded by the solver that fit every probe (the
    |Re A_w| above 1 case by the solver whose screen allowed twice the
    first-order shift; its answer is the one-area-at-a-time scan's): the same
    angle, area, k, peak, verdict and warnings, bit for bit."""
    cons = DesignConstraints(probe=SpectrumModel(**record["probe"]),
                             **record["constraints"])
    sol = min_area(cons, record["beta_grid"], tuple(record["area_bracket"]))
    expected = record["solution"]
    assert sol.feasible is expected["feasible"]
    assert list(sol.warnings) == expected["warnings"]
    for name in ("beta", "area_s_min", "k_achieved", "peak_intensity"):
        assert getattr(sol, name).hex() == expected[name], name


# fit_center calls of min_area, the zero-rotation references' included, from
# a cold reference cache: a looser screen fits more
SCAN_FITS = {"fallback scan: |Im A_w| leaves the regime": 3,
             "fallback scan beside regime betas": 10,
             "fallback scan: none feasible": 182,
             "fallback scan: peaks fall through the detection floor": 3,
             "fallback scan: |Re A_w| above 1": 50}


@_records(SCAN_FITS.__contains__)
def test_recorded_scans_fit_only_the_areas_the_screen_keeps(fits, record):
    cons = DesignConstraints(probe=SpectrumModel(**record["probe"]),
                             **record["constraints"])
    min_area(cons, record["beta_grid"], tuple(record["area_bracket"]))
    assert len(fits) == SCAN_FITS[record["case"]]


def test_a_feasible_interval_between_two_probes_is_found():
    """Peaks fall with area at beta = -0.15. With the detection floor
    between the 5th and 6th probe peaks and the resolution floor just above
    the 5th probe's shift, no probe is feasible, yet the areas from about
    23.5 to 27 are. Peaks that fall through the floor leave the regime, so
    the scan finds the interval, where fitting every probe read the all-
    infeasible flags as sorted and returned no area."""
    cons = _constraints(i_min=0.022305, res=0.0228)
    probes = np.linspace(1.0, 40.0, design.MONOTONE_PROBE_POINTS).tolist()
    reports = [feasible(-0.15, s, cons) for s in probes]
    assert reports[4].peak_intensity > cons.i_min > reports[5].peak_intensity
    assert not any(r.feasible for r in reports)
    assert feasible(-0.15, 25.0, cons).feasible
    sol = min_area(cons, [-0.15], (1.0, 40.0))
    area, rep = _sequential_scan(cons, -0.15, 1.0, 40.0)
    assert (sol.beta, sol.area_s_min, sol.peak_intensity, sol.k_achieved) == (
        -0.15, area, rep.peak_intensity, rep.shift_nm / cons.omega_target)
    assert 23.3 < area < 23.8
    assert sol.warnings == (
        "beta = -0.15: response is outside the verified-monotone regime; "
        "falling back to an exhaustive 256-point area scan",)


# ── the first-order screen of the fallback scan ───────────────────────────────

@settings(max_examples=100, deadline=None)
@given(alpha=st.floats(-1.5, 1.5),
       offset=st.one_of(st.floats(-0.5, 0.5), st.floats(-0.01, 0.01)),
       area_s=st.floats(1.0, 80.0), omega=st.floats(1e-9, 0.1),
       width_ratio=st.floats(3e-4, 0.1), lambda0=st.floats(400.0, 2000.0))
@example(alpha=0.1, offset=-0.005, area_s=40.0, omega=0.05, width_ratio=10 / 1550,
         lambda0=1550.0)
@example(alpha=0.1, offset=0.0095, area_s=80.0, omega=0.1, width_ratio=0.06,
         lambda0=1550.0)
@example(alpha=0.1, offset=-0.2, area_s=1.0, omega=1e-9, width_ratio=1e-4,
         lambda0=1550.0)  # ~1e-13 nm
@example(alpha=0.1, offset=-0.05, area_s=60.0, omega=0.05, width_ratio=10 / 1550,
         lambda0=1550.0)
@example(alpha=0.1, offset=-0.45, area_s=1.0, omega=1e-9, width_ratio=0.0587,
         lambda0=800.0)  # wide
@example(alpha=0.33, offset=0.165, area_s=26.0, omega=0.011, width_ratio=0.02,
         lambda0=1800.0)  # Re A_w -2.89: 1.026 times the first-order shift
@example(alpha=-0.1, offset=-0.071, area_s=67.0, omega=0.00026, width_ratio=0.01,
         lambda0=500.0)  # Re A_w -5.87: 1.043 times
@example(alpha=-0.82, offset=0.329, area_s=73.0, omega=2.2e-6, width_ratio=0.093,
         lambda0=1800.0)  # Re A_w -0.52, a window step: 1.61 times
@example(alpha=0.15, offset=0.052, area_s=48.7, omega=3.8e-7, width_ratio=0.066,
         lambda0=880.0)  # Re A_w -2.05, a window step: 5.1 times
def test_the_screen_skips_only_infeasible_areas(alpha, offset, area_s, omega,
                                                width_ratio, lambda0):
    """The fallback scan and the regime walk skip an area, unfitted, when
    _ruled_out bounds its fitted shift below the resolution floor. Every
    floor at which the area is feasible lies at or above its fitted shift,
    so the screen must keep the area at that floor. beta = -alpha + offset
    puts |Re A_w| anywhere up to 30. Near beta = -alpha the Re(A_w)^2 term
    brings the fitted shift closest to the first-order one where
    |Re A_w| <= 1, and above 1 it takes the fitted shift past it (the ratios
    marked, after the rounding allowance); near 1e-13 nm fit noise is of the
    shift's size; for a wide probe the noise of the fitted centers is above
    1e-9 nm; and where one fit window is a grid step off the other, the
    fitted shift of a wide, distorted spectrum can be many times a tiny
    first-order one."""
    probe = SpectrumModel(i0=1.0, lambda0=lambda0,
                          width_dlambda=width_ratio * lambda0)
    cons = DesignConstraints(i0=1.0, i_min=0.0, delta_lambda_res=0.0,
                             omega_target=omega, alpha=alpha, probe=probe)
    beta = -alpha + offset
    assume(not isinstance(_weak(alpha, beta, 0.0), NearOrthogonalSelection))
    wv = _weak(alpha, beta, _phase(cons, area_s))
    assume(not isinstance(wv, NearOrthogonalSelection) and abs(wv.a_w.real) <= 30)
    shift = feasible(beta, area_s, cons).shift_nm
    assert not design._ruled_out(replace(cons, delta_lambda_res=shift), wv)


@pytest.mark.parametrize("margin, feasible_at", [
    (lambda s: (s / 7.3) ** 3 - 1.0, None),
    (lambda s: (s / 7.3) ** 10 - 1.0, None),
    (lambda s: (s / 7.3) ** 0.1 - 1.0, None),
    (lambda s: 1.0 - (s / 7.3) ** -5, None),
    # the detection floor decides: the shift margin never changes sign
    (lambda s: 1.0, lambda s: s >= 7.3),
], ids=["cube", "tenth_power", "tenth_root", "inverse_fifth", "detection_floor"])
def test_illinois_needs_no_more_steps_than_bisection(monkeypatch, margin,
                                                     feasible_at):
    """Curved margins, where plain regula falsi creeps in from one side."""
    tol = design.BISECTION_REL_TOL
    steps = []

    def synthetic(beta, s, constraints):
        steps.append(s)
        m = margin(s)
        ok = m >= 0.0 if feasible_at is None else feasible_at(s)
        return design.FeasibilityReport(ok, 1.0, 1.0, m, m, 0.0)

    monkeypatch.setattr(design, "feasible", synthetic)
    lo, hi = 4.0, 12.0
    lo_rep, hi_rep = synthetic(-0.3, lo, None), synthetic(-0.3, hi, None)
    steps.clear()
    area, rep = design._illinois(None, -0.3, lo, lo_rep, hi, hi_rep)
    assert rep.feasible and 7.3 <= area <= 7.3 * (1.0 + tol)
    assert len(steps) <= math.ceil(math.log2((hi - lo) / (tol * 7.3)))  # 14


def test_concurrent_runs_give_the_serial_results():
    """README: every function is safe for concurrent use. The eight
    benchmark sweeps (at 51 rates), two design solves (one of them falls
    back to the scan) and feasible() calls sharing one DesignConstraints,
    run on 4 threads from cold caches, give the serial results."""
    def jobs(cons):
        return ([partial(run_sweep, replace(m, omega_range=(-0.1, 0.1, 51)), form)
                 for m in benchmark_models(1550.0, 10.0) for form in ("exact", "paper")]
                + [partial(min_area, cons, [-0.5, -0.3, -0.2], (1.0, 20.0)),
                   partial(min_area, replace(cons, delta_lambda_res=0.02), [-0.15],
                           (1.0, 60.0))]
                + [partial(feasible, beta, area, cons)
                   for beta in (-0.3, -0.2) for area in (4.0, 12.0)])

    serial = [repr(job()) for job in jobs(_constraints(i_min=0.005, res=0.01))]
    design._reference_center.cache_clear()
    spectral._default_basis.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)  # switch threads often, to expose races
    try:
        with ThreadPoolExecutor(4) as pool:
            threaded = list(pool.map(lambda job: repr(job()),
                                     jobs(_constraints(i_min=0.005, res=0.01)),
                                     timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial
    assert "falling back" in serial[9]
