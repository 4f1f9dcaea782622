"""Inverse design: smallest loop area meeting detection and resolution floors.

Given the source intensity, the spectrometer's detection floor and the
rotation accuracy that must be resolved, the solver searches post-selection
angles and loop areas for the smallest area whose fitted center shift at the
target rate clears the resolution floor while the detected peak stays above
the detection floor.

Each angle's smallest area is found by Illinois regula falsi on the shift
margin to BISECTION_REL_TOL (1e-4) relative, started from the bracketing
pair of an 8-point probe whose regime the first-order shift and the peaks
decide with no fit. Each angle is read in one pass, which evaluates each
area's weak value once, and screens and fits an area, and fits the
zero-rotation reference, only when it reaches them; every area it fits is
fit bit for bit as feasible() would fit it.

The screen skips, unfit, an area whose fitted shift the closed form bounds
below the resolution floor (_ruled_out): 1.01 times the first-order shift
where |Re A_w| <= 1, where the fitted shift was measured at most 0.99979
times it, and 2 times above 1, where it reached 1.028 (|Re A_w| 1-3), 1.056
(3-10) and 1.060 (above 10); plus the fits' rounding and the grid step by
which one fit window can sit off the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache, lru_cache

import numpy as np

from .classical import InterferometerConfig
from .errors import NearOrthogonalSelection
from .spectral import (FIT_RELATIVE_TOL, FORM_EXACT, SpectrumModel, _default_rows,
                       _quiet, fit_center)
from .sweep import _weak
from .weak import analytic_wavelength_shift, sagnac_phase

# Relative width of the final area bracket: the returned area is feasible and
# lies within this of an infeasible one. Named for the whole-bracket bisection
# that regula falsi replaced; areas match it to this tolerance, not bit for bit.
BISECTION_REL_TOL = 1e-4
MONOTONE_PROBE_POINTS = 8  # areas sampled to verify the monotone regime
MONOTONE_IM_AW_MAX = 0.05  # |Im A_w| bound inside the trusted-monotone regime
FALLBACK_SCAN_POINTS = 256
_TIE_REL = 1e-9            # areas this close count as tied between angles


@dataclass(frozen=True)
class DesignConstraints:
    i0: float                # source peak intensity (probe.i0 is set to it)
    i_min: float             # spectrometer detection floor, same units
    delta_lambda_res: float  # smallest resolvable center shift, nm
    omega_target: float      # rotation accuracy to resolve, rad/s
    alpha: float             # fixed pre-selection angle, rad
    probe: SpectrumModel

    def __post_init__(self):
        object.__setattr__(self, "probe", replace(self.probe, i0=self.i0))  # checks i0
        # zero floors are allowed: they make the corresponding constraint vacuous
        if not (math.isfinite(self.i_min) and 0 <= self.i_min < self.i0):
            raise ValueError(
                f"i_min must lie in [0, i0), got {self.i_min} with i0 {self.i0}")
        if not (math.isfinite(self.delta_lambda_res) and self.delta_lambda_res >= 0):
            raise ValueError(
                f"delta_lambda_res must be nonnegative, got {self.delta_lambda_res}")
        if not (math.isfinite(self.omega_target) and self.omega_target > 0):
            raise ValueError(
                f"omega_target must be positive, got {self.omega_target}")
        if not math.isfinite(self.alpha):
            raise ValueError("alpha must be finite")


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    peak_intensity: float      # detected peak at the target rate
    intensity_margin: float    # peak_intensity - i_min
    shift_nm: float            # |fitted center shift| at the target rate
    shift_margin_nm: float     # shift_nm - delta_lambda_res
    im_aw: float               # Im(A_w) at the target rate
    reason: str = ""           # set when infeasible for a structural reason


@dataclass(frozen=True)
class DesignSolution:
    beta: float
    area_s_min: float
    k_achieved: float       # nm per rad/s at the solution point
    peak_intensity: float
    feasible: bool
    warnings: tuple[str, ...] = ()


@lru_cache(maxsize=256)
def _reference_weak(alpha: float, beta: float):
    """The zero-rotation weak value of a selection, or its NearOrthogonalSelection,
    shared by every area and call at that selection."""
    return _weak(alpha, beta, 0.0)


@lru_cache(maxsize=256)
def _reference_center(probe: SpectrumModel, alpha: float, beta: float) -> float:
    """Fitted zero-rotation center (nm), shared by every area and call at one
    selection, which _candidates checks is not orthogonal. Exceptions are not cached."""
    (_, _, spectrum), = _default_rows(probe, [(0.0, _reference_weak(alpha, beta))],
                                      FORM_EXACT)
    return fit_center(spectrum).center


def feasible(beta: float, area_s: float,
             constraints: DesignConstraints) -> FeasibilityReport:
    """Evaluate one (beta, area) candidate at the target rate.

    Checks (a) the detected peak intensity against the detection floor and
    (b) the magnitude of the fitted center shift, relative to the fitted
    zero-rotation center, against the resolution floor. Both margins are
    reported. Near-orthogonal selections are infeasible with a reason, not
    an error.
    """
    if not (math.isfinite(area_s) and area_s > 0):
        raise ValueError(f"area_s must be positive, got {area_s}")
    (_, wv, spectrum), = _default_rows(
        constraints.probe, _candidates(beta, [area_s], constraints), FORM_EXACT)
    return _report(constraints, beta, wv, spectrum)


def _candidates(beta: float, areas, c: DesignConstraints):
    """Yield (area, weak value at the target rate) for each positive area of
    `areas`, in order, the pairs _default_rows reads; the weak value is the
    NearOrthogonalSelection of a selection that is effectively orthogonal,
    and that of the zero-rotation selection for every area when it is."""
    reference = _reference_weak(c.alpha, beta)
    if isinstance(reference, NearOrthogonalSelection):
        yield from ((s, reference) for s in areas)
        return
    for s in areas:
        cfg = InterferometerConfig.from_nm(s, c.probe.lambda0)
        yield s, _weak(c.alpha, beta, sagnac_phase(cfg, c.omega_target))


def _report(c: DesignConstraints, beta: float, wv, spectrum) -> FeasibilityReport:
    """feasible()'s report of a weak value and spectrum of _default_rows,
    fit here with its reference."""
    if spectrum is None:
        return FeasibilityReport(False, 0.0, -c.i_min, 0.0, -c.delta_lambda_res,
                                 math.nan, reason=str(wv))
    reference = _reference_center(c.probe, c.alpha, beta)
    shift = abs(fit_center(spectrum).center - reference)
    peak = spectrum._peak
    return FeasibilityReport(
        feasible=(peak >= c.i_min and shift >= c.delta_lambda_res),
        peak_intensity=peak, intensity_margin=peak - c.i_min,
        shift_nm=shift, shift_margin_nm=shift - c.delta_lambda_res,
        im_aw=wv.a_w.imag)


def _ruled_out(c: DesignConstraints, wv) -> bool:
    """Whether the first-order shift alone shows infeasible an area whose
    _candidates weak value is `wv`; False for a NearOrthogonalSelection in
    its place, which the fallback scan passes on to _report. Inside the
    monotone bound on |Im A_w| the fitted shift stays below

        f |first-order shift| + (1e-7 + 1e-3 D) W + 10 FIT_RELATIVE_TOL lambda0

    with f = 1.01 where |Re A_w| <= 1 and 2 above it. Less the other terms,
    the fitted shift was at most 0.99979 times the first-order one where
    |Re A_w| <= 1; above it the exact form's Re(A_w)^2 term took it to 1.028
    (|Re A_w| 1-3), 1.056 (3-10) and 1.060 (above 10, peaking near
    |Re A_w| W / lambda0 = 0.08). For each of the two fitted centers, 1e-7 W
    and the tolerance term are three times a fit's rounding floor,
    sqrt(eps) W, and five times the fits' stop tolerance. D =
    (||A_w|^2 - 1| + |Im A_w|) (2 pi W / lambda0)^2 is how far the spectrum
    departs from the probe's Gaussian, its modulation being
    |m+n|^2 (1 + Im(A_w) sin 2pg + (|A_w|^2 - 1) sin^2 pg). A fit window
    edge can sit up to two grid steps off where the other spectrum's puts
    it, and each step moved a fitted center by up to 1.6e-4 D W, whatever
    the first-order shift: 1e-3 D W covers both edges. All of this was
    measured on exact-form selections with alpha in +-1.5, beta near
    -alpha, |Re A_w| up to 30, W / lambda0 from 3e-4 to 0.1 and lambda0
    from 400 to 2000 nm."""
    if isinstance(wv, NearOrthogonalSelection) or abs(wv.a_w.imag) > MONOTONE_IM_AW_MAX:
        return False
    a_w, width, lambda0 = wv.a_w, c.probe.width_dlambda, c.probe.lambda0
    factor = 1.01 if abs(a_w.real) <= 1.0 else 2.0
    distortion = ((abs(abs(a_w) ** 2 - 1.0) + abs(a_w.imag))
                  * (2.0 * math.pi * width / lambda0) ** 2)
    return (factor * abs(analytic_wavelength_shift(c.probe, a_w))
            + (1e-7 + 1e-3 * distortion) * width + 10 * FIT_RELATIVE_TOL * lambda0
            < c.delta_lambda_res)


def _min_area_for_beta(c: DesignConstraints, beta: float,
                       s_lo: float, s_hi: float, warnings: list[str]
                       ) -> tuple[float, FeasibilityReport] | None:
    probes = np.linspace(s_lo, s_hi, MONOTONE_PROBE_POINTS).tolist()
    rows = list(_default_rows(c.probe, _candidates(beta, probes, c),
                              FORM_EXACT))  # one stack, nothing fit yet
    if all(spectrum is None for _, _, spectrum in rows):
        warnings.append(f"beta = {beta:g}: every probed area is infeasible: "
                        f"{rows[0][1]}")
        return None

    # the regime, with no fit: first-order shifts that never fall, and no peak
    # that falls through the detection floor (it can hide a feasible interval)
    if all(sp is not None and abs(wv.a_w.imag) <= MONOTONE_IM_AW_MAX
           for _, wv, sp in rows):
        shifts = [abs(analytic_wavelength_shift(c.probe, wv.a_w)) for _, wv, _ in rows]
        detected = [spectrum._peak >= c.i_min for _, _, spectrum in rows]
        if (all(b >= a for a, b in zip(shifts, shifts[1:]))
                and detected == sorted(detected)):
            # an undetected or screened-out largest area leaves none feasible
            if not detected[-1] or _ruled_out(c, rows[-1][1]):
                return None
            # fit from the first probe predicted feasible (else the last) to
            # the adjacent fitted (infeasible, feasible) pair, hi - 1 and hi
            report = cache(lambda k: _report(c, beta, *rows[k][1:]))
            hi = next((k for k, (shift, ok) in enumerate(zip(shifts, detected))
                       if ok and shift >= c.delta_lambda_res), len(rows) - 1)
            while hi > 0 and report(hi).feasible and report(hi - 1).feasible:
                hi -= 1
            while hi < len(rows) and not report(hi).feasible:
                hi += 1
            if hi in (0, len(rows)):
                return (probes[0], report(0)) if hi == 0 else None
            return _illinois(c, beta, probes[hi - 1], report(hi - 1),
                             probes[hi], report(hi))

    warnings.append(
        f"beta = {beta:g}: response is outside the verified-monotone regime; "
        f"falling back to an exhaustive {FALLBACK_SCAN_POINTS}-point area scan")
    areas = np.linspace(s_lo, s_hi, FALLBACK_SCAN_POINTS).tolist()
    kept = ((s, wv) for s, wv in _candidates(beta, areas, c) if not _ruled_out(c, wv))
    return next(((s, rep) for s, wv, sp in _default_rows(c.probe, kept, FORM_EXACT)
                 if (rep := _report(c, beta, wv, sp)).feasible), None)


def _illinois(constraints: DesignConstraints, beta: float,
              lo: float, lo_rep: FeasibilityReport,
              hi: float, hi_rep: FeasibilityReport
              ) -> tuple[float, FeasibilityReport]:
    """Shrink an infeasible-lo / feasible-hi area bracket to
    BISECTION_REL_TOL * hi by the Illinois variant of regula falsi on the
    shift margin (Dowell & Jarratt, BIT 11, 1971); returns the feasible end.

    The feasible verdict moves the bracket; the margin only places the next
    point. When one end is kept twice in a row its margin is halved, which
    stops regula falsi from creeping in from one side. Each point is kept
    0.25 * BISECTION_REL_TOL * hi inside the bracket, so a secant point that
    lands next to the root brackets it on the next step. Where the margin
    does not change sign (the detection floor, not the resolution floor,
    decides) the step is a plain midpoint.
    """
    f_lo, f_hi = lo_rep.shift_margin_nm, hi_rep.shift_margin_nm
    kept = 0  # +1: hi moved last (lo kept), -1: lo moved last (hi kept)
    while hi - lo > BISECTION_REL_TOL * hi:
        if f_lo < 0.0 <= f_hi:
            inset = 0.25 * BISECTION_REL_TOL * hi
            s = hi - f_hi * (hi - lo) / (f_hi - f_lo)
            s = min(max(s, lo + inset), hi - inset)
        else:
            s = 0.5 * (lo + hi)
        rep = feasible(beta, s, constraints)
        if rep.feasible:
            hi, f_hi, hi_rep = s, rep.shift_margin_nm, rep
            if kept == 1:
                f_lo *= 0.5
            kept = 1
        else:
            lo, f_lo = s, rep.shift_margin_nm
            if kept == -1:
                f_hi *= 0.5
            kept = -1
    return hi, hi_rep


def min_area(constraints: DesignConstraints, beta_grid: list[float],
             area_bracket: tuple[float, float]) -> DesignSolution:
    """Smallest feasible loop area over the post-selection angle grid.

    For each angle an 8-point probe first confirms, with no fit, the regime
    where the shift grows monotonically with area: |Im A_w| at most
    MONOTONE_IM_AW_MAX, first-order shifts that never fall and no detected
    peak before an undetected one. There an angle fits nothing if its largest
    probe is undetected or screened out (below), and Illinois regula falsi
    locates the smallest feasible area, to BISECTION_REL_TOL relative,
    between adjacent infeasible and feasible probes. Outside it the solver
    says so and scans, screening each area as it reaches it and skipping,
    unfit, those the first-order shift rules out; it names any angle whose
    every probed area is orthogonal. The scan answers as a scan one area at
    a time, fits no area past its answer and raises no error of an area it
    skips. An angle's reference is fit with its first candidate. The least
    area of all angles is returned; ties go to the smaller |beta|, then the
    smaller beta.
    """
    s_lo, s_hi = area_bracket
    if not (math.isfinite(s_lo) and math.isfinite(s_hi) and 0 < s_lo < s_hi):
        raise ValueError(f"area bracket must satisfy 0 < lo < hi, got {area_bracket}")
    if len(beta_grid) == 0:
        raise ValueError("beta_grid must not be empty")

    warnings: list[str] = []
    best: tuple[float, float, FeasibilityReport] | None = None  # (area, beta, report)
    with _quiet():  # one np.errstate for the stacks and every fit
        for beta in beta_grid:
            found = _min_area_for_beta(constraints, float(beta), s_lo, s_hi, warnings)
            if found is None:
                continue
            area, rep = found
            if (best is None or area < best[0] * (1.0 - _TIE_REL)
                    or (area <= best[0] * (1.0 + _TIE_REL)
                        and (abs(beta), beta) < (abs(best[1]), best[1]))):
                best = (area, float(beta), rep)

    if best is None:
        return DesignSolution(beta=math.nan, area_s_min=math.nan,
                              k_achieved=math.nan, peak_intensity=math.nan,
                              feasible=False, warnings=tuple(warnings))
    area, beta, rep = best
    return DesignSolution(beta=beta, area_s_min=area,
                          k_achieved=rep.shift_nm / constraints.omega_target,
                          peak_intensity=rep.peak_intensity, feasible=True,
                          warnings=tuple(warnings))
