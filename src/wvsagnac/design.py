"""Inverse design: smallest loop area meeting detection and resolution floors.

Given the source intensity, the spectrometer's detection floor and the
rotation accuracy that must be resolved, the solver searches post-selection
angles and loop areas for the smallest area whose fitted center shift at the
target rate clears the resolution floor while the detected peak stays above
the detection floor.

Each angle's smallest area is found by Illinois regula falsi on the shift
margin to BISECTION_REL_TOL (1e-4) relative, started from the bracketing
pair of an 8-point regime probe.

Every candidate area, of the regime probe, the fallback scan or a regula
falsi step, is fit bit for bit as feasible() would fit it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .classical import InterferometerConfig
from .errors import NearOrthogonalSelection
from .spectral import FORM_EXACT, SpectrumModel, fit_center
from .sweep import _evaluated_rows, reference_center
from .weak import sagnac_phase

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
        if not (math.isfinite(self.i0) and self.i0 > 0):
            raise ValueError(f"i0 must be positive, got {self.i0}")
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
        object.__setattr__(self, "probe", replace(self.probe, i0=self.i0))


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


# Zero-rotation reference center per (probe, alpha, beta), shared by every
# area and every call at one selection. Exceptions are not cached.
_reference_center = lru_cache(maxsize=256)(reference_center)


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
    report, = _feasible_rows(beta, [area_s], constraints)
    return report


def _orthogonal_report(c: DesignConstraints,
                       exc: NearOrthogonalSelection) -> FeasibilityReport:
    return FeasibilityReport(False, 0.0, -c.i_min, 0.0, -c.delta_lambda_res,
                             math.nan, reason=str(exc))


def _feasible_rows(beta: float, areas, constraints: DesignConstraints):
    """Yield feasible(beta, s, constraints) for each positive area s of
    `areas`, in order, bit for bit, reading the spectra at the target rate
    out as stacks (sweep._evaluated_rows).

    Each candidate is fit only when its report is asked for, so a caller
    that stops early fits nothing past its answer; the stack it stopped in
    has its spectra built, and any error of a row is raised at its turn.
    """
    if not math.isfinite(beta):
        raise ValueError("beta must be finite")
    c = constraints
    try:
        ref_center = _reference_center(c.probe, c.alpha, beta)
    except NearOrthogonalSelection as exc:
        for _ in areas:
            yield _orthogonal_report(c, exc)
        return
    phases = (sagnac_phase(InterferometerConfig.from_nm(s, c.probe.lambda0),
                           c.omega_target) for s in areas)
    for _, wv, spectrum in _evaluated_rows(c.probe, c.alpha, beta, phases,
                                           FORM_EXACT):
        if spectrum is None:
            yield _orthogonal_report(c, wv)
            continue
        shift = abs(fit_center(spectrum).center - ref_center)
        peak = spectrum._fit_setup.peak  # the stack's row maximum
        yield FeasibilityReport(
            feasible=(peak >= c.i_min and shift >= c.delta_lambda_res),
            peak_intensity=peak, intensity_margin=peak - c.i_min,
            shift_nm=shift, shift_margin_nm=shift - c.delta_lambda_res,
            im_aw=wv.a_w.imag)


def _min_area_for_beta(constraints: DesignConstraints, beta: float,
                       s_lo: float, s_hi: float, warnings: list[str]
                       ) -> tuple[float, FeasibilityReport] | None:
    probes = np.linspace(s_lo, s_hi, MONOTONE_PROBE_POINTS).tolist()
    reports = list(_feasible_rows(beta, probes, constraints))
    if all(r.reason for r in reports):
        warnings.append(f"beta = {beta:g}: every probed area is infeasible: "
                        f"{reports[0].reason}")
        return None

    shifts = [r.shift_nm for r in reports]
    flags = [r.feasible for r in reports]
    in_regime = (
        all(not r.reason for r in reports)
        and all(abs(r.im_aw) <= MONOTONE_IM_AW_MAX for r in reports)
        and all(b - a >= -1e-12 for a, b in zip(shifts, shifts[1:]))
        and flags == sorted(flags)  # infeasible areas strictly before feasible ones
    )

    if in_regime:
        if reports[0].feasible:
            return probes[0], reports[0]
        if not reports[-1].feasible:
            return None
        k = flags.index(True)
        return _illinois(constraints, beta, probes[k - 1], reports[k - 1],
                         probes[k], reports[k])

    warnings.append(
        f"beta = {beta:g}: response is outside the verified-monotone regime; "
        f"falling back to an exhaustive {FALLBACK_SCAN_POINTS}-point area scan")
    scan = np.linspace(s_lo, s_hi, FALLBACK_SCAN_POINTS).tolist()
    for s, rep in zip(scan, _feasible_rows(beta, scan, constraints)):
        if rep.feasible:
            return s, rep
    return None


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

    For each angle an 8-point probe first confirms the regime where the
    shift magnitude grows monotonically with area (|Im A_w| small); there
    the smallest feasible area is located by Illinois regula falsi between
    the last infeasible and the first feasible probe, to BISECTION_REL_TOL
    relative. Outside that regime the solver degrades to an exhaustive scan
    and says so, and names any angle whose every probed area is orthogonal;
    the scan fits no area past its answer, so its answer, its errors and its
    fits are those of a scan one area at a time. The returned area is the
    least of all angles; ties go to the smaller |beta|, then the smaller beta.
    """
    s_lo, s_hi = area_bracket
    if not (math.isfinite(s_lo) and math.isfinite(s_hi) and 0 < s_lo < s_hi):
        raise ValueError(f"area bracket must satisfy 0 < lo < hi, got {area_bracket}")
    if len(beta_grid) == 0:
        raise ValueError("beta_grid must not be empty")

    warnings: list[str] = []
    best: tuple[float, float, FeasibilityReport] | None = None  # (area, beta, report)
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
