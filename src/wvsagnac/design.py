"""Inverse design: smallest loop area meeting detection and resolution floors.

Given the source intensity, the spectrometer's detection floor and the
rotation accuracy that must be resolved, the solver searches post-selection
angles and loop areas for the smallest area whose fitted center shift at the
target rate clears the resolution floor while the detected peak stays above
the detection floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .classical import InterferometerConfig
from .errors import NearOrthogonalSelection
from .spectral import SpectrumModel, fit_center
from .sweep import reference_center, spectrum_at
from .weak import sagnac_phase

BISECTION_REL_TOL = 1e-4   # relative tolerance on the returned area
MONOTONE_PROBE_POINTS = 8  # areas sampled to verify the monotone regime
MONOTONE_IM_AW_MAX = 0.05  # |Im A_w| bound inside the trusted-monotone regime
FALLBACK_SCAN_POINTS = 256
_TIE_REL = 1e-9            # areas this close count as tied between angles


@dataclass(frozen=True)
class DesignConstraints:
    i0: float                # source peak intensity (overrides probe.i0)
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
    if not math.isfinite(beta):
        raise ValueError("beta must be finite")
    c = constraints
    probe = replace(c.probe, i0=c.i0)
    cfg = InterferometerConfig.from_nm(area_s, probe.lambda0)
    try:
        ref_center = _reference_center(probe, c.alpha, beta)
        wv, spectrum = spectrum_at(probe, c.alpha, beta,
                                   sagnac_phase(cfg, c.omega_target))
    except NearOrthogonalSelection as exc:
        return FeasibilityReport(False, 0.0, -c.i_min, 0.0, -c.delta_lambda_res,
                                 math.nan, reason=str(exc))
    peak = float(spectrum.intensities.max())
    shift = abs(fit_center(spectrum).center - ref_center)
    return FeasibilityReport(
        feasible=(peak >= c.i_min and shift >= c.delta_lambda_res),
        peak_intensity=peak, intensity_margin=peak - c.i_min,
        shift_nm=shift, shift_margin_nm=shift - c.delta_lambda_res,
        im_aw=wv.a_w.imag)


def _min_area_for_beta(constraints: DesignConstraints, beta: float,
                       s_lo: float, s_hi: float, warnings: list[str]
                       ) -> tuple[float, FeasibilityReport] | None:
    probes = np.linspace(s_lo, s_hi, MONOTONE_PROBE_POINTS)
    reports = [feasible(beta, float(s), constraints) for s in probes]
    if all(r.reason for r in reports):
        return None

    shifts = [r.shift_nm for r in reports if not r.reason]
    flags = [r.feasible for r in reports]
    in_regime = (
        all(not r.reason for r in reports)
        and all(abs(r.im_aw) <= MONOTONE_IM_AW_MAX for r in reports)
        and all(b - a >= -1e-12 for a, b in zip(shifts, shifts[1:]))
        and flags == sorted(flags)  # infeasible areas strictly before feasible ones
    )

    if in_regime:
        if reports[0].feasible:
            return float(probes[0]), reports[0]
        if not reports[-1].feasible:
            return None
        lo, hi = s_lo, s_hi
        best = reports[-1]
        while hi - lo > BISECTION_REL_TOL * hi:
            mid = 0.5 * (lo + hi)
            rep = feasible(beta, mid, constraints)
            if rep.feasible:
                hi, best = mid, rep
            else:
                lo = mid
        return hi, best

    warnings.append(
        f"beta = {beta:g}: response is outside the verified-monotone regime; "
        f"falling back to an exhaustive {FALLBACK_SCAN_POINTS}-point area scan")
    for s in np.linspace(s_lo, s_hi, FALLBACK_SCAN_POINTS):
        rep = feasible(beta, float(s), constraints)
        if rep.feasible:
            return float(s), rep
    return None


def min_area(constraints: DesignConstraints, beta_grid: list[float],
             area_bracket: tuple[float, float]) -> DesignSolution:
    """Smallest feasible loop area over the post-selection angle grid.

    For each angle the smallest feasible area inside the bracket is located
    by bisection, after an 8-point probe confirms the regime where the shift
    magnitude grows monotonically with area (|Im A_w| small); outside that
    regime the solver degrades to an exhaustive scan and says so. The
    returned solution is the globally smallest area; ties go to the smaller
    |beta|, then the smaller beta.
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
        if best is None or area < best[0] * (1.0 - _TIE_REL):
            best = (area, float(beta), rep)
        elif area <= best[0] * (1.0 + _TIE_REL):
            if (abs(beta), beta) < (abs(best[1]), best[1]):
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
