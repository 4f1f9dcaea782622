"""Rotation-rate sweeps: center-shift curves and sensitivity extraction.

For every rotation rate the sweep records the differential phase, the weak
value, the first-order center shift, the shift recovered by fitting the full
output spectrum, and the post-selection probability. The sensitivity k is
the absolute least-squares slope of shift versus rate inside a window.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from itertools import chain

import numpy as np

from .classical import InterferometerConfig
from .errors import FitFailure, NearOrthogonalSelection
from .spectral import FORM_EXACT, SpectrumModel, _default_rows, _quiet, fit_center
from .weak import (SelectionConfig, analytic_wavelength_shift, sagnac_phase,
                   weak_value)

# |sin| below this means one path amplitude vanishes identically: the weak
# value is pinned to +/-1 for every rate and the first-order shift is zero.
DEGENERACY_TOL = 1e-9

# Fraction of the sweep range used for the default sensitivity window.
DEFAULT_WINDOW_FRACTION = 0.2


@dataclass(frozen=True)
class ModelSpec:
    name: str
    area_s: float                           # loop area, m^2
    alpha: float                            # pre-selection angle, rad
    beta: float                             # post-selection angle, rad
    probe: SpectrumModel
    omega_range: tuple[float, float, int]   # (min, max, steps), rad/s

    def __post_init__(self):
        if not (math.isfinite(self.area_s) and self.area_s > 0):
            raise ValueError(f"area_s must be positive, got {self.area_s}")
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise ValueError("alpha and beta must be finite")
        lo, hi, steps = self.omega_range
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError(f"omega_range must satisfy min < max, got {lo}, {hi}")
        if not math.isfinite(hi - lo):
            raise ValueError(f"omega_range width max - min overflows a float, "
                             f"got {lo}, {hi}")
        # compared, not converted: int() overflows at inf, math.isfinite at 10**400;
        # the bound is the most float64 values an array can hold
        if not (3 <= steps <= sys.maxsize // 8 and int(steps) == steps):
            raise ValueError(f"omega_range needs from 3 to {sys.maxsize // 8} "
                             f"steps, got {steps}")


@dataclass(frozen=True)
class SweepRow:
    omega: float              # rad/s
    phi: float                # rad
    im_aw: float
    dlambda_analytic: float   # nm
    dlambda_fitted: float     # nm
    postselect_prob: float
    failed: bool = field(init=False)  # bool(note)
    note: str = field(default="", kw_only=True)  # refuses a bool by position

    def __post_init__(self):
        object.__setattr__(self, "failed", bool(self.note))


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    k_analytic: float               # nm per rad/s
    k_fitted: float                 # nm per rad/s
    k_window: tuple[float, float]   # rad/s, where k is read
    form: str
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        omegas = [r.omega for r in self.rows]
        if omegas != sorted(omegas):
            raise ValueError("sweep rows must be sorted by omega")
        for r in self.rows:
            if not r.failed and not 0.0 <= r.postselect_prob <= 1.0 + 1e-12:
                raise ValueError(
                    f"postselect_prob {r.postselect_prob} outside [0, 1]")


def benchmark_models(lambda0: float, dlambda: float) -> list[ModelSpec]:
    """Four benchmark configurations spanning loop area and post-selection angle.

    (S, alpha, beta) = (16, 0.1, -0.5), (16, 0.1, -0.3), (16, 0.1, -0.1),
    (3, 0.1, -0.1); S = 16 m^2 corresponds to a 4 x 4 m ring. The probe has
    a unit peak and the given center and width (nm); every model sweeps 201
    rates over +/-0.1 rad/s (use `dataclasses.replace` for another range).
    """
    probe = SpectrumModel(i0=1.0, lambda0=lambda0, width_dlambda=dlambda)
    table = [("model1", 16.0, 0.1, -0.5),
             ("model2", 16.0, 0.1, -0.3),
             ("model3", 16.0, 0.1, -0.1),
             ("model4", 3.0, 0.1, -0.1)]
    return [ModelSpec(name=name, area_s=s, alpha=a, beta=b, probe=probe,
                      omega_range=(-0.1, 0.1, 201))
            for name, s, a, b in table]


def _degeneracy_warnings(model: ModelSpec) -> tuple[str, ...]:
    pinned = [("alpha+beta", model.alpha + model.beta, "m", -1),
              ("alpha", model.alpha, "n", +1)]
    return tuple(
        f"{model.name}: {name} = {angle:g} makes the {amplitude} amplitude "
        f"vanish identically; the weak value is pinned at {a_w:+d}, Im(A_w) = 0, "
        "and the first-order center shift is identically zero"
        for name, angle, amplitude, a_w in pinned
        if abs(math.sin(angle)) < DEGENERACY_TOL)


def _weak(alpha: float, beta: float, phi: float):
    """The weak value at phase `phi`, or the NearOrthogonalSelection it raises."""
    try:
        return weak_value(SelectionConfig(alpha, beta, phi))
    except NearOrthogonalSelection as exc:  # only weak_value raises it
        return exc


def _bounds(window) -> tuple[float, float]:
    """A sensitivity window's (lo, hi), refused unless finite with lo < hi."""
    lo, hi = window
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"window bounds must be finite, got {window}")
    if not lo < hi:
        raise ValueError(f"window must satisfy lo < hi, got {window}")
    return lo, hi


def run_sweep(model: ModelSpec, form: str = FORM_EXACT,
              window: tuple[float, float] | None = None) -> SweepResult:
    """Evaluate the shift curve over the model's rate range.

    The fitted shift of every row is reported relative to the fitted center
    of the zero-rotation spectrum, which removes any constant bias the
    modulation leaves in the fit. That reference is fit first, as row 0 of
    the first stack, and its failure aborts the sweep; rows whose selection
    is effectively orthogonal are flagged and carry NaNs instead.
    The sensitivity is taken inside `window`, whose bounds are checked
    before any row is built, or else inside the central DEFAULT_WINDOW_FRACTION
    of the rate range; a default window with too few usable rows leaves k NaN
    with a warning, where a given one raises ValueError.
    Output is deterministic and independent of evaluation order: each row's
    spectrum is bit for bit `output_spectrum` on `default_grid` alone,
    whichever rows share its stack, and its fit, started from closed-form
    moments, lands within 2 FIT_RELATIVE_TOL lambda0 of that spectrum's
    `fit_center`.
    """
    cfg = InterferometerConfig.from_nm(model.area_s, model.probe.lambda0)
    lo, hi, steps = model.omega_range
    center, half = 0.5 * (lo + hi), 0.5 * DEFAULT_WINDOW_FRACTION * (hi - lo)
    k_window = (center - half, center + half) if window is None else _bounds(window)
    omegas = np.linspace(lo, hi, int(steps)).tolist()
    phases = chain([0.0], (sagnac_phase(cfg, omega) for omega in omegas))
    with _quiet():  # one np.errstate for the stacks and every fit
        evaluated = _default_rows(model.probe, (
            (phi, _weak(model.alpha, model.beta, phi)) for phi in phases), form)
        _, wv, spectrum = next(evaluated)
        if spectrum is None:
            raise wv
        ref_center = fit_center(spectrum).center
        rows: list[SweepRow] = []
        for omega, (phi, wv, spectrum) in zip(omegas, evaluated):
            im_aw = analytic = fitted = math.nan
            prob, note = 0.0, ""  # a failed row's note is its error, never empty
            if spectrum is None:
                note = str(wv)
            else:
                im_aw, prob = wv.a_w.imag, wv.postselect_prob
                analytic = analytic_wavelength_shift(model.probe, wv.a_w)
                try:
                    fitted = fit_center(spectrum).center - ref_center
                except FitFailure as exc:
                    note = str(exc)
            rows.append(SweepRow(omega=omega, phi=phi, im_aw=im_aw,
                                 dlambda_analytic=analytic, dlambda_fitted=fitted,
                                 postselect_prob=prob, note=note))

    result = SweepResult(
        rows=tuple(rows), k_analytic=math.nan, k_fitted=math.nan,
        k_window=tuple(map(float, k_window)), form=form,
        warnings=_degeneracy_warnings(model))
    try:
        return sensitivity(result, result.k_window)
    except ValueError as exc:
        if window is not None:
            raise
        return replace(result, warnings=result.warnings
                       + (f"sensitivity window unusable: {exc}",))


def sensitivity(sweep: SweepResult, window: tuple[float, float]) -> SweepResult:
    """`sweep` re-read over `window`: k_analytic and k_fitted become the
    absolute least-squares slopes of the analytic and the fitted shift vs
    rate over the window's rows that did not fail, and k_window the window's
    bounds as floats. Requires finite bounds lo < hi and at least 3 such rows.
    """
    lo, hi = _bounds(window)
    rows = [r for r in sweep.rows if lo <= r.omega <= hi and not r.failed]
    if len(rows) < 3:
        raise ValueError(
            f"need at least 3 usable rows inside the window, got {len(rows)}")
    omegas = np.array([r.omega for r in rows])
    k_analytic = abs(np.polyfit(omegas,
                                [r.dlambda_analytic for r in rows], 1)[0])
    k_fitted = abs(np.polyfit(omegas,
                              [r.dlambda_fitted for r in rows], 1)[0])
    return replace(sweep, k_analytic=float(k_analytic), k_fitted=float(k_fitted),
                   k_window=(float(lo), float(hi)))
