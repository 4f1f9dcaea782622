"""Rotation-rate sweeps: center-shift curves and sensitivity extraction.

For every rotation rate the sweep records the differential phase, the weak
value, the first-order center shift, the shift recovered by fitting the full
output spectrum, and the post-selection probability. The sensitivity k is
the absolute least-squares slope of shift versus rate inside a window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .classical import InterferometerConfig
from .errors import FitFailure, NearOrthogonalSelection
from .spectral import (FORM_EXACT, SampledSpectrum, SpectrumModel,
                       _default_spectrum, fit_center)
from .weak import (SelectionConfig, WeakValueResult, analytic_wavelength_shift,
                   sagnac_phase, weak_value)

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
        if int(steps) != steps or steps < 3:
            raise ValueError(f"omega_range needs at least 3 steps, got {steps}")


@dataclass(frozen=True)
class SweepRow:
    omega: float              # rad/s
    phi: float                # rad
    im_aw: float
    dlambda_analytic: float   # nm
    dlambda_fitted: float     # nm
    postselect_prob: float
    failed: bool = False
    note: str = ""


@dataclass(frozen=True)
class Sensitivity:
    k_analytic: float  # nm per rad/s
    k_fitted: float    # nm per rad/s


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    k_analytic: float
    k_fitted: float
    k_window: tuple[float, float]
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
    notes = []
    if abs(math.sin(model.alpha + model.beta)) < DEGENERACY_TOL:
        notes.append(
            f"{model.name}: alpha+beta = {model.alpha + model.beta:g} makes the "
            "m amplitude vanish identically; the weak value is pinned at -1, "
            "Im(A_w) = 0, and the first-order center shift is identically zero")
    if abs(math.sin(model.alpha)) < DEGENERACY_TOL:
        notes.append(
            f"{model.name}: alpha = {model.alpha:g} makes the n amplitude vanish "
            "identically; the weak value is pinned at +1, Im(A_w) = 0, and the "
            "first-order center shift is identically zero")
    return tuple(notes)


def default_window(omega_range: tuple[float, float, int]) -> tuple[float, float]:
    """Central DEFAULT_WINDOW_FRACTION of the sweep range, the default
    sensitivity window."""
    lo, hi, _ = omega_range
    center = 0.5 * (lo + hi)
    half = 0.5 * DEFAULT_WINDOW_FRACTION * (hi - lo)
    return (center - half, center + half)


def spectrum_at(probe: SpectrumModel, alpha: float, beta: float, phi: float,
                form: str = FORM_EXACT) -> tuple[WeakValueResult, SampledSpectrum]:
    """Weak value and post-selected spectrum at the differential phase `phi`.

    The spectrum is `output_spectrum` on `default_grid(probe)` with the
    probe's center wavelength as coupling length, bit for bit, built from a
    cached read-only basis (the grid, cos pg, sin pg and the unit envelope)
    that no rate changes. An effectively orthogonal selection raises
    NearOrthogonalSelection.
    """
    wv = weak_value(SelectionConfig(alpha, beta, phi))
    return wv, _default_spectrum(probe, wv, form)


def reference_center(probe: SpectrumModel, alpha: float, beta: float,
                     form: str = FORM_EXACT) -> float:
    """Fitted center (nm) of the zero-rotation spectrum on `default_grid(probe)`.

    Every fitted shift is measured from it. The differential phase vanishes
    at rest, so it does not depend on the loop area.
    """
    spectrum = spectrum_at(probe, alpha, beta, 0.0, form)[1]
    return fit_center(spectrum).center


def run_sweep(model: ModelSpec, form: str = FORM_EXACT,
              window: tuple[float, float] | None = None) -> SweepResult:
    """Evaluate the shift curve over the model's rate range.

    The fitted shift of every row is reported relative to the fitted center
    of the zero-rotation spectrum, which removes any constant bias the
    modulation leaves in the fit. Rows whose selection is effectively
    orthogonal are flagged and carry NaNs instead of aborting the sweep.
    The sensitivity is taken inside `window`; without one, inside
    `default_window`, and a default window with too few usable rows leaves
    k NaN with a warning, where a given one raises ValueError.
    Output is deterministic and independent of evaluation order.
    """
    cfg = InterferometerConfig.from_nm(model.area_s, model.probe.lambda0)
    # A failure of the reference is not row-isolated because every fitted
    # shift is measured against it.
    ref_center = reference_center(model.probe, model.alpha, model.beta, form)

    lo, hi, steps = model.omega_range
    rows: list[SweepRow] = []
    for omega in np.linspace(lo, hi, int(steps)):
        omega = float(omega)
        phi = sagnac_phase(cfg, omega)
        try:
            wv, spectrum = spectrum_at(model.probe, model.alpha, model.beta,
                                       phi, form)
        except NearOrthogonalSelection as exc:
            rows.append(SweepRow(omega=omega, phi=phi, im_aw=math.nan,
                                 dlambda_analytic=math.nan, dlambda_fitted=math.nan,
                                 postselect_prob=0.0, failed=True, note=str(exc)))
            continue
        analytic = analytic_wavelength_shift(model.probe, wv.a_w)
        try:
            fitted = fit_center(spectrum).center - ref_center
        except FitFailure as exc:
            rows.append(SweepRow(omega=omega, phi=phi, im_aw=wv.a_w.imag,
                                 dlambda_analytic=analytic, dlambda_fitted=math.nan,
                                 postselect_prob=wv.postselect_prob,
                                 failed=True, note=str(exc)))
            continue
        rows.append(SweepRow(omega=omega, phi=phi, im_aw=wv.a_w.imag,
                             dlambda_analytic=analytic, dlambda_fitted=fitted,
                             postselect_prob=wv.postselect_prob))

    result = SweepResult(
        rows=tuple(rows), k_analytic=math.nan, k_fitted=math.nan,
        k_window=default_window(model.omega_range) if window is None else window,
        form=form, warnings=_degeneracy_warnings(model))
    try:
        k = sensitivity(result, result.k_window)
    except ValueError as exc:
        if window is not None:
            raise
        return replace(result, warnings=result.warnings
                       + (f"sensitivity window unusable: {exc}",))
    return replace(result, k_analytic=k.k_analytic, k_fitted=k.k_fitted)


def sensitivity(sweep: SweepResult, window: tuple[float, float]) -> Sensitivity:
    """Absolute least-squares slope of shift vs rate inside the window.

    Computed independently for the analytic and the fitted columns; failed
    rows are excluded. Requires at least 3 usable rows in the window.
    """
    lo, hi = window
    if not lo < hi:
        raise ValueError(f"window must satisfy lo < hi, got {window}")
    rows = [r for r in sweep.rows if lo <= r.omega <= hi and not r.failed]
    if len(rows) < 3:
        raise ValueError(
            f"need at least 3 usable rows inside the window, got {len(rows)}")
    omegas = np.array([r.omega for r in rows])
    k_analytic = abs(np.polyfit(omegas,
                                [r.dlambda_analytic for r in rows], 1)[0])
    k_fitted = abs(np.polyfit(omegas,
                              [r.dlambda_fitted for r in rows], 1)[0])
    return Sensitivity(k_analytic=float(k_analytic), k_fitted=float(k_fitted))
