"""Probe spectra: Gaussian input model, post-selected output, center extraction.

Everything here works in nanometers. The output spectrum is the product of a
post-selection modulation factor, evaluated at p = 2*pi/lambda, and the probe
intensity envelope; the center wavelength is read back out with a windowed
three-parameter Gaussian fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, FitFailure
from .weak import WeakValueResult

GRID_POINTS = 2048   # default resolution of the wavelength grid
GRID_SPAN = 4.0      # default half span of the grid in units of the probe width
FIT_WINDOW_SIGMAS = 2.5  # fit half window in units of the spectrum's moment std
FIT_MAX_ITERATIONS = 200
FIT_RELATIVE_TOL = 1e-12
MIN_FIT_POINTS = 16

FORM_PAPER = "paper"
FORM_EXACT = "exact"


@dataclass(frozen=True)
class SpectrumModel:
    i0: float             # peak intensity, arbitrary units
    lambda0: float        # center wavelength, nm
    width_dlambda: float  # spectral width parameter, nm

    def __post_init__(self):
        if not (math.isfinite(self.i0) and self.i0 > 0):
            raise ValueError(f"i0 must be positive, got {self.i0}")
        if not (math.isfinite(self.lambda0) and self.lambda0 > 0):
            raise ValueError(f"lambda0 must be positive, got {self.lambda0}")
        if not (math.isfinite(self.width_dlambda)
                and 0 < self.width_dlambda < self.lambda0):
            raise ValueError(
                f"width_dlambda must lie in (0, lambda0), got {self.width_dlambda}")


@dataclass(frozen=True)
class SampledSpectrum:
    wavelengths: np.ndarray  # nm, strictly increasing
    intensities: np.ndarray  # same length, nonnegative
    form_tag: str            # 'paper' | 'exact'

    def __post_init__(self):
        lam = np.asarray(self.wavelengths, dtype=float)
        inten = np.asarray(self.intensities, dtype=float)
        object.__setattr__(self, "wavelengths", lam)
        object.__setattr__(self, "intensities", inten)
        if lam.ndim != 1 or inten.ndim != 1 or lam.size != inten.size:
            raise ValueError("wavelengths and intensities must be 1-d and equal length")
        if lam.size == 0:
            raise ValueError("spectrum grid is empty")
        if not np.all(np.diff(lam) > 0):
            raise ValueError("wavelength grid must be strictly increasing")
        if not np.all(np.isfinite(inten)) or np.any(inten < 0):
            raise ValueError("intensities must be finite and nonnegative")
        if self.form_tag not in (FORM_PAPER, FORM_EXACT):
            raise ValueError(f"unknown form_tag {self.form_tag!r}")


@dataclass(frozen=True)
class FitResult:
    center: float         # fitted center wavelength, nm
    width: float          # fitted 1/e half width, nm
    peak: float           # fitted peak intensity
    residual_norm: float  # rms residual over the window / fitted peak
    iterations: int


def default_grid(probe: SpectrumModel, points: int = GRID_POINTS,
                 span: float = GRID_SPAN) -> np.ndarray:
    """Uniform wavelength grid over lambda0 +/- span*width, in nm."""
    if points < 2:
        raise ValueError(f"need at least 2 grid points, got {points}")
    half = span * probe.width_dlambda
    return np.linspace(probe.lambda0 - half, probe.lambda0 + half, points)


def intensity_envelope(probe: SpectrumModel, lam):
    """Probe intensity distribution entering the post-selected output spectrum.

    A Gaussian with peak i0 and standard deviation width_dlambda. Normalizing
    the envelope by its standard deviation (rather than a 1/e width) is what
    makes the fitted center shift of the modulated spectrum reproduce the
    first-order prediction -4*pi*W^2/lambda0 * Im(A_w); any other Gaussian
    width convention rescales the fitted shift by a constant factor.
    """
    lam = np.asarray(lam, dtype=float)
    w2 = 2.0 * probe.width_dlambda ** 2
    out = probe.i0 * np.exp(-((lam - probe.lambda0) ** 2) / w2)
    return float(out) if out.ndim == 0 else out


def modulation_factor(pg, wv: WeakValueResult, form: str = FORM_EXACT):
    """Post-selection modulation of the momentum-space intensity.

    form='exact' is the full modulus |m e^{-i pg} + n e^{+i pg}|^2, evaluated
    through its expansion
        |m+n|^2 [ (cos pg + Im(A_w) sin pg)^2 + Re(A_w)^2 sin^2 pg ],
    form='paper' drops the Re(A_w)^2 term. Their difference is therefore
    exactly |m+n|^2 Re(A_w)^2 sin^2(pg), nonnegative everywhere.
    """
    pg = np.asarray(pg, dtype=float)
    ov2 = abs(wv.overlap) ** 2
    cos_pg = np.cos(pg)
    sin_pg = np.sin(pg)
    first_order = (cos_pg + wv.a_w.imag * sin_pg) ** 2
    if form == FORM_PAPER:
        out = ov2 * first_order
    elif form == FORM_EXACT:
        out = ov2 * (first_order + (wv.a_w.real * sin_pg) ** 2)
    else:
        raise ValueError(f"form must be 'paper' or 'exact', got {form!r}")
    return float(out) if out.ndim == 0 else out


def output_spectrum(probe: SpectrumModel, wv: WeakValueResult, g: float,
                    grid: np.ndarray, form: str = FORM_EXACT) -> SampledSpectrum:
    """Post-selected spectrum on the given wavelength grid (nm).

    The momentum at each grid point is p = 2*pi/lambda and g is the coupling
    length (equal to lambda0 for this interferometer), so the modulation
    argument is pg = 2*pi*g/lambda.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("wavelength grid is empty")
    if not np.all(grid > 0):
        raise ValueError("wavelength grid must be strictly positive")
    if not (math.isfinite(g) and g > 0):
        raise ValueError(f"coupling g must be positive, got {g}")
    pg = 2.0 * math.pi * g / grid
    intensities = modulation_factor(pg, wv, form) * intensity_envelope(probe, grid)
    return SampledSpectrum(wavelengths=grid, intensities=intensities, form_tag=form)


def _moments(spec: SampledSpectrum) -> tuple[float, float]:
    """Intensity-weighted mean and standard deviation of the wavelength (nm)."""
    lam, inten = spec.wavelengths, spec.intensities
    if lam.size == 1:
        if inten[0] <= 0:
            raise DegenerateInput("spectrum has zero total intensity")
        return float(lam[0]), 0.0
    total = np.trapezoid(inten, lam)
    if total <= 0:
        raise DegenerateInput("spectrum has zero total intensity")
    center = float(np.trapezoid(inten * lam, lam) / total)
    var = np.trapezoid(inten * (lam - center) ** 2, lam) / total
    return center, float(math.sqrt(max(var, 0.0)))


def centroid(spec: SampledSpectrum) -> float:
    """Intensity-weighted mean wavelength, trapezoidal quadrature on the grid."""
    return _moments(spec)[0]


def _gaussian_and_jacobian(lam: np.ndarray, peak: float, center: float,
                           width: float):
    z = (lam - center) / width
    envelope = np.exp(-z * z)
    model = peak * envelope
    jac = np.empty((lam.size, 3))
    jac[:, 0] = envelope                       # d/d peak
    jac[:, 1] = model * (2.0 * z / width)      # d/d center
    jac[:, 2] = model * (2.0 * z * z / width)  # d/d width
    return model, jac


def fit_center(spec: SampledSpectrum) -> FitResult:
    """Windowed least-squares Gaussian fit of (peak, center, width).

    Damped Gauss-Newton with the analytic Jacobian of the Gaussian model:
    the damping factor multiplies the normal-equation diagonal, is raised
    10x whenever a trial step increases the residual (step rejected) and
    lowered 10x when it decreases. The iteration is fully deterministic.
    Converged when every parameter changes by less than 1e-12 relative;
    raises FitFailure after 200 iterations without convergence.

    The window and the start come from the spectrum alone. The window is
    centered on the grid sample nearest the centroid and extends
    FIT_WINDOW_SIGMAS times the spectrum's moment standard deviation to
    each side; the start is the peak sample, the centroid and the moment
    width.
    """
    lam, inten = spec.wavelengths, spec.intensities
    if not np.any(inten > 0):
        raise DegenerateInput("cannot fit an all-zero spectrum")
    if np.count_nonzero(inten) < MIN_FIT_POINTS:
        raise ValueError(
            f"need at least {MIN_FIT_POINTS} grid points with nonzero intensity, "
            f"got {np.count_nonzero(inten)}")

    center, sigma = _moments(spec)
    if not sigma > 0:
        raise DegenerateInput("spectrum is too narrow or too weak to seed a fit")

    # Snap the window center to the grid sample nearest the centroid: a cut
    # at the continuously varying centroid itself would flip edge points in
    # and out of the window, breaking the mirror symmetry of fits to
    # mirror-image spectra.
    center_snap = lam[int(np.argmin(np.abs(lam - center)))]
    mask = np.abs(lam - center_snap) <= FIT_WINDOW_SIGMAS * sigma
    lam_w = lam[mask]
    y = inten[mask]
    if np.count_nonzero(y) < MIN_FIT_POINTS:
        raise ValueError(
            f"fit window holds fewer than {MIN_FIT_POINTS} nonzero points")

    # start: peak sample, centroid, 1/e half width of a Gaussian with std sigma
    params = np.array([float(inten.max()), center, math.sqrt(2.0) * sigma])
    model, jac = _gaussian_and_jacobian(lam_w, *params)
    residual = model - y
    cost = float(residual @ residual)
    damping = 1e-3

    converged = False
    for iteration in range(1, FIT_MAX_ITERATIONS + 1):
        jtj = jac.T @ jac
        diag = jtj.diagonal()
        np.fill_diagonal(jtj, diag + damping * np.where(diag <= 0, 1e-30, diag))
        try:
            step = np.linalg.solve(jtj, -(jac.T @ residual))
        except np.linalg.LinAlgError:
            damping *= 10.0
            continue
        trial = params + step
        accepted = False
        if trial[2] > 0:  # width must stay positive
            model_t, jac_t = _gaussian_and_jacobian(lam_w, *trial)
            residual_t = model_t - y
            cost_t = float(residual_t @ residual_t)
            if cost_t <= cost:
                params, model, jac, residual, cost = trial, model_t, jac_t, residual_t, cost_t
                damping = max(damping * 0.1, 1e-15)
                accepted = True
        if not accepted:
            damping *= 10.0
            continue
        rel_change = np.max(np.abs(step) / np.maximum(np.abs(params), 1e-300))
        if rel_change < FIT_RELATIVE_TOL:
            converged = True
            break

    rms = math.sqrt(cost / lam_w.size)
    residual_norm = rms / (abs(params[0]) if params[0] != 0 else 1.0)
    if not converged:
        raise FitFailure(
            f"Gaussian fit did not converge in {FIT_MAX_ITERATIONS} iterations "
            f"(relative rms residual {residual_norm:.3e})",
            residual_norm=residual_norm, iterations=FIT_MAX_ITERATIONS)
    return FitResult(center=float(params[1]), width=float(params[2]),
                     peak=float(params[0]), residual_norm=residual_norm,
                     iterations=iteration)
