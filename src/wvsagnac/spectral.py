"""Probe spectra: Gaussian input model, post-selected output, center extraction.

Everything here works in nanometers. The output spectrum is the product of a
post-selection modulation factor, evaluated at p = 2*pi/lambda, and the probe
intensity envelope; the center wavelength is read back out with a windowed
three-parameter Gaussian fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateInput, FitFailure
from .weak import WeakValueResult

GRID_POINTS = 2048   # default resolution of the wavelength grid
GRID_SPAN = 4.0      # default half span of the grid in units of the probe width
FIT_WINDOW_SIGMAS = 2.5  # fit half window in units of the spectrum's moment std
FIT_MAX_ITERATIONS = 200
FIT_RELATIVE_TOL = 1e-13
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
        if not (lam[1:] > lam[:-1]).all():  # also False at a NaN
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


def _modulation(cos_pg, sin_pg, wv: WeakValueResult, form: str):
    ov2 = abs(wv.overlap) ** 2
    first_order = (cos_pg + wv.a_w.imag * sin_pg) ** 2
    if form == FORM_PAPER:
        return ov2 * first_order
    if form == FORM_EXACT:
        return ov2 * (first_order + (wv.a_w.real * sin_pg) ** 2)
    raise ValueError(f"form must be 'paper' or 'exact', got {form!r}")


def modulation_factor(pg, wv: WeakValueResult, form: str = FORM_EXACT):
    """Post-selection modulation of the momentum-space intensity.

    form='exact' is the full modulus |m e^{-i pg} + n e^{+i pg}|^2, evaluated
    through its expansion
        |m+n|^2 [ (cos pg + Im(A_w) sin pg)^2 + Re(A_w)^2 sin^2 pg ],
    form='paper' drops the Re(A_w)^2 term. Their difference is therefore
    exactly |m+n|^2 Re(A_w)^2 sin^2(pg), nonnegative everywhere.
    """
    pg = np.asarray(pg, dtype=float)
    out = _modulation(np.cos(pg), np.sin(pg), wv, form)
    return float(out) if out.ndim == 0 else out


def _modulation_argument(grid, g: float) -> tuple[np.ndarray, np.ndarray]:
    """The checked grid and pg = 2*pi*g/lambda on it."""
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("wavelength grid is empty")
    if not np.all(grid > 0):
        raise ValueError("wavelength grid must be strictly positive")
    if not (math.isfinite(g) and g > 0):
        raise ValueError(f"coupling g must be positive, got {g}")
    return grid, 2.0 * math.pi * g / grid


def output_spectrum(probe: SpectrumModel, wv: WeakValueResult, g: float,
                    grid: np.ndarray, form: str = FORM_EXACT) -> SampledSpectrum:
    """Post-selected spectrum on the given wavelength grid (nm).

    The momentum at each grid point is p = 2*pi/lambda and g is the coupling
    length (equal to lambda0 for this interferometer), so the modulation
    argument is pg = 2*pi*g/lambda.
    """
    grid, pg = _modulation_argument(grid, g)
    intensities = modulation_factor(pg, wv, form) * intensity_envelope(probe, grid)
    return SampledSpectrum(wavelengths=grid, intensities=intensities, form_tag=form)


# Bounded: one basis is 4 x GRID_POINTS doubles (64 KB), and a run uses one
# per probe center and width.
@lru_cache(maxsize=8)
def _default_basis(lambda0: float, width_dlambda: float
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Read-only default grid, cos pg, sin pg (g = lambda0) and the envelope
    of a unit-peak probe; i0 times that envelope is intensity_envelope's."""
    unit = SpectrumModel(1.0, lambda0, width_dlambda)
    grid, pg = _modulation_argument(default_grid(unit), lambda0)
    basis = (grid, np.cos(pg), np.sin(pg), intensity_envelope(unit, grid))
    for arr in basis:
        arr.flags.writeable = False
    return basis


def _default_spectrum(probe: SpectrumModel, wv: WeakValueResult,
                      form: str) -> SampledSpectrum:
    """output_spectrum(probe, wv, probe.lambda0, default_grid(probe), form),
    bit for bit, from the cached basis of the probe's center and width."""
    grid, cos_pg, sin_pg, unit = _default_basis(probe.lambda0, probe.width_dlambda)
    intensities = _modulation(cos_pg, sin_pg, wv, form) * (probe.i0 * unit)
    return SampledSpectrum(wavelengths=grid, intensities=intensities, form_tag=form)


def _moments(lam: np.ndarray, inten: np.ndarray) -> tuple[float, float]:
    """Intensity-weighted mean and standard deviation of the wavelength (nm).

    The three trapezoids share one np.diff and use np.trapezoid's formula.
    """
    d = np.diff(lam)

    def trapezoid(y):
        return (d * (y[1:] + y[:-1]) / 2.0).sum()

    total = trapezoid(inten)
    if total <= 0:
        raise DegenerateInput("spectrum has zero total intensity")
    center = float(trapezoid(inten * lam) / total)
    var = trapezoid(inten * (lam - center) ** 2) / total
    return center, float(math.sqrt(max(var, 0.0)))


def _gaussian_rows(lam: np.ndarray, peak: float, center: float, width: float,
                   jac: np.ndarray) -> np.ndarray:
    """Model peak*exp(-z^2), z = (lam - center)/width; its Jacobian rows
    d/d(peak, center, width) are written into the (3, n) buffer `jac`."""
    envelope, d_center, d_width = jac
    np.subtract(lam, center, out=d_width)
    d_width /= width                                # z
    np.multiply(d_width, d_width, out=envelope)
    np.negative(envelope, out=envelope)
    np.exp(envelope, out=envelope)                  # d/d peak
    model = envelope * peak
    np.multiply(d_width, 2.0, out=d_center)         # 2z
    d_width *= d_center
    d_width /= width
    d_width *= model                                # model * 2z^2/width
    d_center /= width
    d_center *= model                               # model * 2z/width
    return model


def _cholesky_solve(a: list[list[float]], b: list[float]
                    ) -> tuple[float, float, float] | None:
    """Solve the symmetric 3x3 system a x = b by Cholesky, reading the lower
    triangle of `a`; None when a pivot is not positive."""
    (a00, _, _), (a10, a11, _), (a20, a21, a22) = a
    if not a00 > 0:
        return None
    l00 = math.sqrt(a00)
    l10 = a10 / l00
    l20 = a20 / l00
    t11 = a11 - l10 * l10
    if not t11 > 0:
        return None
    l11 = math.sqrt(t11)
    l21 = (a21 - l20 * l10) / l11
    t22 = a22 - l20 * l20 - l21 * l21
    if not t22 > 0:
        return None
    l22 = math.sqrt(t22)
    y0 = b[0] / l00
    y1 = (b[1] - l10 * y0) / l11
    y2 = (b[2] - l20 * y0 - l21 * y1) / l22
    x2 = y2 / l22
    x1 = (y1 - l21 * x2) / l11
    x0 = (y0 - l10 * x1 - l20 * x2) / l00
    return x0, x1, x2


def fit_center(spec: SampledSpectrum) -> FitResult:
    """Windowed least-squares Gaussian fit of (peak, center, width).

    Damped Gauss-Newton with the analytic Jacobian of the Gaussian model:
    the damping factor multiplies the normal-equation diagonal, is raised
    10x whenever a trial step increases the residual (step rejected) and
    lowered 10x when it decreases. The damped 3x3 normal equations are
    solved in closed form by Cholesky; a pivot that is not positive (a
    singular or indefinite matrix) raises the damping 10x and retries. The
    iteration is fully deterministic.

    The stop rule looks at r, the largest relative parameter change of an
    accepted step, and at the contraction rate theta = r / r_prev over the
    previous accepted step. The fit has converged when r < FIT_RELATIVE_TOL
    (1e-13), or when theta < 1 and the estimated remaining error
    r * theta / (1 - theta) is below FIT_RELATIVE_TOL (the Newton error
    estimate of Hairer & Wanner, Solving ODEs II, IV.8). A fast-converging
    fit thus stops once its next step is predicted to be negligible, rather
    than at the rounding floor, where rounding makes steps cost-increasing
    and the damping is raised until one passes. Raises FitFailure after
    FIT_MAX_ITERATIONS (200) iterations without convergence.

    The window and the start come from the spectrum alone. The window is
    centered on the grid sample nearest the centroid and extends
    FIT_WINDOW_SIGMAS times the spectrum's moment standard deviation to
    each side; the start is the peak sample, the centroid and the moment
    width.
    """
    lam, inten = spec.wavelengths, spec.intensities
    peak = float(inten.max())  # intensities are nonnegative
    if not peak > 0:
        raise DegenerateInput("cannot fit an all-zero spectrum")
    nonzero = np.count_nonzero(inten)
    if nonzero < MIN_FIT_POINTS:
        raise ValueError(
            f"need at least {MIN_FIT_POINTS} grid points with nonzero intensity, "
            f"got {nonzero}")

    center, sigma = _moments(lam, inten)
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
    params = (peak, center, math.sqrt(2.0) * sigma)
    jac, jac_t = np.empty((3, lam_w.size)), np.empty((3, lam_w.size))
    residual = _gaussian_rows(lam_w, *params, jac) - y
    cost = float(residual @ residual)
    damping = 1e-3
    last_change = math.nan

    converged = False
    for iteration in range(1, FIT_MAX_ITERATIONS + 1):
        # A GEMM against an (n, 3) copy: jac @ jac.T would take the slower
        # SYRK path. The gradient goes through the same copy because the
        # summation order of a matrix-vector product follows the layout.
        jac_nt = jac.T.copy()
        jtj = (jac @ jac_nt).tolist()
        for i in range(3):
            d = jtj[i][i]
            jtj[i][i] = d + damping * (1e-30 if d <= 0 else d)
        step = _cholesky_solve(jtj, (-(jac_nt.T @ residual)).tolist())
        if step is None:
            damping *= 10.0
            continue
        trial = (params[0] + step[0], params[1] + step[1], params[2] + step[2])
        accepted = False
        if trial[2] > 0:  # width must stay positive
            residual_t = _gaussian_rows(lam_w, *trial, jac_t) - y
            cost_t = float(residual_t @ residual_t)
            if cost_t <= cost:
                params, residual, cost = trial, residual_t, cost_t
                jac, jac_t = jac_t, jac
                damping = max(damping * 0.1, 1e-15)
                accepted = True
        if not accepted:
            damping *= 10.0
            continue
        rel_change = max(abs(s) / max(abs(p), 1e-300) for s, p in zip(step, params))
        # theta is NaN on the first accepted step, so the estimate needs two
        theta = rel_change / last_change
        if rel_change < FIT_RELATIVE_TOL or (
                theta < 1.0 and rel_change * theta / (1.0 - theta) < FIT_RELATIVE_TOL):
            converged = True
            break
        last_change = rel_change

    rms = math.sqrt(cost / lam_w.size)
    residual_norm = rms / (abs(params[0]) if params[0] != 0 else 1.0)
    if not converged:
        raise FitFailure(
            f"Gaussian fit did not converge in {FIT_MAX_ITERATIONS} iterations "
            f"(relative rms residual {residual_norm:.3e})",
            residual_norm=residual_norm, iterations=FIT_MAX_ITERATIONS)
    return FitResult(center=params[1], width=params[2], peak=params[0],
                     residual_norm=residual_norm, iterations=iteration)
