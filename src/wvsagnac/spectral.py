"""Probe spectra: Gaussian input model, post-selected output, center extraction.

Everything here works in nanometers. The output spectrum is the product of a
post-selection modulation factor, evaluated at p = 2*pi/lambda, and the probe
intensity envelope; the center wavelength is read back out with a windowed
three-parameter Gaussian fit, whose normal equations at each Gauss-Newton
step are moments of the window from one matrix product.
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager, nullcontext
from contextvars import ContextVar
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import islice

import numpy as np

from .errors import FitFailure, NearOrthogonalSelection
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
        # the largest factor formed from the width alone: the analytic shift's
        w = float(self.width_dlambda)
        if not math.isfinite(4.0 * math.pi * (w * w)):
            raise ValueError(f"width_dlambda = {w:g} nm is too large: "
                             "4*pi*width_dlambda^2 overflows a float")


@dataclass(frozen=True, eq=False)
class SampledSpectrum:
    wavelengths: np.ndarray  # nm, strictly increasing
    intensities: np.ndarray  # same length, nonnegative
    form_tag: str            # 'paper' | 'exact'
    # the largest and smallest intensity (_check_extremes)
    _peak: float = field(init=False, repr=False)
    _floor: float = field(init=False, repr=False)

    def __post_init__(self):
        # read-only copies, so that the facts stay those of the spectrum's data
        lam = np.array(self.wavelengths, dtype=float)
        inten = np.array(self.intensities, dtype=float)
        lam.flags.writeable = inten.flags.writeable = False
        if lam.ndim != 1 or inten.ndim != 1 or lam.size != inten.size:
            raise ValueError("wavelengths and intensities must be 1-d and equal length")
        _check_grid(lam)
        peak, floor = _check_extremes(np.maximum.reduce(inten).item(),
                                      np.minimum.reduce(inten).item())
        if self.form_tag not in (FORM_PAPER, FORM_EXACT):
            raise ValueError(f"unknown form_tag {self.form_tag!r}")
        vars(self).update(wavelengths=lam, intensities=inten, _peak=peak, _floor=floor)

    @cached_property
    def _moments(self) -> tuple[float, float, float, float]:
        """_fit_scale and the total, mean and variance (NaN unless 0 < total <
        inf) of the wavelength over the scaled intensities, against the grid's
        _trapezoid_weights, made at the first fit and not kept; _default_rows
        sets its rows' (_basis_moments)."""
        scale = _fit_scale(self._peak)
        y = self.intensities * scale if scale != 1.0 else self.intensities
        wy = _trapezoid_weights(self.wavelengths)
        for row in wy:  # w*y and w*lam*y, in place a row at a time: unbuffered
            _multiply(row, y, row)
        total, first = np.add.reduce(wy, axis=1).tolist()
        if not 0 < total < math.inf:
            return scale, total, math.nan, math.nan
        center = first / total  # w*lam*y is spent: wy[1] takes (lam - center)^2
        dev = np.square(np.subtract(self.wavelengths, center, out=wy[1]), out=wy[1])
        dev *= wy[0]
        return scale, total, center, float(np.add.reduce(dev)) / total


def _check_extremes(peak: float, floor: float) -> tuple[float, float]:
    """The intensity check of spectra, from their largest and smallest
    sample, which it returns: the minimum is NaN at a NaN, and only the
    maximum can be +inf."""
    if not (floor >= 0 and peak < math.inf):
        raise ValueError("intensities must be finite and nonnegative")
    return peak, floor


def _check_grid(lam: np.ndarray):
    """The checks of a wavelength grid, before anything is computed on it."""
    if lam.ndim != 1:
        raise ValueError("wavelength grid must be 1-d")
    if lam.size == 0:
        raise ValueError("spectrum grid is empty")
    if not (lam[1:] > lam[:-1]).all():  # also False at a NaN
        raise ValueError("wavelength grid must be strictly increasing")
    # the ends of a strictly increasing grid bound every sample
    if not (math.isfinite(lam[0]) and math.isfinite(lam[-1])):
        raise ValueError("wavelength grid must be finite")


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
    if not 0 < span < math.inf:
        raise ValueError(f"grid span must be positive and finite, got {span:g}")
    half = span * probe.width_dlambda
    lo, hi = probe.lambda0 - half, probe.lambda0 + half
    # hi - lo is also not finite when half, lo or hi is not; the envelope
    # squares distances up to half
    if not (math.isfinite(hi - lo) and math.isfinite(half * half)):
        raise ValueError(f"wavelength grid lambda0 +/- span*width_dlambda "
                         f"overflows a float for span = {span:g}")
    return np.linspace(lo, hi, points)


def intensity_envelope(probe: SpectrumModel, lam):
    """Probe intensity distribution entering the post-selected output spectrum.

    A Gaussian with peak i0 and standard deviation width_dlambda. Normalizing
    the envelope by its standard deviation (rather than a 1/e width) is what
    makes the fitted center shift of the modulated spectrum reproduce the
    first-order prediction -4*pi*W^2/lambda0 * Im(A_w); any other Gaussian
    width convention rescales the fitted shift by a constant factor. A grid
    whose largest (lam - lambda0)^2 is not finite, an infinite sample's
    included, raises a ValueError naming it.
    """
    lam = np.asarray(lam, dtype=float)
    # the largest squared distance, from the extremes, before numpy squares any
    far = (max(probe.lambda0 - lam.min().item(), lam.max().item() - probe.lambda0)
           if lam.size else 0.0)
    if far * far == math.inf:
        raise ValueError("squared distance (lam - lambda0)^2 of the wavelength "
                         "grid overflows a float")
    w2 = 2.0 * probe.width_dlambda ** 2
    out = probe.i0 * np.exp(-((lam - probe.lambda0) ** 2) / w2)
    return float(out) if out.ndim == 0 else out


def _modulation(cos_pg, sin_pg, ov2, a_w, form: str, out=None, scratch=None):
    """The modulation for |m+n|^2 = ov2 and weak value a_w, numbers, written
    into the row `out` with the row `scratch` (new arrays when None), in
    place (IEEE + and * commute: the bits of the formula as written)."""
    out = np.multiply(sin_pg, a_w.imag, out)
    out += cos_pg
    out *= out
    if form == FORM_EXACT:
        re = np.multiply(sin_pg, a_w.real, scratch)
        re *= re
        out += re
    elif form != FORM_PAPER:
        raise ValueError(f"form must be 'paper' or 'exact', got {form!r}")
    out *= ov2
    return out


def modulation_factor(pg, wv: WeakValueResult, form: str = FORM_EXACT):
    """Post-selection modulation of the momentum-space intensity.

    form='exact' is the full modulus |m e^{-i pg} + n e^{+i pg}|^2, evaluated
    through its expansion
        |m+n|^2 [ (cos pg + Im(A_w) sin pg)^2 + Re(A_w)^2 sin^2 pg ],
    form='paper' drops the Re(A_w)^2 term. Their difference is therefore
    exactly |m+n|^2 Re(A_w)^2 sin^2(pg), nonnegative everywhere.
    """
    pg = np.asarray(pg, dtype=float)
    out = _modulation(np.cos(pg), np.sin(pg), wv.postselect_prob, wv.a_w, form)
    return float(out) if out.ndim == 0 else out


def _modulation_argument(grid, g: float) -> tuple[np.ndarray, np.ndarray]:
    """The checked grid and pg = 2*pi*g/lambda on it, formed after the checks:
    its largest value, at the grid's first point, must be finite."""
    grid = np.asarray(grid, dtype=float)
    if not np.all(grid > 0):
        raise ValueError("wavelength grid must be strictly positive")
    _check_grid(grid)
    if not (g > 0 and math.isfinite(2.0 * math.pi * float(g) / grid.item(0))):
        raise ValueError(f"coupling g must be positive, 2*pi*g/lambda finite: got {g}")
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


# Bounded: one basis is 4 x GRID_POINTS doubles (64 KiB) and nine floats, and
# a run uses one per probe center and width.
@lru_cache(maxsize=8)
def _default_basis(lambda0: float, width_dlambda: float) -> tuple:
    """Read-only default grid, cos pg, sin pg (g = lambda0) and unit-peak
    envelope (i0 times it is intensity_envelope's), then for k = 0, 1, 2 the
    sums of w (lam - lambda0)^k B against the grid's _trapezoid_weights w,
    B = (cos^2 pg, cos pg sin pg, sin^2 pg) * envelope: nine floats. The
    grid is checked here, once, for every spectrum built on it."""
    unit = SpectrumModel(1.0, lambda0, width_dlambda)
    grid, pg = _modulation_argument(default_grid(unit), lambda0)
    basis = grid, np.cos(pg), np.sin(pg), intensity_envelope(unit, grid)
    for arr in basis:
        arr.flags.writeable = False
    (w, _), (c, s, env), d = _trapezoid_weights(grid), basis[1:], grid - lambda0
    terms = np.array([c * c, c * s, s * s]) * env
    sums = np.add.reduce(np.array([w, w * d, w * d * d])[:, None] * terms, axis=2)
    return *basis, tuple(map(tuple, sums.tolist()))


def _basis_moments(sums: tuple, probe: SpectrumModel, wv: WeakValueResult,
                   form: str, peak: float) -> tuple[float, float, float, float]:
    """_moments of a default-grid row from its basis's `sums`: the row is i0
    |m+n|^2 (cos^2 pg + 2 Im A_w cos pg sin pg + q sin^2 pg) * envelope, q =
    |A_w|^2, or Im^2 A_w ('paper'), and its moments the same sum of sums."""
    scale, im, re = _fit_scale(peak), wv.a_w.imag, wv.a_w.real
    q = im * im + re * re if form == FORM_EXACT else im * im
    k = probe.i0 * scale * wv.postselect_prob
    total, first, second = (k * (cc + 2.0 * im * cs + q * ss) for cc, cs, ss in sums)
    if not 0 < total < math.inf:
        return scale, total, math.nan, math.nan
    shift = first / total  # the mean about 0 overflows where the samples' does
    return (scale, total, (probe.lambda0 * total + first) / total,
            second / total - shift * shift)


# Huge finite intensities can overflow the moments, the cost or the normal
# equations: each is checked and raises a ValueError naming it, and a trial
# step that overflows is rejected, so numpy's warnings would only repeat that.
_QUIET = {"over": "ignore", "invalid": "ignore", "divide": "ignore"}
_QUIETED, _NO_ERRSTATE = ContextVar("wvsagnac_quieted", default=False), nullcontext()


@contextmanager
def _quiet():
    """np.errstate(**_QUIET) and _QUIETED, for a sweep's or a design's stacks
    and fits: fit_center enters _NO_ERRSTATE inside, not one of its own."""
    with np.errstate(**_QUIET):
        token = _QUIETED.set(True)
        try:
            yield
        finally:
            _QUIETED.reset(token)


_TINY_PEAK = 2.0 ** -256


def _fit_scale(peak: float) -> float:
    """The exact power of two a fit multiplies a spectrum by: below _TINY_PEAK,
    where squared residuals can underflow and the cost no longer tells steps
    apart, the one that brings the peak into [0.5, 1). A fit window holding
    a subnormal sample, which lost bits before any scaling, is refused."""
    return 2.0 ** min(-math.frexp(peak)[1], 1023) if peak < _TINY_PEAK else 1.0


def _default_rows(probe: SpectrumModel, rows, form: str):
    """Yield (key, weak value, spectrum) for each (key, weak value) pair of
    the iterable `rows`, in order: the one readout of the default-grid
    spectra that sweeps and designs fit. The spectrum is bit for bit
    output_spectrum(probe, wv, probe.lambda0, default_grid(probe), form),
    or None for a NearOrthogonalSelection in place of the weak value. Pairs
    are read _CHUNK_ROWS at a time; a chunk's spectra are one read-only
    stack built from the cached basis row by row, in place with one scratch
    row and the i0 * unit envelope (_modulation), whose rows' largest and
    smallest samples are one reduction each. A row's spectrum shares the
    basis's grid and has its moments from the basis's sums (_basis_moments).
    Any error of a row, reading its pair and checking its spectrum's
    intensities included, is raised at that row's turn, after every row
    before it was yielded; its fit's error, at its fit.
    """
    rows = iter(rows)
    while True:
        chunk, error = [], None
        try:
            chunk.extend(islice(rows, _CHUNK_ROWS))
        except Exception as exc:
            error = exc
        wvs = [wv for _, wv in chunk if not isinstance(wv, NearOrthogonalSelection)]
        if wvs:  # else every row yields None, and `spectra` is not read
            grid, cos_pg, sin_pg, unit, sums = _default_basis(
                probe.lambda0, probe.width_dlambda)
            stack, scratch = np.empty((len(wvs), grid.size)), np.empty(grid.size)
            envelope = probe.i0 * unit
            for row, wv in zip(stack, wvs):  # the row and scratch stay in cache
                _modulation(cos_pg, sin_pg, wv.postselect_prob, wv.a_w, form,
                            row, scratch)
                row *= envelope
            stack.flags.writeable = False
            # ufunc reductions: the same as .max() or .min(), with less per-call cost
            spectra = zip(stack, np.maximum.reduce(stack, axis=1).tolist(),
                          np.minimum.reduce(stack, axis=1).tolist())
        for key, wv in chunk:
            if isinstance(wv, NearOrthogonalSelection):
                yield key, wv, None
                continue
            inten, peak, floor = next(spectra)
            _check_extremes(peak, floor)
            spec = object.__new__(SampledSpectrum)  # checked above: set, not built
            vars(spec).update(wavelengths=grid, intensities=inten, form_tag=form,
                              _peak=peak, _floor=floor,
                              _moments=_basis_moments(sums, probe, wv, form, peak))
            yield key, wv, spec
        if error is not None:
            raise error
        if len(chunk) < _CHUNK_ROWS:
            return


# Rows that _default_rows builds as one stack: enough to spread numpy's
# per-call cost over the rows, few enough that the stack stays near 128 KB
# on the 2048-point grid (4 to 32 rows timed about the same).
_CHUNK_ROWS = 8


def _trapezoid_weights(lam: np.ndarray) -> np.ndarray:
    """A new (2, n) array, the only one made, of rows w and w*lam on the grid
    `lam`, whose sums against a row y are its trapezoid and first moment: w_0
    = d_0/2, w_i = (d_{i-1} + d_i)/2, w_{n-1} = d_{n-2}/2 and 0 on one point
    for the steps d, which are worked out in the second row."""
    weights = np.zeros((2, lam.size))
    d = np.subtract(lam[1:], lam[:-1], out=weights[1, 1:])
    weights[0, 1:] = d
    weights[0, :-1] += d
    weights[0] *= 0.5
    np.multiply(weights[0], lam, out=weights[1])
    return weights


def _window(lam: np.ndarray, c: float, half: float) -> tuple[int, int]:
    """[lo, hi) of the samples within `half` of the first sample nearest c,
    as numpy rounds |lam - x|, for a finite c and a half that is not NaN
    (_fit_start's). On an increasing grid the rounded |lam - x| falls up to
    x and rises from it: each end is found by binary search and moved to
    where the test changes, and only a tie run needs a full scan."""
    x = lam.item  # Python floats: the same IEEE arithmetic, at less cost
    j = int(lam.searchsorted(c))
    if j == lam.size or (j > 0 and abs(x(j - 1) - c) <= abs(x(j) - c)):
        j -= 1
        if j > 0 and abs(x(j - 1) - c) == abs(x(j) - c):
            j = int(np.abs(lam - c).argmin())
    snap = x(j)
    lo = int(lam.searchsorted(snap - half))
    hi = int(lam.searchsorted(snap + half, "right"))
    while lo > 0 and abs(x(lo - 1) - snap) <= half:
        lo -= 1
    while abs(x(lo) - snap) > half:
        lo += 1
    while hi < lam.size and abs(x(hi) - snap) <= half:
        hi += 1
    while abs(x(hi - 1) - snap) > half:
        hi -= 1
    return lo, hi


def _fit_start(spec: SampledSpectrum) -> tuple[int, int, float, float, float]:
    """fit_center's window [lo, hi), the power of two `scale` the intensities
    are fit multiplied by and the start (center, sigma), the mean and
    standard deviation of the wavelength (_moments); raises the error of a
    spectrum whose fit cannot start. It runs under the np.errstate(**_QUIET)
    of fit_center or of its caller. The window reaches FIT_WINDOW_SIGMAS
    standard deviations to each side of the sample nearest the mean, so
    that a mirror-image spectrum gets the mirror-image window (_window)."""
    lam, raw = spec.wavelengths, spec.intensities
    if not spec._peak > 0:  # intensities are nonnegative
        raise ValueError("cannot fit an all-zero spectrum")
    pos = spec._floor > 0  # no zero: no count; `scale` keeps nonzeros nonzero
    count = lam.size if pos else np.count_nonzero(raw)
    if count < MIN_FIT_POINTS:
        raise ValueError(f"need at least {MIN_FIT_POINTS} grid points with "
                         f"nonzero intensity, got {count}")
    scale, total, center, var = spec._moments
    if not math.isfinite(total):
        raise ValueError("integrated intensity of the spectrum overflows a float")
    if total <= 0:
        raise ValueError("spectrum has zero total intensity")
    if not (math.isfinite(center) and math.isfinite(var)):
        raise ValueError("intensity-weighted wavelength moments of the spectrum "
                         "overflow a float")
    sigma = math.sqrt(max(var, 0.0))
    if not sigma > 0:
        raise ValueError("spectrum is too narrow or too weak to seed a fit")
    lo, hi = _window(lam, center, FIT_WINDOW_SIGMAS * sigma)
    if (hi - lo if pos else np.count_nonzero(raw[lo:hi])) < MIN_FIT_POINTS:
        raise ValueError(f"fit window holds fewer than {MIN_FIT_POINTS} "
                         "nonzero points")
    if scale != 1.0 and ((raw[lo:hi] > 0) & (raw[lo:hi] < sys.float_info.min)).any():
        raise ValueError("fit window of the spectrum holds intensities below the "
                         "smallest normal float, which have lost precision; the "
                         "probe intensity i0 is too small")
    return lo, hi, scale, center, sigma


# the fit's ufuncs, bound once: an np.<name> lookup per call took ~2% of a fit
_subtract, _divide, _multiply, _negative, _exp = (
    np.subtract, np.divide, np.multiply, np.negative, np.exp)


def _gaussian_model(lam: np.ndarray, y: np.ndarray, peak: float, center: float,
                    width: float, z: np.ndarray, z2: np.ndarray, u: np.ndarray,
                    residual: np.ndarray) -> float:
    """Write z = (lam - center)/width, z^2, u = exp(-z^2) and the residual
    peak*u - y into the rows given; return the cost, sum(residual^2)."""
    _subtract(lam, center, z)
    _divide(z, width, z)
    _multiply(z, z, z2)
    _negative(z2, u)
    _exp(u, u)
    _multiply(u, peak, residual)
    _subtract(residual, y, residual)
    return float(residual.dot(residual))


def _normal_equations(rows: tuple, peak: float, width: float) -> tuple:
    """J J^T and -J r at (peak, width), as (a00, a01, a02, a11, a12, a22, b0,
    b1, b2): powers of t = 2*peak/width times the moments sum(u^2 z^k) and
    sum(r u z^k), from one GEMM of `weights` = [u^2, u^2 z^2, r u] against
    `powers` = [1, z, z^2]. `rows`: those (3, n) arrays, then the rows of the
    fit's block, the last four the z, z^2, u and r _gaussian_model left."""
    weights, powers, u2, u2z2, ru, _, _, z2, u, residual = rows
    _multiply(u, u, u2)
    _multiply(u2, z2, u2z2)
    _multiply(residual, u, ru)
    (m0, m1, m2), (_, m3, m4), (n0, n1, n2) = weights.dot(powers.T).tolist()
    t = 2.0 * peak / width
    tt = t * t
    a11, a22, b1, b2 = tt * m2, tt * m4, -t * n1, -t * n2
    # the off-diagonal entries are bounded by the diagonal ones
    if not math.isfinite(m0 + a11 + a22 + (-n0 + b1 + b2)):
        raise ValueError("normal equations of the fit to the spectrum "
                         "overflow a float")
    return m0, t * m1, t * m2, a11, tt * m3, a22, -n0, b1, b2


def _cholesky_solve(a00: float, a10: float, a11: float, a20: float, a21: float,
                    a22: float, b0: float, b1: float, b2: float
                    ) -> tuple[float, float, float] | None:
    """Solve the symmetric 3x3 system a x = b by Cholesky, given the lower
    triangle of `a` row by row; None when a pivot is not positive."""
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
    y0 = b0 / l00
    y1 = (b1 - l10 * y0) / l11
    y2 = (b2 - l20 * y0 - l21 * y1) / l22
    x2 = y2 / l22
    x1 = (y1 - l21 * x2) / l11
    x0 = (y0 - l10 * x1 - l20 * x2) / l00
    return x0, x1, x2


def fit_center(spec: SampledSpectrum) -> FitResult:
    """Windowed least-squares Gaussian fit of (peak, center, width).

    Damped Gauss-Newton with the analytic Jacobian of the Gaussian model:
    the damping factor multiplies the normal-equation diagonal, is raised
    10x whenever a trial step increases the residual (step rejected) and
    lowered 10x when it decreases. With u = exp(-z^2), z = (lambda -
    center)/width and t = 2*peak/width, the Jacobian rows are (u, t*u*z,
    t*u*z^2), so J J^T and J r are powers of t times the sums of u^2 z^k
    and r u z^k, all from one GEMM, formed only for a step that continues
    the fit: a rejected step or a refused solve retries on the same ones,
    and the step that ends the fit forms none. The damped 3x3 system is
    solved by Cholesky; a pivot that is not positive raises the damping
    10x and retries. The iteration is fully deterministic.

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

    The window holds the samples within FIT_WINDOW_SIGMAS moment standard
    deviations of the sample nearest the centroid; the start is the peak
    sample, the centroid and the moment width. A spectrum's moments are
    worked out once (SampledSpectrum._moments): from its samples at its first
    fit, or for a default-grid row of a sweep or a design in closed form from
    its basis: the same window (but on a tie of two samples) and scale, a
    start within 2e-15 relative and a fitted center within 2 FIT_RELATIVE_TOL
    lambda0 (tested; bit for bit on the benchmark). One whose fit cannot
    start raises a fresh error at each fit. One whose peak is below 2^-256 is
    fit multiplied by a power of two and its fitted peak divided by it, which
    is exact; one whose window holds a nonzero sample below the smallest
    normal float is refused. A fit allocates its start's temporaries and one
    (8, window) block, with one set of z, z^2, u and residual rows that each
    evaluation overwrites. It enters np.errstate(**_QUIET), unless a sweep or
    a design holds it (_quiet).
    """
    with _NO_ERRSTATE if _QUIETED.get() else np.errstate(**_QUIET):
        lo, hi, scale, center, sigma = _fit_start(spec)
        lam_w, y = spec.wavelengths[lo:hi], spec.intensities[lo:hi]
        if scale != 1.0:
            y = y * scale

        # the buffer block: the moment rows, then one (z, z^2, u, residual)
        # set, the last evaluation's: the point's at the start and after an
        # accepted step, the only times the normal equations are formed
        block = np.empty((8, lam_w.size))
        block[3] = 1.0
        rows = (block[:3], block[3:6], *block)
        z, z2, u, residual = rows[6:]
        # start: peak sample, centroid, 1/e half width of a Gaussian with std sigma
        peak, width = spec._peak * scale, math.sqrt(2.0) * sigma
        cost = _gaussian_model(lam_w, y, peak, center, width, z, z2, u, residual)
        if not math.isfinite(cost):
            raise ValueError("sum of squared fit residuals of the spectrum "
                             "overflows a float")
        damping, last_change = 1e-3, math.nan
        normal = None  # the normal equations at the point, formed when needed
        for iteration in range(1, FIT_MAX_ITERATIONS + 1):
            if normal is None:
                a00, a01, a02, a11, a12, a22, b0, b1, b2 = normal = (
                    _normal_equations(rows, peak, width))
            step = _cholesky_solve(
                a00 + damping * (1e-30 if a00 <= 0 else a00),
                a01, a11 + damping * (1e-30 if a11 <= 0 else a11),
                a02, a12, a22 + damping * (1e-30 if a22 <= 0 else a22), b0, b1, b2)
            if step is None:
                damping *= 10.0
                continue
            d_peak, d_center, d_width = step
            trial = (peak + d_peak, center + d_center, width + d_width)
            if trial[2] > 0:  # width must stay positive
                cost_t = _gaussian_model(lam_w, y, *trial, z, z2, u, residual)
            if not (trial[2] > 0 and cost_t <= cost):  # the step is rejected
                damping *= 10.0
                continue
            (peak, center, width), cost = trial, cost_t
            normal = None
            damping = max(damping * 0.1, 1e-15)
            rel_change = max(abs(d_peak) / max(abs(peak), 1e-300),
                             abs(d_center) / max(abs(center), 1e-300),
                             abs(d_width) / max(abs(width), 1e-300))
            # theta is NaN on the first accepted step, so the estimate needs two
            theta = rel_change / last_change
            if rel_change < FIT_RELATIVE_TOL or (
                    theta < 1.0
                    and rel_change * theta / (1.0 - theta) < FIT_RELATIVE_TOL):
                break
            last_change = rel_change
        else:
            iteration = None

    residual_norm = math.sqrt(cost / lam_w.size) / (abs(peak) or 1.0)
    if iteration is None:
        raise FitFailure(
            f"Gaussian fit did not converge in {FIT_MAX_ITERATIONS} iterations "
            f"(relative rms residual {residual_norm:.3e})",
            residual_norm=residual_norm, iterations=FIT_MAX_ITERATIONS)
    return FitResult(center=center, width=width, peak=peak / scale,
                     residual_norm=residual_norm, iterations=iteration)
