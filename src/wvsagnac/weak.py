"""Weak-measurement core: selection states, complex weak value, first-order shifts.

The polarization interferometer splits the two linear polarizations onto
counter-propagating paths; rotation shows up as a differential phase phi
between the path amplitudes m and n. Post-selecting on a nearly-crossed
polarizer makes the weak value A_w = (m - n)/(m + n) large, which amplifies
the spectral response of the probe.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .classical import InterferometerConfig, fringe_shift
from .errors import NearOrthogonalSelection

if TYPE_CHECKING:
    from .spectral import SpectrumModel

# |m + n| at or below this is treated as an orthogonal selection: the
# surviving spectrum is undetectable and the weak value is meaningless.
OVERLAP_FLOOR = 1e-12


@dataclass(frozen=True)
class SelectionConfig:
    alpha: float  # pre-selection polarizer angle, rad
    beta: float   # post-selection offset angle, rad
    phi: float    # rotation-induced differential phase, rad

    def __post_init__(self):
        for name in ("alpha", "beta", "phi"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")


@dataclass(frozen=True)
class WeakValueResult:
    m: complex        # amplitude of the e^{-i g p} path
    n: complex        # amplitude of the e^{+i g p} path
    overlap: complex  # m + n, the post-selection amplitude
    a_w: complex      # complex weak value (m - n)/(m + n)

    @property
    def postselect_prob(self) -> float:
        """Fraction of the light surviving the final polarizer, |m + n|^2."""
        return abs(self.overlap) ** 2


def sagnac_phase(cfg: InterferometerConfig, omega: float) -> float:
    """Differential phase 8*pi*S*Omega/(lambda0*c); exactly 2*pi times the fringe shift."""
    return 2.0 * math.pi * fringe_shift(cfg, omega)


def amplitudes_mn(sel: SelectionConfig) -> tuple[complex, complex]:
    """Post-selected path amplitudes.

    m = -sin(alpha+beta) cos(alpha) e^{+i phi/2}
    n = +cos(alpha+beta) sin(alpha) e^{-i phi/2}
    """
    half = cmath.exp(0.5j * sel.phi)
    m = -math.sin(sel.alpha + sel.beta) * math.cos(sel.alpha) * half
    n = math.cos(sel.alpha + sel.beta) * math.sin(sel.alpha) / half
    return m, n


def weak_value(sel: SelectionConfig) -> WeakValueResult:
    """Weak value via the closed form (m - n)/(m + n).

    Raises NearOrthogonalSelection when |m + n| <= OVERLAP_FLOOR instead of
    silently returning a huge number.
    """
    m, n = amplitudes_mn(sel)
    overlap = m + n
    if abs(overlap) <= OVERLAP_FLOOR:
        raise NearOrthogonalSelection(
            f"post-selection overlap |m+n| = {abs(overlap):.3e} is below "
            f"{OVERLAP_FLOOR:g}; the selections are effectively orthogonal"
        )
    # a vanishing amplitude pins the ratio at exactly -1 or +1; dividing
    # would leave roundoff in the imaginary part
    if m == 0:
        a_w = complex(-1.0)
    elif n == 0:
        a_w = complex(1.0)
    else:
        a_w = (m - n) / overlap
    return WeakValueResult(m=m, n=n, overlap=overlap, a_w=a_w)


def weak_value_direct(sel: SelectionConfig) -> complex:
    """Weak value from the inner-product definition <f|A|i> / <f|i>.

    Evaluates the defining ratio with explicit 2-component complex state
    vectors and the polarization observable A = |H><H| - |V><V|, with the
    polarizer angles measured from the horizontal axis:

        |i> = cos(alpha) |H> + sin(alpha) |V>
        |f> = -sin(alpha+beta) e^{-i phi/2} |H> + cos(alpha+beta) e^{+i phi/2} |V>

    This is the convention under which the component products reproduce the
    path amplitudes of amplitudes_mn exactly, so this routine and weak_value
    must agree to machine precision everywhere both succeed. It is shipped
    (not test-only) as the standing drift oracle for the closed form.
    """
    i_h = complex(math.cos(sel.alpha))
    i_v = complex(math.sin(sel.alpha))
    f_h = -math.sin(sel.alpha + sel.beta) * cmath.exp(-0.5j * sel.phi)
    f_v = math.cos(sel.alpha + sel.beta) * cmath.exp(0.5j * sel.phi)
    # <f|A|i> and <f|i>; the bra conjugates the final-state components
    h_term = f_h.conjugate() * i_h
    v_term = f_v.conjugate() * i_v
    overlap = h_term + v_term
    if abs(overlap) <= OVERLAP_FLOOR:
        raise NearOrthogonalSelection(
            f"post-selection overlap |<f|i>| = {abs(overlap):.3e} is below "
            f"{OVERLAP_FLOOR:g}; the selections are effectively orthogonal"
        )
    return (h_term - v_term) / overlap


def analytic_wavelength_shift(probe: "SpectrumModel", a_w: complex) -> float:
    """First-order center-wavelength displacement -4*pi*W^2/lambda0 * Im(A_w).

    Returned in the probe's wavelength units (nm).
    """
    if not cmath.isfinite(a_w):
        raise ValueError("a_w must be finite")
    return -4.0 * math.pi * probe.width_dlambda ** 2 / probe.lambda0 * a_w.imag
