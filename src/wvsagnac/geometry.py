"""Multipass curved-mirror loop: turn count and equivalent enclosed area.

A beam injected at an integer angle theta (degrees) into the circular cell
advances by 2*theta per chord and closes after lcm(2*theta, 360) degrees of
travel. The closed path encloses a polygon-of-chords area that can exceed
the single-pass square layout by a sizable factor.

A MultipassDesign is built from (theta_deg, radius_rs) alone and derives its
turn count and area from them, so no design holds values that disagree.
"""

import math
import operator
import sys
from dataclasses import dataclass, field


@dataclass(frozen=True)
class MultipassDesign:
    """n_turns = lcm(2*theta, 360) / 360 and the equivalent enclosed area
    area_equiv = [lcm(2*theta, 360) / (2*theta)] * R^2 * sin(beta) * cos(beta)
    with beta = 90 deg - theta; the bracket is the (integer) chord count."""
    theta_deg: int      # injection angle, integer degrees in (0, 90)
    radius_rs: float    # device radius, m
    n_turns: int = field(init=False)       # full turns before the path closes
    area_equiv: float = field(init=False)  # equivalent enclosed area, m^2

    def __post_init__(self):
        # derived here, also under dataclasses.replace
        t = _check_theta(self.theta_deg)
        travel = math.lcm(2 * t, 360)  # degrees before the path closes
        beta = math.radians(90 - t)
        area = (travel // (2 * t) * _square(self.radius_rs)
                * math.sin(beta) * math.cos(beta))
        if not math.isfinite(area):
            raise ValueError(f"equivalent area overflows a float for "
                             f"radius_rs = {self.radius_rs:g} m")
        if area < sys.float_info.min:  # 0.0, or subnormal and short of bits
            raise ValueError(f"equivalent area underflows the smallest normal "
                             f"float for radius_rs = {self.radius_rs:g} m")
        vars(self).update(theta_deg=t, n_turns=travel // 360, area_equiv=area)


def _square(radius_rs: float) -> float:
    """R^2 of a positive radius whose square is a finite float."""
    if not (math.isfinite(radius_rs) and radius_rs > 0):
        raise ValueError(f"radius_rs must be positive, got {radius_rs}")
    try:  # a float's ** raises on overflow, where numpy's warns and gives inf
        return float(radius_rs) ** 2
    except OverflowError:
        raise ValueError(f"radius_rs = {radius_rs:g} m is too large: "
                         "its square overflows a float") from None


def _check_theta(theta_deg) -> int:
    # Integer degrees keep the lcm exact; rational or irrational angles are
    # rejected rather than approximated (the path may never close).
    if isinstance(theta_deg, bool):
        raise ValueError("theta_deg must be an integer number of degrees")
    if isinstance(theta_deg, float):
        if not theta_deg.is_integer():
            raise ValueError(
                f"theta_deg must be an integer number of degrees, got {theta_deg}")
        theta_deg = int(theta_deg)
    try:  # any integer type, numpy's too; numpy's bool is refused here
        theta_deg = operator.index(theta_deg)
    except TypeError:
        raise ValueError(f"theta_deg must be an integer, got {theta_deg!r}") from None
    if not 0 < theta_deg < 90:
        raise ValueError(f"theta_deg must lie in (0, 90), got {theta_deg}")
    return theta_deg


def multipass_design(theta_deg, radius_rs: float) -> MultipassDesign:
    """Turn count and equivalent area for one injection angle."""
    return MultipassDesign(theta_deg, radius_rs)
