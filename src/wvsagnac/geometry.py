"""Multipass curved-mirror loop: turn count and equivalent enclosed area.

A beam injected at an integer angle theta (degrees) into the circular cell
advances by 2*theta per chord and closes after lcm(2*theta, 360) degrees of
travel. The closed path encloses a polygon-of-chords area that can exceed
the single-pass square layout by a sizable factor.
"""

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class MultipassDesign:
    theta_deg: int      # injection angle, integer degrees in (0, 90)
    radius_rs: float    # device radius, m
    n_turns: int        # full turns before the path closes
    area_equiv: float   # equivalent enclosed area, m^2

    def __post_init__(self):
        if not 0 < self.theta_deg < 90:
            raise ValueError(f"theta_deg must lie in (0, 90), got {self.theta_deg}")
        if not (math.isfinite(self.radius_rs) and self.radius_rs > 0):
            raise ValueError(f"radius_rs must be positive, got {self.radius_rs}")
        if self.n_turns < 1:
            raise ValueError("n_turns must be at least 1")
        if not self.area_equiv > 0:
            raise ValueError("area_equiv must be positive")


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
    if not isinstance(theta_deg, int):
        raise ValueError(f"theta_deg must be an integer, got {theta_deg!r}")
    if not 0 < theta_deg < 90:
        raise ValueError(f"theta_deg must lie in (0, 90), got {theta_deg}")
    return theta_deg


def turns(theta_deg) -> int:
    """Number of full turns before the chord path closes, lcm(2*theta, 360)/360."""
    t = _check_theta(theta_deg)
    return math.lcm(2 * t, 360) // 360


def equivalent_area(theta_deg, radius_rs: float) -> float:
    """Equivalent enclosed area of the closed multipass path, m^2.

    area = [lcm(2*theta, 360) / (2*theta)] * R^2 * sin(beta) * cos(beta)
    with beta = 90 deg - theta; the bracket is the (integer) chord count.
    """
    t = _check_theta(theta_deg)
    if not (math.isfinite(radius_rs) and radius_rs > 0):
        raise ValueError(f"radius_rs must be positive, got {radius_rs}")
    chords = math.lcm(2 * t, 360) // (2 * t)
    beta = math.radians(90 - t)
    return chords * radius_rs ** 2 * math.sin(beta) * math.cos(beta)


def multipass_design(theta_deg, radius_rs: float) -> MultipassDesign:
    """Bundle turn count and equivalent area for one injection angle."""
    t = _check_theta(theta_deg)
    return MultipassDesign(theta_deg=t, radius_rs=radius_rs,
                           n_turns=turns(t),
                           area_equiv=equivalent_area(t, radius_rs))
