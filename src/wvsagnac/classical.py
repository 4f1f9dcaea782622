"""Classical Sagnac baseline: fringe shift and direct intensity readout.

This is the comparison reference for the spectral weak-value scheme: the
rotation rate enters only through the fringe displacement of the output
intensity.
"""

import math
from dataclasses import dataclass

SPEED_OF_LIGHT = 299792458.0  # m/s, exact SI value (not 3e8)
NM = 1e-9  # nanometers to meters; the single wavelength conversion point


@dataclass(frozen=True)
class InterferometerConfig:
    area_s: float                 # loop area, m^2
    lambda0: float                # vacuum center wavelength, m
    mod_phase: float = 0.0        # static modulation phase, rad

    def __post_init__(self):
        if not (math.isfinite(self.area_s) and self.area_s > 0):
            raise ValueError(f"area_s must be positive and finite, got {self.area_s}")
        if not (math.isfinite(self.lambda0) and self.lambda0 > 0):
            raise ValueError(f"lambda0 must be positive and finite, got {self.lambda0}")
        if not math.isfinite(self.mod_phase):
            raise ValueError("mod_phase must be finite")

    @classmethod
    def from_nm(cls, area_s: float, lambda0_nm: float, mod_phase: float = 0.0):
        """Build from a wavelength given in nanometers (the external unit)."""
        return cls(area_s=area_s, lambda0=lambda0_nm * NM, mod_phase=mod_phase)


def fringe_shift(cfg: InterferometerConfig, omega: float) -> float:
    """Fringe displacement 4*Omega*S/(lambda0*c) of the rotating loop.

    Dimensionless (fringe units); odd in omega.
    """
    if not math.isfinite(omega):
        raise ValueError(f"omega must be finite, got {omega}")
    dz = 4.0 * omega * cfg.area_s / (cfg.lambda0 * SPEED_OF_LIGHT)
    if not math.isfinite(dz):
        raise ValueError(f"fringe shift overflows a float for omega = {omega:g} "
                         f"rad/s and area_s = {cfg.area_s:g} m^2")
    return dz


def classical_intensity(cfg: InterferometerConfig, amplitude_a: float,
                        omega: float) -> float:
    """Output-port intensity A*[1 + cos(2*pi*dz + mod_phase)]."""
    if not (math.isfinite(amplitude_a) and amplitude_a >= 0):
        raise ValueError(f"amplitude_a must be nonnegative, got {amplitude_a}")
    phase = 2.0 * math.pi * fringe_shift(cfg, omega) + cfg.mod_phase
    if not math.isfinite(phase):
        raise ValueError(f"fringe phase 2*pi*dz + mod_phase overflows a float "
                         f"for omega = {omega:g} rad/s")
    return amplitude_a * (1.0 + math.cos(phase))
