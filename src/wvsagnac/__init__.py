"""Weak-value amplified rotation sensing in a polarization Sagnac interferometer.

Simulates post-selected output spectra, extracts amplified center-wavelength
shifts, sweeps sensitivity against rotation rate, solves inverse design
problems under detector constraints and computes multipass loop geometry.

The numpy-free modules load with the package. The names of the numpy-backed
ones (spectral, sweep, design) are looked up on first use (PEP 562), so a
process that only computes geometry or the classical baseline never imports
numpy.
"""

import importlib

from .classical import (NM, SPEED_OF_LIGHT, InterferometerConfig,
                        classical_intensity, fringe_shift)
from .errors import FitFailure, NearOrthogonalSelection
from .geometry import MultipassDesign, multipass_design
from .weak import (OVERLAP_FLOOR, SelectionConfig, WeakValueResult,
                   amplitudes_mn, analytic_wavelength_shift, sagnac_phase,
                   weak_value, weak_value_direct)

# The numpy-backed modules and the package names each defines; __getattr__
# serves both, and __all__ lists the names.
_LAZY_MODULES = {
    "spectral": ("FORM_EXACT", "FORM_PAPER", "FitResult", "SampledSpectrum",
                 "SpectrumModel", "default_grid", "fit_center",
                 "intensity_envelope", "modulation_factor", "output_spectrum"),
    "sweep": ("ModelSpec", "SweepResult", "SweepRow", "benchmark_models",
              "run_sweep", "sensitivity"),
    "design": ("DesignConstraints", "DesignSolution", "FeasibilityReport",
               "feasible", "min_area"),
}
_LAZY = {name: module for module, names in _LAZY_MODULES.items()
         for name in names}


def __getattr__(name):
    # Not cached in the module dict: every lookup reads the defining
    # module's current binding, so a name rebound there stays in step.
    if name in _LAZY_MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *_LAZY_MODULES, *_LAZY})


__all__ = [
    "NM", "SPEED_OF_LIGHT", "InterferometerConfig", "classical_intensity",
    "fringe_shift", "FitFailure", "NearOrthogonalSelection", "MultipassDesign",
    "multipass_design", "OVERLAP_FLOOR", "SelectionConfig", "WeakValueResult",
    "amplitudes_mn", "analytic_wavelength_shift", "sagnac_phase", "weak_value",
    "weak_value_direct", *_LAZY,
]
