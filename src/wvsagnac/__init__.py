"""Weak-value amplified rotation sensing in a polarization Sagnac interferometer.

Simulates post-selected output spectra, extracts amplified center-wavelength
shifts, sweeps sensitivity against rotation rate, solves inverse design
problems under detector constraints and computes multipass loop geometry.
"""

from .classical import (NM, SPEED_OF_LIGHT, InterferometerConfig,
                        classical_intensity, fringe_shift)
from .design import (DesignConstraints, DesignSolution, FeasibilityReport,
                     feasible, min_area)
from .errors import DegenerateInput, FitFailure, NearOrthogonalSelection
from .geometry import MultipassDesign, equivalent_area, multipass_design, turns
from .spectral import (FORM_EXACT, FORM_PAPER, FitResult, SampledSpectrum,
                       SpectrumModel, default_grid, fit_center,
                       intensity_envelope, modulation_factor, output_spectrum)
from .sweep import (ModelSpec, Sensitivity, SweepResult, SweepRow,
                    benchmark_models, default_window, run_sweep, sensitivity)
from .weak import (OVERLAP_FLOOR, SelectionConfig, WeakValueResult,
                   amplitudes_mn, analytic_wavelength_shift, sagnac_phase,
                   weak_value, weak_value_direct)

__all__ = [
    "NM", "SPEED_OF_LIGHT", "OVERLAP_FLOOR", "FORM_EXACT", "FORM_PAPER",
    "InterferometerConfig", "SelectionConfig", "WeakValueResult",
    "SpectrumModel", "SampledSpectrum", "FitResult", "ModelSpec", "SweepRow",
    "SweepResult", "Sensitivity", "MultipassDesign", "DesignConstraints",
    "FeasibilityReport", "DesignSolution",
    "NearOrthogonalSelection", "DegenerateInput", "FitFailure",
    "fringe_shift", "classical_intensity", "sagnac_phase", "amplitudes_mn",
    "weak_value", "weak_value_direct", "analytic_wavelength_shift",
    "intensity_envelope", "modulation_factor", "output_spectrum",
    "fit_center", "default_grid", "run_sweep", "sensitivity", "default_window",
    "benchmark_models", "turns", "equivalent_area", "multipass_design",
    "feasible", "min_area",
]
