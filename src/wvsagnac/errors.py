"""Exception types shared across the package.

Generic bad-input validation raises plain ValueError, and so does a spectrum
whose fit cannot start. FitFailure has its own CLI exit code; sweeps and
designs branch on NearOrthogonalSelection.
"""


class NearOrthogonalSelection(ValueError):
    """Pre- and post-selection are close enough to orthogonal that the
    surviving intensity is effectively zero and the weak value diverges."""


class FitFailure(RuntimeError):
    """The Gaussian fit did not converge within the iteration budget."""

    def __init__(self, message: str, residual_norm: float | None = None,
                 iterations: int | None = None):
        super().__init__(message)
        self.residual_norm = residual_norm
        self.iterations = iterations
