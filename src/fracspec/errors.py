"""Exception types shared across the library."""


class FracspecError(Exception):
    """Base class for all library errors."""


class DomainError(FracspecError, ValueError):
    """Input outside the mathematically supported domain."""


class NonFiniteBlowup(FracspecError):
    """IVP trajectory exceeded the overflow guard (lambda far outside usable range)."""


class BracketFailure(FracspecError):
    """Oscillation counting could not isolate an eigenvalue index."""


class ResidualTooLarge(FracspecError):
    """Characteristic-function residual above tolerance after root refinement."""


class InsufficientModes(FracspecError):
    """Not enough computed modes for the requested diagnostic."""


class TruncationTooCoarse(FracspecError):
    """Mode-truncation tail bound exceeds the requested tolerance."""


class IncompatibleGrids(FracspecError):
    """Space or time grids of the operands do not match."""


class LinearSolveFailure(FracspecError):
    """Banded linear system could not be solved (singular matrix)."""


class QuadratureNonConvergence(FracspecError):
    """Quadrature failed to reach the requested tolerance."""


class NearPole(FracspecError):
    """Denominator below the pole guard threshold."""


class ZeroEigenvalue(FracspecError):
    """Spectral product requested over a set containing a zero eigenvalue."""


class FitFailure(FracspecError):
    """Least-squares fit on degenerate data."""


class MissingColumn(FracspecError):
    """CSV column named in a plot spec does not exist, or the spec names none."""


class EmptyData(FracspecError):
    """No plottable data after filtering (or nonpositive values under log scale)."""
