"""Exception hierarchy for sephorn.

Every error raised by the library derives from :class:`SepHornError`, so
callers (including the CLI) can distinguish library failures from plain
Python errors.
"""


class SepHornError(Exception):
    """Base class for all sephorn errors."""


class BadParameter(SepHornError):
    """A caller-chosen number (``tol``, ``max_iter``, ``sign``) lies outside its range."""


# --- linear algebra ---------------------------------------------------------

class DimensionMismatch(SepHornError):
    """Array shapes are inconsistent with the declared dimensions."""


class DimensionTooSmall(SepHornError):
    """Generator bases require dimension >= 2."""


# --- states -----------------------------------------------------------------

class NotAState(SepHornError):
    """Matrix is not Hermitian / trace-one within tolerance."""


class NotPSD(SepHornError):
    """Constructed matrix has a negative eigenvalue beyond tolerance."""


class NotFullRank(SepHornError):
    """Operation requires full local ranks."""


class OutOfPositivityRange(SepHornError):
    """State-family parameter lies outside the physical range, or outside
    the range a construction covers (the separable range 0 <= phi <= 1 of
    the closed-form Werner decomposition)."""


# --- combinatorics ----------------------------------------------------------

class BadCardinality(SepHornError):
    """Triple-set cardinality must satisfy 1 <= r < n."""


class TripleCapExceeded(SepHornError):
    """Triple enumeration is capped at n <= ``horn.MAX_N``."""


class LengthMismatch(SepHornError):
    """Singular-value sequences must share a common length."""


class NotSorted(SepHornError):
    """Singular-value sequences must be finite, non-negative and descending."""


# --- constructions ----------------------------------------------------------

class BoundExceeded(SepHornError):
    """Correlation strength exceeds the constructive sufficient bound;
    ``excess`` is the Ky Fan norm minus the bound."""

    def __init__(self, message: str, excess: float):
        super().__init__(message)
        self.excess = excess


class SearchFailed(SepHornError):
    """No SIC fiducial solved the overlap equations within the residual bound."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


# --- file formats -----------------------------------------------------------

class FileFormatError(SepHornError):
    """State or decomposition file could not be parsed."""
