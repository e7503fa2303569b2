"""Numerical thresholds.

All comparison thresholds used across the package live here.  A caller of
:func:`~sephorn.criteria.analyze` chooses two numbers: the positivity
tolerance ``tol`` (default ``POSITIVITY_TOL``), which sets the psd and
rank thresholds and raises ``STATE_TOL`` when larger, and the filtering
budget ``max_iter`` (default ``MAX_ITER``), each checked by
:func:`check_tol` and :func:`check_max_iter` wherever it is taken.  The
other thresholds are fixed; PPT is decided at ``PPT_ROUNDING`` at every
size, whatever ``tol``.
"""

from __future__ import annotations

from math import isfinite
from numbers import Integral
from sys import float_info

from .errors import BadParameter

POSITIVITY_TOL = 1e-9  # minimum-eigenvalue threshold for physicality; rank cutoff
STATE_TOL = 1e-9       # trace-one / Hermiticity for density matrices (floor)
MAX_ITER = 500         # normal-form filtering budget, in sweeps
NORMAL_TOL = 1e-10     # marginal Bloch-norm convergence target of filtering
SCALING_RATE = 0.8     # per-sweep deviation ratio a filtering run must beat, else it re-bases
KYFAN_SLACK = 1e-9     # slack on the norm-bound criteria and the 2 x 2 concurrence
HOLDER_ROUNDING = 2 ** 22 * float_info.epsilon  # relative rounding of Holder's Ky Fan floor
PPT_ROUNDING = 64 * float_info.epsilon  # PPT threshold at every size, about 1.4e-14
HORN_SLACK = 1e-9      # relative slack of the Horn product inequalities and equality
RESIDUAL = 1e-8        # decomposition residual; normal-form acceptance
PROB_SUM = 1e-10       # probability normalization of a decomposition
COMPONENT_PSD = 1e-8   # physicality of decomposition components
TAKAGI_ORTHO = 1e-12   # Gram deviation of Wootters' Takagi vectors that takes a QR
KYFAN_RANK = 1e-12     # singular value, relative to the largest, that the Ky Fan construction keeps
DESCENDING_TOL = 1e-12 # rise between neighbours that a descending Horn sequence may show


def check_tol(value: float, name: str = "tol") -> None:
    """Raise :class:`BadParameter` naming ``name`` unless ``value`` is a
    finite tolerance >= 0."""
    if not (isfinite(value) and value >= 0.0):
        raise BadParameter(f"{name} must be finite and >= 0, got {value}")


def check_max_iter(max_iter: int) -> None:
    """Raise :class:`BadParameter` unless ``max_iter`` is an integer >= 0,
    not a bool."""
    # int first: the Integral check alone goes through the ABC machinery
    if not (isinstance(max_iter, (int, Integral)) and not isinstance(max_iter, bool)
            and max_iter >= 0):
        raise BadParameter(f"max_iter must be an integer >= 0, got {max_iter}")
