"""Central numerical-tolerance record.

All comparison thresholds used across the package live here, so the
criteria battery and the CLI share one consistent configuration.  The
environment variable ``SEP_HORN_TOL`` overrides the default positivity
tolerance (the CLI ``--tol`` flag takes precedence over the variable).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

ENV_TOL = "SEP_HORN_TOL"


@dataclass(frozen=True)
class Tolerances:
    # matrix-level validation
    state: float = 1e-9          # trace-one / Hermiticity for density matrices
    psd: float = 1e-9            # minimum-eigenvalue threshold for physicality
    rank: float = 1e-9           # eigenvalue cutoff for local-rank detection

    # normal-form filtering
    normal_tol: float = 1e-10    # marginal Bloch-norm convergence target
    normal_max_iter: int = 500

    # norm-bound criteria
    kyfan_slack: float = 1e-9    # slack on the norm-bound criteria

    # decomposition verification
    residual: float = 1e-8       # decomposition residual; normal-form acceptance
    prob_sum: float = 1e-10      # probability normalization
    component_psd: float = 1e-8  # physicality of decomposition components

    def with_positivity(self, tol: float) -> "Tolerances":
        """Return a copy with the positivity-related thresholds set to ``tol``."""
        return replace(self, psd=tol, rank=tol, state=max(self.state, tol))


DEFAULT = Tolerances()


def default_positivity_tol() -> float:
    """Default positivity tolerance, honoring ``SEP_HORN_TOL`` when set."""
    raw = os.environ.get(ENV_TOL)
    if raw is None:
        return DEFAULT.psd
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"{ENV_TOL} must be a float, got {raw!r}") from None
