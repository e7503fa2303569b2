"""Factories for the named state families."""

from __future__ import annotations

import numpy as np

from .bipartite import BipartiteDecomposed, decompose_state
from .config import POSITIVITY_TOL
from .errors import BadParameter, DimensionTooSmall, NotPSD, OutOfPositivityRange
from .su import generator_basis


def werner_coefficient(dim: int, phi: float) -> float:
    """Correlation coefficient 2(N phi - 1) / (N (N^2 - 1)) of the Werner family."""
    return 2.0 * (dim * phi - 1.0) / (dim * (dim * dim - 1.0))


def werner_parameter(dim: int, c: float) -> float:
    """Werner parameter phi of correlation coefficient c, the inverse of
    :func:`werner_coefficient`."""
    return (c * dim * (dim * dim - 1.0) / 2.0 + 1.0) / dim


def werner(dim: int, phi: float) -> BipartiteDecomposed:
    """Werner state on dim x dim: zero marginals, correlation c * identity.

    Its spectrum is (1 + phi)/(N(N+1)) on the symmetric subspace and
    (1 - phi)/(N(N-1)) on the antisymmetric one, so it is PSD over
    phi in [-1, 1]; out-of-range parameters raise NotPSD, and dim < 2
    raises DimensionTooSmall.
    """
    if dim < 2:
        raise DimensionTooSmall(f"Werner state needs dim >= 2, got {dim}")
    _check_psd(min((1.0 + phi) / (dim * (dim + 1.0)), (1.0 - phi) / (dim * (dim - 1.0))),
               f"Werner(dim={dim}, phi={phi})")
    k = dim * dim - 1
    return BipartiteDecomposed(dim_a=dim, dim_b=dim,
                               a=np.zeros(k), b=np.zeros(k),
                               corr=werner_coefficient(dim, phi) * np.eye(k))


def isotropic(dim: int, p: float) -> BipartiteDecomposed:
    """Isotropic state on dim x dim: diagonal correlation +-2p/N.

    The correlation matrix carries +2p/N at the transpose-symmetric
    generator indices and -2p/N at the antisymmetric ones.  Its spectrum is
    p + (1 - p)/N^2 on the maximally entangled vector and (1 - p)/N^2 on
    its complement, so it is PSD over p in [-1/(N^2-1), 1]; out-of-range
    parameters raise NotPSD.
    """
    mixed = (1.0 - p) / (dim * dim)
    _check_psd(min(p + mixed, mixed), f"isotropic(dim={dim}, p={p})")
    k = dim * dim - 1
    diag = np.full(k, 2.0 * p / dim)
    anti = list(generator_basis(dim).antisymmetric_indices)
    diag[anti] = -diag[anti]
    return BipartiteDecomposed(dim_a=dim, dim_b=dim,
                               a=np.zeros(k), b=np.zeros(k),
                               corr=np.diag(diag))


def bell() -> BipartiteDecomposed:
    """The two-qubit maximally entangled state (|00> + |11>)/sqrt(2).

    In the canonical Pauli ordering the correlation matrix is
    diag(1, -1, 1).
    """
    return BipartiteDecomposed(dim_a=2, dim_b=2,
                               a=np.zeros(3), b=np.zeros(3),
                               corr=np.diag([1.0, -1.0, 1.0]))


def p_zero(p: float, sign: int = +1) -> BipartiteDecomposed:
    """Mixture p |psi_sign><psi_sign| + (1-p) |00><00| of two qubits.

    ``psi_+- = (|01> +- |10>)/sqrt(2)``.  Separable only at p = 0; its
    normal form is approached but never reached by filtering for p > 0.
    """
    if not 0.0 <= p <= 1.0:
        raise OutOfPositivityRange(f"p must lie in [0, 1], got {p}")
    if sign not in (+1, -1):
        raise BadParameter(f"sign must be +1 or -1, got {sign}")
    psi = np.array([0.0, 1.0, sign, 0.0]) / np.sqrt(2.0)
    rho = p * np.outer(psi, psi) + (1.0 - p) * np.diag([1.0, 0.0, 0.0, 0.0])
    return decompose_state(rho.astype(complex), 2, 2)


def _check_psd(low: float, label: str) -> None:
    """Raise NotPSD when the lowest eigenvalue ``low`` is below
    -``POSITIVITY_TOL`` (or NaN)."""
    if not low >= -POSITIVITY_TOL:
        raise NotPSD(f"{label} has minimum eigenvalue {low:.3e}")
