"""A positivity certificate for a Hermitian matrix or a stack of them."""

from __future__ import annotations

import numpy as np


def certify_psd(mats: np.ndarray, tol: float) -> np.ndarray | float | None:
    """Certify lambda_min > -tol for a Hermitian matrix or a stack of them.

    A Cholesky factor of the Hermitian M + tol I exists exactly when every
    eigenvalue of M exceeds -tol, so when the factorisation of the shifted
    matrix (or of every matrix of the stack) succeeds with a finite factor,
    None is returned and no eigenvalue is computed.  Otherwise the lowest
    eigenvalue of each matrix is returned, from ``eigvalsh``: an array of
    shape ``mats.shape[:-2]``, a numpy float for a single matrix, with NaN
    for a matrix that has a non-finite entry.  The caller applies its own
    threshold to it, written ``not low >= -tol`` so that NaN fails; within
    rounding of -tol the factorisation may fail where the threshold passes.
    Like ``eigvalsh``, the factorisation reads only the lower triangle.
    """
    mats = np.asarray(mats)
    try:
        # numpy returns a NaN factor for NaN input without raising
        if np.isfinite(np.linalg.cholesky(mats + tol * np.eye(mats.shape[-1]))).all():
            return None
    except np.linalg.LinAlgError:
        pass
    low = np.full(mats.shape[:-2], np.nan)
    finite = np.isfinite(mats).all(axis=(-2, -1))
    low[finite] = np.linalg.eigvalsh(mats[finite])[..., 0]
    return low[()]
