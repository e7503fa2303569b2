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
    for a matrix that has a non-finite entry.  A single matrix takes one
    ``eigvalsh`` call and no finiteness mask, so a matrix that fails pays
    for the failed factorisation and that one eigensolve.  The caller
    applies its own threshold to the result, written ``not low >= -tol`` so
    that NaN fails; within rounding of -tol the factorisation may fail
    where the threshold passes.  Like ``eigvalsh``, the factorisation reads
    only the lower triangle.
    """
    mats = np.asarray(mats)
    n = mats.shape[-1]
    # a copy, promoted as mats + tol I would be
    shifted = mats.astype(np.result_type(mats.dtype, float))
    # the diagonal of each matrix, as a strided view of the flat copy
    shifted.reshape(*mats.shape[:-2], n * n)[..., ::n + 1] += tol
    try:
        # numpy returns a NaN factor for NaN input without raising
        if np.isfinite(np.linalg.cholesky(shifted)).all():
            return None
    except np.linalg.LinAlgError:
        pass
    if mats.ndim == 2:
        try:
            return np.linalg.eigvalsh(mats)[0]
        except np.linalg.LinAlgError:  # a NaN entry; an infinite one gives NaN eigenvalues
            return np.float64(np.nan)
    low = np.full(mats.shape[:-2], np.nan)
    finite = np.isfinite(mats).all(axis=(-2, -1))
    low[finite] = np.linalg.eigvalsh(mats[finite])[..., 0]
    return low[()]
