"""The one module that calls LAPACK: dense factorisations as numpy's own
linalg gufuncs, and a positivity certificate built on them.

Each kernel calls the gufunc of ``numpy.linalg._umath_linalg`` that the
public ``np.linalg`` function of the same name calls, with the same loop
(double or complex double), so its results are those of that function bit
for bit.  What it leaves out is the public function's Python wrapper:
argument checks, type promotion, result wrapping and the error state whose
callback raises ``LinAlgError``.  At the sizes sephorn factorises, the
wrapper costs as much as LAPACK or more.  So a failed factorisation -- a
singular matrix, one that is not positive definite, an eigensolve or SVD
that does not converge -- shows as a non-finite result, which the gufunc
fills with NaN, and never as an exception.  Each kernel runs under
``np.errstate(all="ignore")``, set per call by the decorator, so that no
floating-point warning escapes either.  The ``bare_`` kernels set no error
state, for a loop that already runs under ``np.errstate(all="ignore")``
and would pay for one per call.

A kernel takes an ndarray of float64 or complex128 and returns double
precision.  Callers look kernels up through this module (``linalg.inv``),
so that one spy point sees every factorisation.  ``tests/test_linalg.py``
pins every kernel to its public counterpart, so a numpy release that
renames or changes the private gufuncs fails there first.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import _umath_linalg

_quiet = np.errstate(all="ignore")


@_quiet
def inv(a: np.ndarray) -> np.ndarray:
    """``np.linalg.inv(a)``; NaN where a matrix is singular."""
    return _umath_linalg.inv(a, signature="D->D" if a.dtype.kind == "c" else "d->d")


def bare_inv(a: np.ndarray) -> np.ndarray:
    """:func:`inv` under the caller's error state."""
    return _umath_linalg.inv(a, signature="D->D" if a.dtype.kind == "c" else "d->d")


@_quiet
def cholesky(a: np.ndarray) -> np.ndarray:
    """``np.linalg.cholesky(a)``, the lower factor L with L L^dag = a, read
    from the lower triangle; NaN where a matrix is not positive definite."""
    return _umath_linalg.cholesky_lo(a, signature="D->D" if a.dtype.kind == "c" else "d->d")


def bare_cholesky_upper(a: np.ndarray) -> np.ndarray:
    """``np.linalg.cholesky(a, upper=True)``, the upper factor U with
    U^dag U = a, read from the upper triangle, under the caller's error
    state; NaN where a matrix is not positive definite."""
    return _umath_linalg.cholesky_up(a, signature="D->D" if a.dtype.kind == "c" else "d->d")


@_quiet
def eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh(a)``: ascending eigenvalues and the eigenvectors as
    columns, read from the lower triangle."""
    return _umath_linalg.eigh_lo(a, signature="D->dD" if a.dtype.kind == "c" else "d->dd")


@_quiet
def eigvalsh(a: np.ndarray) -> np.ndarray:
    """``np.linalg.eigvalsh(a)``: ascending eigenvalues, read from the lower
    triangle."""
    return _umath_linalg.eigvalsh_lo(a, signature="D->d" if a.dtype.kind == "c" else "d->d")


@_quiet
def svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``np.linalg.svd(a, full_matrices=False)``: the thin ``(u, s, vh)``,
    ``s`` descending."""
    return _umath_linalg.svd_s(a, signature="D->DdD" if a.dtype.kind == "c" else "d->ddd")


@_quiet
def svdvals(a: np.ndarray) -> np.ndarray:
    """``np.linalg.svdvals(a)``: the singular values, descending, with no
    singular vectors."""
    return _umath_linalg.svd(a, signature="D->d" if a.dtype.kind == "c" else "d->d")


@_quiet
def qr_q(a: np.ndarray) -> np.ndarray:
    """``np.linalg.qr(a)[0]``: the Q factor of the reduced QR decomposition."""
    complex_ = a.dtype.kind == "c"
    # the Householder vectors overwrite the copy, as in np.linalg.qr
    a = a.astype(complex if complex_ else float)
    tau = _umath_linalg.qr_r_raw(a, signature="D->D" if complex_ else "d->d")
    return _umath_linalg.qr_reduced(a, tau, signature="DD->D" if complex_ else "dd->d")


@_quiet
def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.linalg.solve(a, b)`` for real ``a`` and a real vector ``b``;
    NaN where ``a`` is singular."""
    return _umath_linalg.solve1(a, b, signature="dd->d")


def certify_psd(mats: np.ndarray, tol: float) -> np.ndarray | float | None:
    """Certify lambda_min > -tol for a Hermitian matrix or a stack of them.

    A Cholesky factor of the Hermitian M + tol I exists exactly when every
    eigenvalue of M exceeds -tol, so when the factorisation of the shifted
    matrix (or of every matrix of the stack) succeeds with a finite factor,
    None is returned and no eigenvalue is computed.  Otherwise the lowest
    eigenvalue of each matrix is returned, from :func:`eigvalsh`: an array
    of shape ``mats.shape[:-2]``, a numpy float for a single matrix, NaN
    for a matrix that has a non-finite entry.  The caller applies its own
    threshold to the result, written ``not low >= -tol`` so that NaN fails;
    within rounding of -tol the factorisation may fail where the threshold
    passes.  Like :func:`eigvalsh`, the factorisation reads only the lower
    triangle.
    """
    mats = np.asarray(mats)
    n = mats.shape[-1]
    # a copy, promoted as mats + tol I would be
    shifted = mats.astype(np.result_type(mats.dtype, float))
    # the diagonal of each matrix, as a strided view of the flat copy
    shifted.reshape(*mats.shape[:-2], n * n)[..., ::n + 1] += tol
    # a failed factor is NaN, and a NaN entry gives a NaN factor
    if np.isfinite(cholesky(shifted)).all():
        return None
    return eigvalsh(mats)[..., 0][()]
