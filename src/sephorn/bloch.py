"""Bloch-vector representation of density matrices.

A state on an N-dimensional Hilbert space is encoded by the real vector of
generator expectation values ``r_mu = Tr[rho g_mu]`` of length N^2 - 1, and
reconstructed via ``rho = eye/N + (1/2) sum_mu r_mu g_mu``.  Vectors are
plain numpy arrays; the local dimension is recovered from the length.
This module alone fixes the coordinates: every conversion between
matrices and Bloch data is one product with :func:`_moment_rows` or its
inverse :func:`_moment_columns`.
"""

from __future__ import annotations

from functools import lru_cache
from math import inf, sqrt

import numpy as np

from .config import STATE_TOL
from .errors import DimensionMismatch, NotAState
from .su import generator_basis


def dim_of_bloch(vec: np.ndarray) -> int:
    """Local dimension N from a Bloch-vector length N^2 - 1 (the last axis)."""
    length = np.shape(vec)[-1]
    n = round(np.sqrt(length + 1))
    if n * n - 1 != length:
        raise DimensionMismatch(f"length {length} is not of the form N^2 - 1")
    return n


def _gen_stack(dim: int) -> np.ndarray:
    # dimension-1 factors carry an empty generator stack
    if dim == 1:
        return np.zeros((0, 1, 1), dtype=complex)
    return generator_basis(dim).matrices


@lru_cache(maxsize=None)
def _moment_rows(dim: int) -> np.ndarray:
    """Conjugate rows of [I; generators], a read-only (N^2, N^2) array: row
    mu dotted with a flattened Hermitian X gives Tr[X g_mu], with g_0 = I."""
    rows = np.vstack([np.eye(dim).reshape(1, -1),
                      _gen_stack(dim).reshape(dim * dim - 1, dim * dim)]).conj()
    rows.setflags(write=False)
    return rows


@lru_cache(maxsize=None)
def _moment_columns(dim: int) -> np.ndarray:
    """The inverse of :func:`_moment_rows`, read-only, with columns vec(I/N)
    and vec(g_mu/2): it maps [Tr X, Tr[X g_mu]] back to a flattened X."""
    cols = _moment_rows(dim).conj().T * np.r_[1.0 / dim, np.full(dim * dim - 1, 0.5)]
    cols.setflags(write=False)
    return cols


_COMPLEX = np.dtype(complex)


def _as_complex(rho) -> np.ndarray:
    """``rho`` as a complex array, converted once; :class:`NotAState`
    naming its type when numpy cannot convert it or its dtype is not
    numeric (kind b, i, u, f or c), so that no string is parsed as a number.
    A complex ndarray is returned as it is, with no numpy call."""
    if type(rho) is np.ndarray and rho.dtype is _COMPLEX:
        return rho
    try:
        arr = np.asarray(rho)
        if arr.dtype.kind in "biufc":
            return arr.astype(complex, copy=False)
    except (ValueError, TypeError) as exc:
        # numpy's message names the shape of a ragged nesting
        raise NotAState(f"expected a numeric matrix, got {type(rho).__name__} "
                        f"that numpy cannot convert: {exc}") from None
    raise NotAState(f"expected a numeric matrix, got {type(rho).__name__} of dtype {arr.dtype}")


def validate_state(rho: np.ndarray, tol: float = STATE_TOL) -> np.ndarray:
    """Check finiteness, Hermiticity and unit trace, returning the matrix as complex.

    The input is converted once, by :func:`_as_complex`, which rejects a
    value that is no numeric array.  An infinite ``tol`` checks finiteness
    only.  A square matrix is passed by the checks of
    :func:`_validate_stack` in fewer calls: a finite
    vdot(rho, rho), the sum of |rho_ij|^2, rules out every infinite and NaN
    entry, with no warning, before rho - rho^dag is taken, and the
    Hermiticity and trace deviations are then those of :func:`_validate_stack`,
    with the same arithmetic.  Any matrix that fails is diagnosed there.
    """
    rho = _as_complex(rho)
    if rho.ndim != 2:
        raise NotAState(f"expected a square matrix, got shape {rho.shape}")
    n = rho.shape[1]
    if (rho.shape[0] == n and np.vdot(rho, rho).real < inf
            and np.abs(rho - rho.conj().T).max(initial=0.0) <= tol
            and abs(rho.ravel()[::n + 1].sum() - 1.0) <= tol):
        return rho
    return _validate_stack(rho, tol)


def _validate_stack(rho: np.ndarray, tol: float) -> np.ndarray:
    """:func:`validate_state` for one matrix or a stack of them on the
    leading axis; every matrix must pass, and an error names the first of a
    stack that fails."""
    rho = _as_complex(rho)
    if rho.ndim not in (2, 3) or rho.shape[-2] != rho.shape[-1]:
        raise NotAState(f"expected a square matrix or a stack of them, got shape {rho.shape}")
    if not np.isfinite(rho).all():
        where, _ = _first_failure(rho, (~np.isfinite(rho)).sum(axis=(-2, -1)), 0)
        raise NotAState(f"{where}matrix has non-finite entries")
    # an overflow reads as an infinite deviation and a trace of inf - inf as NaN: both fail
    with np.errstate(over="ignore", invalid="ignore"):
        herm = np.abs(rho - rho.conj().swapaxes(-1, -2))
        tr_dev = np.abs(rho.trace(0, -2, -1) - 1.0)
    if herm.size and not herm.max() <= tol:
        where, dev = _first_failure(rho, herm.max(axis=(-2, -1)), tol)
        raise NotAState(f"{where}Hermiticity deviation {dev:.3e} exceeds {tol:.1e}")
    if not (tr_dev <= tol).all():
        where, dev = _first_failure(rho, tr_dev, tol)
        raise NotAState(f"{where}trace deviates from 1 by {dev:.3e}")
    return rho


def _first_failure(rho: np.ndarray, per_matrix: np.ndarray, tol: float) -> tuple[str, float]:
    """Message prefix naming the first matrix whose value exceeds ``tol``
    or is NaN (empty for a single matrix), and that value."""
    per_matrix = np.reshape(per_matrix, -1)
    i = int(np.argmax(~(per_matrix <= tol)))
    return (f"matrix {i}: " if rho.ndim == 3 else ""), float(per_matrix[i])


def to_bloch(rho: np.ndarray) -> np.ndarray:
    """Expectation values Tr[rho g_mu] of a trace-one Hermitian matrix.

    A stack of L matrices on the leading axis gives an (L, N^2 - 1) array.
    The matrices are validated as by :func:`validate_state` at ``STATE_TOL``.
    """
    rho = _validate_stack(rho, STATE_TOL)
    n = rho.shape[-1]
    return np.real(rho.reshape(*rho.shape[:-2], n * n) @ _moment_rows(n)[1:].T)


def _augmented(vecs) -> np.ndarray:
    """The rows [1, r], Tr[rho g_mu] with g_0 = I, of vectors r on the last axis."""
    vecs = np.asarray(vecs)
    out = np.empty(vecs.shape[:-1] + (vecs.shape[-1] + 1,))
    out[..., 0], out[..., 1:] = 1.0, vecs
    return out


def _ball_slope(dim: int) -> float:
    """sqrt((N-1)/(2N)), the fall of :func:`ball_floor` per unit Bloch norm."""
    return sqrt((dim - 1.0) / (2.0 * dim))


def ball_floor(vecs: np.ndarray, dim: int) -> np.ndarray | float:
    """Lower bound 1/N - |r| sqrt((N-1)/(2N)) on the lowest eigenvalue of
    :func:`from_bloch` of each vector on the last axis.

    from_bloch(r) - I/N is traceless with Frobenius norm |r|/sqrt(2), and a
    traceless Hermitian N x N matrix of Frobenius norm s has no eigenvalue
    below -s sqrt((N-1)/N).  The bound is exact at N = 2, and it is
    positive exactly inside the ball inscribed in the state space,
    |r|^2 < 2/(N(N-1)).
    """
    vecs = np.asarray(vecs, dtype=float)
    return 1.0 / dim - np.sqrt(np.vecdot(vecs, vecs)) * _ball_slope(dim)


@lru_cache(maxsize=None)
def _ball_radius_sq(dim: int, floor: float) -> float:
    """The largest squared Bloch norm whose :func:`ball_floor` is at least
    ``floor``, for ``floor`` at most 1/N; infinite at N = 1, whose vectors
    are empty.  Memoized: verification asks it of every side it checks."""
    slope = _ball_slope(dim)
    return ((1.0 / dim - floor) / slope) ** 2 if slope else float("inf")


def from_bloch(r: np.ndarray, dim: int | None = None) -> np.ndarray:
    """Hermitian trace-one matrix for a Bloch vector.

    A stack of L vectors on the leading axis gives an (L, N, N) array.
    Positivity is not guaranteed; vectors outside the physical body yield
    matrices with negative eigenvalues.
    """
    r = np.asarray(r, dtype=float)
    n = dim_of_bloch(r) if dim is None else dim
    if n * n - 1 != r.shape[-1]:
        raise DimensionMismatch(f"vector length {r.shape[-1]} does not match dim {n}")
    return (_augmented(r) @ _moment_columns(n).T).reshape(*r.shape[:-1], n, n)

