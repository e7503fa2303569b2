"""Shared test helpers."""

import numpy as np

from sephorn.horn import flat_index_arrays

CHUNK = 8192  # sample rows per vectorized block


def batch_min_margin(a, b, c) -> np.ndarray:
    """Worst inequality margin per sample row.

    a, b, c: (S, n) descending value rows.  Returns the (S,) array of
    min over every admissible triple of sum a[I] + sum b[J] - sum c[K];
    a negative entry flags a violated inequality.
    """
    ii, jj, kk, offs, _ = flat_index_arrays(a.shape[1])
    starts = offs[:-1]
    out = np.empty(a.shape[0])
    for lo in range(0, a.shape[0], CHUNK):
        hi = min(lo + CHUNK, a.shape[0])
        rhs = (np.add.reduceat(a[lo:hi, ii], starts, axis=1)
               + np.add.reduceat(b[lo:hi, jj], starts, axis=1))
        lhs = np.add.reduceat(c[lo:hi, kk], starts, axis=1)
        out[lo:hi] = (rhs - lhs).min(axis=1)
    return out
