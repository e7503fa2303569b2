"""Structured-text file formats for states and decompositions.

Both formats are JSON documents.  Floats are written with Python's shortest
exact representation, so parse -> emit round-trips are bit-identical and
every double survives unchanged.

State file (``sep-horn-state/1``)::

    {"format": "sep-horn-state/1",
     "dims": [2, 2],
     "matrix": [[[re, im], ...], ...]}      # dense row-major [re, im] pairs

Decomposition file (``sep-horn-decomposition/1``)::

    {"format": "sep-horn-decomposition/1",
     "dims": [2, 2],
     "entries": [{"p": 0.25, "r": [...], "s": [...]}, ...]}
"""

from __future__ import annotations

import json
import math

import numpy as np

from .decompose import SeparableDecomposition
from .errors import FileFormatError

STATE_FORMAT = "sep-horn-state/1"
DECOMPOSITION_FORMAT = "sep-horn-decomposition/1"


def state_to_text(rho: np.ndarray, dims: tuple[int, int]) -> str:
    rho = np.asarray(rho, dtype=complex)
    matrix = [[[float(entry.real), float(entry.imag)] for entry in row]
              for row in rho]
    doc = {"format": STATE_FORMAT, "dims": [int(dims[0]), int(dims[1])],
           "matrix": matrix}
    return json.dumps(doc, indent=1) + "\n"


def state_from_text(text: str):
    """Parse a state file; returns ``(rho, (dim_a, dim_b))``."""
    doc = _load(text)
    if doc.get("format") != STATE_FORMAT:
        raise FileFormatError(f"unsupported state format {doc.get('format')!r}")
    dims = doc.get("dims")
    if (not isinstance(dims, list) or len(dims) != 2
            or not all(isinstance(x, int) and x >= 1 for x in dims)):
        raise FileFormatError(f"bad dims field {dims!r}")
    size = dims[0] * dims[1]
    matrix = doc.get("matrix")
    if not isinstance(matrix, list) or len(matrix) != size:
        raise FileFormatError(f"matrix must have {size} rows")
    rho = np.empty((size, size), dtype=complex)
    for i, row in enumerate(matrix):
        if not isinstance(row, list) or len(row) != size:
            raise FileFormatError(f"row {i} must have {size} entries")
        for j, pair in enumerate(row):
            if (not isinstance(pair, list) or len(pair) != 2
                    or not all(isinstance(x, (int, float)) for x in pair)):
                raise FileFormatError(f"entry ({i},{j}) must be a [re, im] pair")
            if not all(math.isfinite(x) for x in pair):
                raise FileFormatError(f"entry ({i},{j}) is not finite: {pair!r}")
            rho[i, j] = complex(pair[0], pair[1])
    return rho, (dims[0], dims[1])


def decomposition_to_text(dec: SeparableDecomposition, dims: tuple[int, int]) -> str:
    entries = [{"p": float(p), "r": [float(x) for x in r], "s": [float(x) for x in s]}
               for p, r, s in dec.entries()]
    doc = {"format": DECOMPOSITION_FORMAT,
           "dims": [int(dims[0]), int(dims[1])], "entries": entries}
    return json.dumps(doc, indent=1) + "\n"


def decomposition_from_text(text: str):
    """Parse a decomposition file; returns ``(decomposition, (dim_a, dim_b))``."""
    doc = _load(text)
    if doc.get("format") != DECOMPOSITION_FORMAT:
        raise FileFormatError(f"unsupported decomposition format {doc.get('format')!r}")
    dims = doc.get("dims")
    if (not isinstance(dims, list) or len(dims) != 2
            or not all(isinstance(x, int) and x >= 1 for x in dims)):
        raise FileFormatError(f"bad dims field {dims!r}")
    ka = dims[0] * dims[0] - 1
    kb = dims[1] * dims[1] - 1
    raw = doc.get("entries")
    if not isinstance(raw, list) or not raw:
        raise FileFormatError("entries must be a non-empty list")
    probs, r_vecs, s_vecs = [], [], []
    for i, entry in enumerate(raw):
        try:
            probs.append(float(entry["p"]))
            r = [float(x) for x in entry["r"]]
            s = [float(x) for x in entry["s"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise FileFormatError(f"entry {i} malformed: {exc}") from exc
        if len(r) != ka or len(s) != kb:
            raise FileFormatError(
                f"entry {i}: vector lengths ({len(r)},{len(s)}) != ({ka},{kb})")
        r_vecs.append(r)
        s_vecs.append(s)
    dec = SeparableDecomposition(probs=np.asarray(probs),
                                 r_vectors=np.asarray(r_vecs),
                                 s_vectors=np.asarray(s_vecs))
    return dec, (dims[0], dims[1])


def _load(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FileFormatError("top-level document must be an object")
    return doc
