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
    doc, dims = _load(text, STATE_FORMAT)
    size = dims[0] * dims[1]
    matrix = doc.get("matrix")
    if not isinstance(matrix, list) or len(matrix) != size:
        raise FileFormatError(f"matrix must have {size} rows")
    rho = np.empty((size, size), dtype=complex)
    for i, row in enumerate(matrix):
        if not isinstance(row, list) or len(row) != size:
            raise FileFormatError(f"row {i} must have {size} entries")
        for j, pair in enumerate(row):
            if not isinstance(pair, list) or len(pair) != 2:
                raise FileFormatError(f"entry ({i},{j}) must be a [re, im] pair")
            re, im = _numbers(pair, f"entry ({i},{j})")
            rho[i, j] = complex(re, im)
    return rho, dims


def decomposition_to_text(dec: SeparableDecomposition, dims: tuple[int, int]) -> str:
    entries = [{"p": float(p), "r": [float(x) for x in r], "s": [float(x) for x in s]}
               for p, r, s in dec.entries()]
    doc = {"format": DECOMPOSITION_FORMAT,
           "dims": [int(dims[0]), int(dims[1])], "entries": entries}
    return json.dumps(doc, indent=1) + "\n"


def decomposition_from_text(text: str):
    """Parse a decomposition file; returns ``(decomposition, (dim_a, dim_b))``."""
    doc, dims = _load(text, DECOMPOSITION_FORMAT)
    ka = dims[0] * dims[0] - 1
    kb = dims[1] * dims[1] - 1
    raw = doc.get("entries")
    if not isinstance(raw, list) or not raw:
        raise FileFormatError("entries must be a non-empty list")
    probs, r_vecs, s_vecs = [], [], []
    for i, entry in enumerate(raw):
        try:
            p, r, s = entry["p"], entry["r"], entry["s"]
        except (KeyError, TypeError) as exc:
            raise FileFormatError(f"entry {i} malformed: {exc!r}") from exc
        probs.extend(_numbers([p], f"entry {i} probability"))
        r = _numbers(r, f"entry {i} vector r")
        s = _numbers(s, f"entry {i} vector s")
        if len(r) != ka or len(s) != kb:
            raise FileFormatError(
                f"entry {i}: vector lengths ({len(r)},{len(s)}) != ({ka},{kb})")
        r_vecs.append(r)
        s_vecs.append(s)
    dec = SeparableDecomposition(probs=np.asarray(probs),
                                 r_vectors=np.asarray(r_vecs),
                                 s_vectors=np.asarray(s_vecs))
    return dec, dims


def _numbers(values, what: str) -> list[float]:
    """``values`` as floats when it is a list of finite numbers, not bools.
    An integer beyond the float range counts as not finite."""
    if not isinstance(values, list) or not all(
            isinstance(x, (int, float)) and not isinstance(x, bool) for x in values):
        raise FileFormatError(f"{what} must be a list of numbers, got {values!r}")
    try:
        floats = [float(x) for x in values]
    except OverflowError:  # an integer beyond the float range
        floats = None
    if floats is None or not all(math.isfinite(x) for x in floats):
        raise FileFormatError(f"{what} is not finite: {values!r}")
    return floats


def _load(text: str, fmt: str) -> tuple[dict, tuple[int, int]]:
    """The document of a ``fmt`` file and its ``dims`` field, two integers >= 1."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        # JSONDecodeError, or an integer literal past the digit limit of int()
        raise FileFormatError(f"not valid JSON: {exc}") from exc
    except RecursionError:
        raise FileFormatError("not valid JSON: nested too deeply to parse") from None
    if not isinstance(doc, dict):
        raise FileFormatError("top-level document must be an object")
    if doc.get("format") != fmt:
        raise FileFormatError(f"unsupported format {doc.get('format')!r}, expected {fmt!r}")
    dims = doc.get("dims")
    if (not isinstance(dims, list) or len(dims) != 2
            or not all(isinstance(x, int) and not isinstance(x, bool) and x >= 1
                       for x in dims)):
        raise FileFormatError(f"bad dims field {dims!r}")
    return doc, (dims[0], dims[1])
