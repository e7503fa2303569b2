"""The validation contract: for each malformed input, the exception class
and message of ``analyze``, ``decompose_state``, ``validate_state`` and a
``to_bloch`` stack, with warnings raised as errors, so that no input warns
on its way to the error that names it."""

import warnings

import numpy as np
import pytest

from sephorn import analyze
from sephorn.bipartite import decompose_state
from sephorn.bloch import to_bloch, validate_state
from sephorn.errors import DimensionMismatch, NotAState


def _mixed() -> np.ndarray:
    return np.eye(4, dtype=complex) / 4.0


def _spoiled(**entries) -> np.ndarray:
    """I/4 with the entries named "i_j" replaced."""
    rho = _mixed()
    for key, value in entries.items():
        i, j = map(int, key[1:].split("_"))
        rho[i, j] = value
    return rho


# input, message for one matrix; a stack prefixes "matrix 1: "
MATRIX_CASES = {
    "nan": (_spoiled(e0_0=np.nan), "matrix has non-finite entries"),
    "nan-imaginary": (_spoiled(e2_1=complex(0.0, np.nan)), "matrix has non-finite entries"),
    "+inf": (_spoiled(e0_0=np.inf), "matrix has non-finite entries"),
    "-inf": (_spoiled(e3_3=-np.inf), "matrix has non-finite entries"),
    # inf - inf is NaN: a Hermiticity test on rho - rho^H alone would warn
    "+inf-symmetric": (_spoiled(e0_1=np.inf, e1_0=np.inf), "matrix has non-finite entries"),
    "inf-and-non-hermitian": (_spoiled(e0_1=np.inf, e2_3=0.5), "matrix has non-finite entries"),
    "non-hermitian": (_spoiled(e0_1=1e-3), "Hermiticity deviation 1.000e-03 exceeds 1.0e-09"),
    "non-hermitian-near-tol": (_spoiled(e2_1=1.5e-9),
                               "Hermiticity deviation 1.500e-09 exceeds 1.0e-09"),
    "non-hermitian-imaginary": (_spoiled(e1_2=0.25j, e2_1=0.25j),
                                "Hermiticity deviation 5.000e-01 exceeds 1.0e-09"),
    "non-hermitian-and-trace": (_spoiled(e0_1=1e-3, e0_0=0.5),
                                "Hermiticity deviation 1.000e-03 exceeds 1.0e-09"),
    "trace": (_mixed() * 1.01, "trace deviates from 1 by 1.000e-02"),
    "trace-near-tol": (_mixed() * (1.0 + 3e-9), "trace deviates from 1 by 3.000e-09"),
    # an imaginary diagonal entry is a Hermiticity deviation of twice its size
    "imaginary-diagonal": (_spoiled(e0_0=0.25 + 1e-6j),
                           "Hermiticity deviation 2.000e-06 exceeds 1.0e-09"),
    "integer-trace": (np.eye(4, dtype=int), "trace deviates from 1 by 3.000e+00"),
    # finite entries whose deviations overflow read as an infinite deviation
    "overflow-trace": (np.full((4, 4), 1e308), "trace deviates from 1 by inf"),
    "overflow-hermiticity": (np.full((4, 4), 1e308 + 1e308j),
                             "Hermiticity deviation inf exceeds 1.0e-09"),
    # a trace summed to inf - inf is NaN, which fails too
    "overflow-trace-nan": (np.diag([1e308, 1e308, -1e308, -1e308]),
                           "trace deviates from 1 by nan"),
}

SHAPE_CASES = {
    "non-square": (np.ones((4, 3)) / 4.0,
                   "expected a square matrix or a stack of them, got shape (4, 3)"),
    "3-d": (np.stack([_mixed(), _mixed()]), "expected a square matrix, got shape (2, 4, 4)"),
    "1-d": (np.ones(4) / 4.0, "expected a square matrix, got shape (4,)"),
}


def _raised(call):
    """The exception ``call`` raises with every warning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Exception) as info:
            call()
    return info.value


def _assert_raises(call, cls, message):
    exc = _raised(call)
    assert type(exc) is cls and str(exc) == message


@pytest.mark.parametrize("case", list(MATRIX_CASES) + list(SHAPE_CASES))
def test_single_matrix(case):
    rho, message = {**MATRIX_CASES, **SHAPE_CASES}[case]
    for call in (lambda: analyze(rho, 2, 2), lambda: decompose_state(rho, 2, 2),
                 lambda: validate_state(rho)):
        _assert_raises(call, NotAState, message)


@pytest.mark.parametrize("case", list(MATRIX_CASES))
def test_stack_names_the_first_failing_matrix(case):
    rho, message = MATRIX_CASES[case]
    stack = np.stack([_mixed(), rho, rho, _mixed()])
    _assert_raises(lambda: to_bloch(stack), NotAState, f"matrix 1: {message}")


@pytest.mark.parametrize("shape", [(4, 3), (1, 1, 2, 2), (4,)])
def test_stack_shapes(shape):
    _assert_raises(lambda: to_bloch(np.ones(shape)), NotAState,
                   f"expected a square matrix or a stack of them, got shape {shape}")


def test_ragged_input_is_not_a_state():
    ragged = [[0.5, 0.0], [0.0]]
    with pytest.raises(ValueError) as info:
        np.asarray(ragged)
    message = f"expected a numeric matrix, got list that numpy cannot convert: {info.value}"
    assert "inhomogeneous" in message
    for call in (lambda: analyze(ragged, 2, 1), lambda: decompose_state(ragged, 2, 1),
                 lambda: validate_state(ragged)):
        _assert_raises(call, NotAState, message)


# a value that is no numeric array, named by its type and dtype; numeric
# strings are not parsed
NON_NUMERIC_CASES = {
    "str": ("abc", "expected a numeric matrix, got str of dtype <U3"),
    "dict": ({"a": 1}, "expected a numeric matrix, got dict of dtype object"),
    "none": (None, "expected a numeric matrix, got NoneType of dtype object"),
    "numeric-strings": ([["1", "0"], ["0", "0"]],
                        "expected a numeric matrix, got list of dtype <U1"),
    "string-array": (np.array([["1", "0"], ["0", "0"]]),
                     "expected a numeric matrix, got ndarray of dtype <U1"),
    "object-array": (np.array([[1.0, 0.0], [0.0, 0.0]], dtype=object),
                     "expected a numeric matrix, got ndarray of dtype object"),
    "bytes-array": (np.array([[b"1", b"0"], [b"0", b"0"]]),
                    "expected a numeric matrix, got ndarray of dtype |S1"),
}


@pytest.mark.parametrize("case", list(NON_NUMERIC_CASES))
def test_non_numeric_input_is_not_a_state(case):
    value, message = NON_NUMERIC_CASES[case]
    for call in (lambda: analyze(value, 2, 1), lambda: decompose_state(value, 2, 1),
                 lambda: validate_state(value), lambda: to_bloch(value)):
        _assert_raises(call, NotAState, message)


def test_tolerance_raises_the_validation_threshold():
    rho = _spoiled(e0_1=3e-9)
    _assert_raises(lambda: analyze(rho, 2, 2), NotAState,
                   "Hermiticity deviation 3.000e-09 exceeds 1.0e-09")
    assert analyze(rho, 2, 2, tol=1e-8).status.value == "separable"
    _assert_raises(lambda: analyze(_spoiled(e0_1=3e-8), 2, 2, tol=1e-8), NotAState,
                   "Hermiticity deviation 3.000e-08 exceeds 1.0e-08")
    assert validate_state(_mixed() * (1.0 + 3e-9), tol=1e-8).dtype == complex


@pytest.mark.parametrize("dims, message", [
    ((2, 3), "matrix of size 4 does not factor as 2 x 3"),
    ((4, 4), "matrix of size 4 does not factor as 4 x 4"),
    ((True, 4), "dimensions must be integers >= 1, got True x 4"),
    ((2, False), "dimensions must be integers >= 1, got 2 x False"),
    ((2.0, 2), "dimensions must be integers >= 1, got 2.0 x 2"),
])
def test_dimensions(dims, message):
    for call in (lambda: analyze(_mixed(), *dims), lambda: decompose_state(_mixed(), *dims)):
        _assert_raises(call, DimensionMismatch, message)


def test_bad_dimensions_come_before_a_bad_matrix():
    _assert_raises(lambda: analyze(_spoiled(e0_0=np.nan), True, 4), DimensionMismatch,
                   "dimensions must be integers >= 1, got True x 4")


def test_bad_matrix_comes_before_a_size_mismatch():
    _assert_raises(lambda: analyze(_spoiled(e0_1=0.5), 2, 3), NotAState,
                   "Hermiticity deviation 5.000e-01 exceeds 1.0e-09")
