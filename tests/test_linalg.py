import ast
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sephorn import linalg
from sephorn.bipartite import partial_transpose_matrix
from sephorn.bloch import from_bloch
from helpers import lapack_kernels, random_density, random_orthogonal, random_unitary
from sephorn.linalg import certify_psd


class TestRandomFactors:
    def test_dim1_is_sign(self):
        q = random_orthogonal(1, 0)
        assert q.shape == (1, 1)
        assert abs(abs(q[0, 0]) - 1.0) < 1e-14

    def test_deterministic(self):
        a = random_orthogonal(3, 7)
        b = random_orthogonal(3, 7)
        assert (a == b).all()

    def test_orthogonality(self):
        q = random_orthogonal(5, 1)
        assert np.abs(q @ q.T - np.eye(5)).max() < 1e-12

    def test_unitary(self):
        u = random_unitary(4, 9)
        assert np.abs(u @ u.conj().T - np.eye(4)).max() < 1e-12
        assert (random_unitary(4, 9) == u).all()


TOL = 1e-8
# lowest eigenvalues planted in the property test: a pure component
# (eigenvalues 1, 0, ..., 0), inside and outside the tolerance, and positive
PLANTED = (0.0, -0.5 * TOL, -2.0 * TOL, 0.1)


def hermitian_with_lowest(low: float, dim: int, rng) -> np.ndarray:
    """U diag(w) U^dag with lowest eigenvalue ``low``; ``low = 0`` gives a
    rank-one projector, and dim 1 gives [[1]] or [[low]]."""
    if low == 0.0:
        w = np.zeros(dim)
        w[-1] = 1.0
    else:
        w = rng.uniform(0.2, 1.0, dim)
        w[0] = low
    u = random_unitary(dim, rng)
    return (u * w) @ u.conj().T


class TestCertifyPsd:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 7),
           picks=st.lists(st.integers(0, len(PLANTED) - 1), min_size=1, max_size=6))
    def test_agrees_with_eigvalsh_threshold(self, seed, dim, picks):
        rng = np.random.default_rng(seed)
        planted = np.array([PLANTED[i] for i in picks])
        mats = np.array([hermitian_with_lowest(low, dim, rng) for low in planted])
        exact = np.linalg.eigvalsh(mats)[:, 0]
        low = certify_psd(mats, TOL)
        assert (low is None) == bool((planted >= -TOL).all())
        assert (low is None) == bool((exact >= -TOL).all())
        if low is not None:
            np.testing.assert_array_equal(low, exact)
        single = certify_psd(mats[0], TOL)
        assert (single is None) == bool(planted[0] >= -TOL)
        if single is not None:
            assert single == exact[0]

    def test_dim_one_side(self):
        # the trivial-factor path verifies a side of 1 x 1 components [[1]]
        assert certify_psd(from_bloch(np.zeros((2, 0))), TOL) is None
        np.testing.assert_array_equal(certify_psd(np.array([[[1.0]], [[-1.0]]]), TOL), [1.0, -1.0])

    def test_nan_entry_not_certified(self):
        mats = np.stack([np.eye(3, dtype=complex)] * 3)
        mats[1, 2, 0] = mats[1, 0, 2] = np.nan
        low = certify_psd(mats, TOL)
        assert low is not None
        np.testing.assert_array_equal(low[[0, 2]], [1.0, 1.0])
        assert np.isnan(low[1]) and not low[1] >= -TOL
        for entry in ((2, 0), (1, 1)):
            mat = np.eye(3)
            mat[entry] = mat[entry[::-1]] = np.nan
            assert np.isnan(certify_psd(mat, TOL))


# each kernel of sephorn.linalg and the public np.linalg call it stands for
PUBLIC = {
    "inv": np.linalg.inv,
    "bare_inv": np.linalg.inv,
    "cholesky": np.linalg.cholesky,
    "bare_cholesky_upper": lambda a: np.linalg.cholesky(a, upper=True),
    "eigh": np.linalg.eigh,
    "eigvalsh": np.linalg.eigvalsh,
    "svd": lambda a: np.linalg.svd(a, full_matrices=False),
    "svdvals": np.linalg.svdvals,
    "qr_q": lambda a: np.linalg.qr(a)[0],
    "solve": np.linalg.solve,
}


def _call_kernel(name, *args):
    """The kernel ``name`` on ``args``, every warning raised as an error; a
    ``bare_`` kernel under the error state its caller must set."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if name.startswith("bare_"):
            with np.errstate(all="ignore"):
                return getattr(linalg, name)(*args)
        return getattr(linalg, name)(*args)


def _outputs(result) -> tuple:
    return tuple(result) if isinstance(result, tuple) else (result,)


def _pipeline_inputs():
    """(kernel, case, args) on the shapes and dtypes the pipeline factorises."""
    rng = np.random.default_rng(5)

    def general(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    cases = []
    # density matrices and their partial transposes, 2x2 to 7x7
    for n, m in ((2, 2), (2, 3), (3, 3), (3, 4), (4, 4), (5, 5), (7, 7)):
        rho = random_density(n * m, n * m, rng)
        pt = partial_transpose_matrix(rho, n, m)
        cases += [("eigh", f"rho-{n}x{m}", (rho,)), ("eigvalsh", f"pt-{n}x{m}", (pt,)),
                  ("cholesky", f"rho-{n}x{m}", (rho + 1e-9 * np.eye(n * m),))]
    # the real 8 x 8 embedding [[Re tau, Im tau], [Im tau, -Re tau]] of Wootters' frame
    tau = general(4, 4)
    tau = tau + tau.T
    embedding = np.block([[tau.real, tau.imag], [tau.imag, -tau.real]])
    cases.append(("eigh", "takagi-8", (embedding,)))
    # Gram matrices of the filtering sweep, the sweep's reduced matrices, and
    # the upper-triangular filters the pull-back inverts
    for dim in (2, 3, 4, 7):
        g = general(dim, dim)
        gram = g.conj().T @ g + np.eye(dim)
        filt = np.triu(general(dim, dim)) + 3.0 * np.eye(dim)
        cases += [("bare_cholesky_upper", f"gram-{dim}", (gram,)),
                  ("bare_inv", f"reduced-{dim}", (general(dim, dim),)),
                  ("inv", f"filter-{dim}", (filt,))]
    # real correlation matrices, (N^2 - 1) x (M^2 - 1)
    for n, m in ((2, 3), (3, 3), (2, 4), (3, 4), (4, 4), (5, 7), (7, 7)):
        corr = rng.normal(size=(n * n - 1, m * m - 1))
        cases += [("svd", f"corr-{n}x{m}", (corr,)), ("svdvals", f"corr-{n}x{m}", (corr,))]
    # verification stacks of pure components, shifted by the tolerance for
    # the factor and by -0.1 for the eigensolve that follows a failed one
    for dim, count in ((2, 4), (3, 16), (4, 30)):
        stack = np.array([random_density(dim, 1, rng) for _ in range(count)])
        cases += [("cholesky", f"stack-{count}x{dim}", (stack + 1e-9 * np.eye(dim),)),
                  ("eigvalsh", f"stack-{count}x{dim}", (stack - 0.1 * np.eye(dim),))]
    # the Takagi vectors of rank r that Wootters' frame orthonormalises
    for rank in (1, 2, 3, 4):
        cases.append(("qr_q", f"takagi-4x{rank}", (general(4, rank),)))
    # the damped normal equations of the SIC search, 2N x 2N
    for dim in (2, 5, 7):
        jac = rng.normal(size=(dim * dim, 2 * dim))
        cases.append(("solve", f"sic-{dim}", (jac.T @ jac + 1e-3 * np.eye(2 * dim),
                                              rng.normal(size=2 * dim))))
    return cases


PIPELINE = _pipeline_inputs()

BAD = {
    "indefinite": np.diag([1.0, -1.0]),
    "singular": np.array([[1.0, 2.0], [2.0, 4.0]]),
    "nan": np.array([[1.0, np.nan], [np.nan, 1.0]]),
    "huge": np.array([[1.0, 4.7e306], [4.7e306, 0.0]]),
}
# the bad inputs on which a kernel must fail, as a non-finite result
FAILS = {("nan", kernel) for kernel in PUBLIC} | {
    ("singular", "inv"), ("singular", "bare_inv"), ("singular", "solve"),
    ("singular", "cholesky"), ("singular", "bare_cholesky_upper"),
    ("indefinite", "cholesky"), ("indefinite", "bare_cholesky_upper"),
    ("huge", "cholesky"), ("huge", "bare_cholesky_upper")}


class TestKernels:
    """Each kernel gives its public np.linalg counterpart's result bit for
    bit, and fails as a non-finite result where that counterpart raises,
    with no warning.  A numpy release that renames or changes the private
    gufuncs the kernels call fails here."""

    def test_every_kernel_has_a_counterpart(self):
        assert lapack_kernels() == set(PUBLIC)
        assert {kernel for kernel, _, _ in PIPELINE} == set(PUBLIC)

    @pytest.mark.parametrize("kernel, case, args", PIPELINE,
                             ids=[f"{kernel}-{case}" for kernel, case, _ in PIPELINE])
    def test_bit_identical_on_pipeline_shapes(self, kernel, case, args):
        got = _outputs(_call_kernel(kernel, *args))
        want = _outputs(PUBLIC[kernel](*args))
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert np.array_equal(g, w), case
            assert np.isfinite(g).all()

    @pytest.mark.parametrize("bad", sorted(BAD))
    @pytest.mark.parametrize("kernel, dtype", [(kernel, dtype) for kernel in sorted(PUBLIC)
                                               for dtype in (float, complex)
                                               if (kernel, dtype) != ("solve", complex)])
    def test_failure_is_non_finite_and_quiet(self, kernel, dtype, bad):
        a = BAD[bad].astype(dtype)
        args = (a, np.ones(2)) if kernel == "solve" else (a,)
        got = _outputs(_call_kernel(kernel, *args))
        try:
            want = _outputs(PUBLIC[kernel](*args))
        except np.linalg.LinAlgError:
            want = None
        if (bad, kernel) in FAILS:
            assert not any(np.isfinite(g).all() for g in got)
        if want is None:
            # where numpy raises, every output is NaN
            assert all(np.isnan(g).all() for g in got)
        else:
            for g, w in zip(got, want):
                assert np.array_equal(g, w, equal_nan=True)


# the np.linalg calls that reach LAPACK
FACTORISATIONS = {"cholesky", "inv", "pinv", "eig", "eigh", "eigvals", "eigvalsh", "svd",
                  "svdvals", "qr", "solve", "lstsq", "det", "slogdet", "matrix_rank",
                  "tensorinv", "tensorsolve", "cond"}


def lapack_calls(source: str) -> list[str]:
    """Each use in ``source`` of a factorisation of np.linalg, or of its
    gufunc module ``_umath_linalg``, as the dotted name or import that makes it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            dotted = ast.unparse(node)
            owner = dotted.rsplit(".", 1)[0]
            if node.attr == "_umath_linalg" or (node.attr in FACTORISATIONS
                                                and owner in ("np.linalg", "numpy.linalg")):
                found.append(dotted)
        elif isinstance(node, ast.Name) and node.id == "_umath_linalg":
            found.append(node.id)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            names = {alias.name for alias in node.names}
            lapack = names & (FACTORISATIONS | {"_umath_linalg"})
            if (node.module.startswith("numpy.linalg") and lapack
                    or node.module == "numpy" and "linalg" in names):
                found.append(f"from {node.module} import {', '.join(sorted(names))}")
        elif isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if "_umath_linalg" in alias.name]
    return found


class TestOneLapackModule:
    """``sephorn.linalg`` is the one module that calls LAPACK, so the spies
    on its kernels see every factorisation."""

    def test_scanner_finds_each_form(self):
        source = """
import numpy as np
import numpy.linalg._umath_linalg
from numpy.linalg import eigh, norm
from numpy import linalg as la
from numpy.linalg import _umath_linalg
np.linalg.inv(x); numpy.linalg.qr(x); np.linalg.norm(x); linalg.inv(x)
_umath_linalg.inv(x); np.linalg._umath_linalg.svd(x)
"""
        assert lapack_calls(source) == [
            "numpy.linalg._umath_linalg", "from numpy.linalg import eigh, norm",
            "from numpy import linalg", "from numpy.linalg import _umath_linalg",
            "np.linalg.inv", "numpy.linalg.qr", "_umath_linalg", "np.linalg._umath_linalg"]

    def test_no_module_but_linalg_calls_lapack(self):
        src = Path(linalg.__file__).parent
        offenders = {path.name: lapack_calls(path.read_text())
                     for path in sorted(src.glob("*.py")) if path.name != "linalg.py"}
        assert len(offenders) >= 10
        assert {name: calls for name, calls in offenders.items() if calls} == {}
