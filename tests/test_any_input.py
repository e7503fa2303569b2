"""Never a raw exception, for any Python value: ``analyze`` returns a
verdict or raises a :class:`SepHornError`, the file readers return their
result or raise one, and ``sephorn analyze`` never ends in "unexpected
failure".  Every warning is raised as an error, so that no input warns on
its way to the error that names it."""

import json
import os
import tempfile
import warnings

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sephorn import analyze, cli, fileio
from sephorn.criteria import Verdict
from sephorn.errors import SepHornError

LEAVES = (st.none() | st.booleans() | st.integers() | st.integers(-2 ** 70, 2 ** 70)
          | st.floats() | st.sampled_from([np.inf, -np.inf, np.nan, 1e308, -1e308, 5e-324])
          | st.complex_numbers() | st.text(max_size=4))
VALUES = st.recursive(LEAVES, lambda inner: st.lists(inner, max_size=5)
                      | st.dictionaries(st.text(max_size=3), inner, max_size=3), max_leaves=40)

DTYPES = st.one_of(hnp.boolean_dtypes(), hnp.integer_dtypes(), hnp.unsigned_integer_dtypes(),
                   hnp.floating_dtypes(sizes=(16, 32, 64, 128)),
                   hnp.complex_number_dtypes(sizes=(64, 128, 256)), hnp.datetime64_dtypes(),
                   hnp.timedelta64_dtypes(), hnp.unicode_string_dtypes(max_len=3),
                   hnp.byte_string_dtypes(max_len=3), st.just(np.dtype(object)),
                   st.just(np.dtype([("x", float), ("y", int)])))
ARRAYS = DTYPES.flatmap(lambda dtype: hnp.arrays(
    dtype, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=6),
    elements=LEAVES if dtype.kind == "O" else None))

DIMS = (st.integers(-2, 6) | st.integers(2 ** 31, 2 ** 70) | st.none() | st.booleans()
        | st.floats(-3.0, 7.0) | st.text(max_size=2)
        | st.integers(1, 4).map(np.int64) | st.integers(1, 4).map(np.uint8))


@st.composite
def near_states(draw):
    """A Hermitian matrix of trace one on a factorable size, its entries
    scaled over the whole double range, with its factorisation."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    size = n * m
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    g = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    h = g + g.conj().T
    # the largest entry 10^e, up to the largest double
    exponent = draw(st.sampled_from([-320.0, -300.0, -150.0, 0.0, 150.0, 307.0, 308.0, 308.25])
                    | st.floats(-320.0, 308.25))
    h *= 10.0 ** (exponent - 308.0) / np.abs(h).max()
    h *= 1e308
    h[np.diag_indices(size)] = 0.0
    h[0, 0] = 1.0
    if draw(st.booleans()):
        h = h + np.eye(size) * draw(st.floats(0.0, 1e3))
    if draw(st.booleans()):
        h = h.real
    return h, n, m


def _quietly(call):
    """``call()`` with every warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return call()


def _verdict_or_sephorn_error(rho, dim_a, dim_b):
    try:
        result = _quietly(lambda: analyze(rho, dim_a, dim_b))
    except SepHornError:
        return
    assert isinstance(result, Verdict)


class TestAnalyze:
    @settings(max_examples=400, deadline=None)
    @given(VALUES | ARRAYS, DIMS, DIMS)
    def test_any_value(self, rho, dim_a, dim_b):
        _verdict_or_sephorn_error(rho, dim_a, dim_b)

    @settings(max_examples=150, deadline=None)
    @given(ARRAYS, st.integers(1, 3), st.integers(1, 3))
    def test_any_array_with_small_dims(self, rho, dim_a, dim_b):
        _verdict_or_sephorn_error(rho, dim_a, dim_b)

    @settings(max_examples=300, deadline=None)
    @given(near_states())
    def test_matrices_that_pass_for_states(self, case):
        _verdict_or_sephorn_error(*case)


@st.composite
def documents(draw):
    """JSON text: any JSON value, or a state or decomposition document
    whose fields are any JSON values or near-valid ones."""
    json_values = st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                     max_size=3),
        max_leaves=30)
    kind = draw(st.sampled_from(["value", "state", "decomposition", "text"]))
    if kind == "text":
        return draw(st.text(max_size=40))
    if kind == "value":
        doc = draw(json_values)
    else:
        dims = draw(st.lists(st.integers(-1, 3), min_size=2, max_size=2) | json_values)
        doc = {"format": fileio.STATE_FORMAT if kind == "state"
               else fileio.DECOMPOSITION_FORMAT, "dims": dims}
        if kind == "state":
            size = draw(st.integers(0, 4))
            pair = st.lists(st.floats() | st.integers() | st.booleans(), min_size=2, max_size=2)
            doc["matrix"] = draw(st.lists(st.lists(pair | json_values, min_size=size,
                                                   max_size=size), min_size=size,
                                          max_size=size) | json_values)
        else:
            entry = st.fixed_dictionaries({"p": st.floats() | json_values,
                                           "r": st.lists(st.floats(), max_size=8) | json_values,
                                           "s": st.lists(st.floats(), max_size=8) | json_values})
            doc["entries"] = draw(st.lists(entry, max_size=3) | json_values)
    # NaN and infinities as Python's JSON writes them
    return json.dumps(doc)


class TestFiles:
    @settings(max_examples=150, deadline=None)
    @given(documents())
    def test_state_from_text(self, text):
        try:
            rho, dims = _quietly(lambda: fileio.state_from_text(text))
        except SepHornError:
            return
        assert rho.shape == (dims[0] * dims[1],) * 2

    @settings(max_examples=150, deadline=None)
    @given(documents())
    def test_decomposition_from_text(self, text):
        try:
            dec, dims = _quietly(lambda: fileio.decomposition_from_text(text))
        except SepHornError:
            return
        assert dec.r_vectors.shape == (len(dec), dims[0] ** 2 - 1)

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=documents() | near_states().map(
        lambda case: fileio.state_to_text(case[0], case[1:])))
    def test_cli_never_fails_unexpectedly(self, capsys, text):
        with tempfile.TemporaryDirectory() as folder:
            path = os.path.join(folder, "state.json")
            with open(path, "w") as handle:
                handle.write(text)
            with pytest.raises(SystemExit) as info:
                _quietly(lambda: cli.main(["analyze", path]))
        err = capsys.readouterr().err
        assert "unexpected failure" not in err, err
        assert info.value.code in (cli.EXIT_SEPARABLE, cli.EXIT_ENTANGLED,
                                   cli.EXIT_INCONCLUSIVE, cli.EXIT_BAD_INPUT, cli.EXIT_NUMERIC)
