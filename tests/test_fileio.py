import numpy as np
import pytest

from helpers import random_density
from sephorn import fileio
from sephorn.bipartite import compose_state
from sephorn.decompose import werner_decompose
from sephorn.errors import FileFormatError
from sephorn.states import bell


class TestStateFiles:
    def test_round_trip_bit_identical(self):
        rho = random_density(6, 6, seed=1)
        text = fileio.state_to_text(rho, (2, 3))
        parsed, dims = fileio.state_from_text(text)
        assert dims == (2, 3)
        assert (parsed == rho).all()
        assert fileio.state_to_text(parsed, dims) == text

    def test_bell_exact(self):
        rho = compose_state(bell())
        parsed, dims = fileio.state_from_text(fileio.state_to_text(rho, (2, 2)))
        assert (parsed == rho).all()

    @pytest.mark.parametrize("text", [
        "not json at all {",
        '{"format": "something-else/9", "dims": [2, 2], "matrix": []}',
        '{"format": "sep-horn-state/1", "dims": [2], "matrix": []}',
        '{"format": "sep-horn-state/1", "dims": [2, 2], "matrix": [[1, 2]]}',
        '{"format": "sep-horn-state/1", "dims": [2, 2], "matrix": '
        '[[[1, 0], [0, 0], [0, 0], "x"], [[0,0],[0,0],[0,0],[0,0]], '
        '[[0,0],[0,0],[0,0],[0,0]], [[0,0],[0,0],[0,0],[0,0]]]}',
        '[1, 2, 3]',
        '{"format": "sep-horn-state/1", "dims": [true, 2], "matrix": '
        '[[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]}',
        '{"format": "sep-horn-state/1", "dims": [1, 2], "matrix": '
        '[[[0.5, false], [0, 0]], [[0, 0], [0.5, 0]]]}',
    ])
    def test_rejects_malformed(self, text):
        with pytest.raises(FileFormatError):
            fileio.state_from_text(text)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, dims, bad):
        # JSON readers accept NaN and Infinity literals
        rho = random_density(dims[0] * dims[1], 2, seed=3)
        rho[0, 1] = rho[1, 0] = complex(bad, 0.0)
        with pytest.raises(FileFormatError, match="not finite"):
            fileio.state_from_text(fileio.state_to_text(rho, dims))


class TestDecompositionFiles:
    def test_round_trip_bit_identical(self):
        dec = werner_decompose(2, 0.73)
        text = fileio.decomposition_to_text(dec, (2, 2))
        parsed, dims = fileio.decomposition_from_text(text)
        assert dims == (2, 2)
        assert (parsed.probs == dec.probs).all()
        assert (parsed.r_vectors == dec.r_vectors).all()
        assert (parsed.s_vectors == dec.s_vectors).all()
        assert fileio.decomposition_to_text(parsed, dims) == text

    def test_awkward_doubles_survive(self):
        rng = np.random.default_rng(2)
        dec = werner_decompose(3, 1.0)
        noisy = type(dec)(probs=dec.probs,
                          r_vectors=dec.r_vectors * (1 + 1e-16),
                          s_vectors=dec.s_vectors + rng.normal(scale=1e-300,
                                                               size=dec.s_vectors.shape))
        text = fileio.decomposition_to_text(noisy, (3, 3))
        parsed, _ = fileio.decomposition_from_text(text)
        assert (parsed.r_vectors == noisy.r_vectors).all()
        assert (parsed.s_vectors == noisy.s_vectors).all()

    @pytest.mark.parametrize("text", [
        '{"format": "sep-horn-decomposition/1", "dims": [2, 2], "entries": []}',
        '{"format": "sep-horn-decomposition/1", "dims": [2, 2], '
        '"entries": [{"p": 0.5, "r": [1, 0], "s": [0, 0, 0]}]}',
        '{"format": "sep-horn-decomposition/1", "dims": [2, 2], '
        '"entries": [{"p": "half", "r": [0, 0, 0], "s": [0, 0, 0]}]}',
        '{"format": "sep-horn-decomposition/1", "dims": [2, 2], '
        '"entries": [{"p": NaN, "r": ["1", true, 0], "s": [0, 0, Infinity]}]}',
        '{"format": "sep-horn-decomposition/1", "dims": [2, 2], '
        '"entries": [{"p": NaN, "r": [0, 0, 0], "s": [0, 0, 0]}]}',
        '{"format": "sep-horn-decomposition/1", "dims": [2, 2], '
        '"entries": [{"p": "0.5", "r": [0, 0, 0], "s": [0, 0, 0]}]}',
        '{"format": "sep-horn-decomposition/1", "dims": [2, 2], '
        '"entries": [{"p": true, "r": [0, 0, 0], "s": [0, 0, 0]}]}',
        '{"format": "sep-horn-decomposition/1", "dims": [2, 2], '
        '"entries": [{"p": 1, "r": ["1", 0, 0], "s": [0, 0, 0]}]}',
        '{"format": "sep-horn-decomposition/1", "dims": [2, 2], '
        '"entries": [{"p": 1, "r": [true, 0, 0], "s": [0, 0, 0]}]}',
        '{"format": "sep-horn-decomposition/1", "dims": [2, 2], '
        '"entries": [{"p": 1, "r": [0, 0, 0], "s": [0, 0, -Infinity]}]}',
        '{"format": "sep-horn-decomposition/1", "dims": [2, 2], '
        '"entries": [{"p": 1, "r": [0, 0, 0], "s": "000"}]}',
        '{"format": "sep-horn-decomposition/1", "dims": [true, true], '
        '"entries": [{"p": 1, "r": [], "s": []}]}',
    ])
    def test_rejects_malformed(self, text):
        with pytest.raises(FileFormatError):
            fileio.decomposition_from_text(text)


# an integer literal beyond the float range, and one past int()'s digit limit
HUGE = "1" + "0" * 400
ENDLESS = "1" + "0" * 5000


class TestOutOfRangeIntegers:
    @pytest.mark.parametrize("literal, match", [(HUGE, "not finite"), (ENDLESS, "not valid JSON")])
    def test_state_file(self, literal, match):
        text = ('{"format": "sep-horn-state/1", "dims": [1, 2], "matrix": '
                f'[[[0.5, 0], [0, 0]], [[0, 0], [{literal}, 0]]]}}')
        with pytest.raises(FileFormatError, match=match):
            fileio.state_from_text(text)

    @pytest.mark.parametrize("field", ["p", "r", "s"])
    @pytest.mark.parametrize("literal, match", [(HUGE, "not finite"), (ENDLESS, "not valid JSON")])
    def test_decomposition_file(self, field, literal, match):
        entry = {"p": "1", "r": "[0, 0, 0]", "s": "[0, 0, 0]"}
        entry[field] = literal if field == "p" else f"[0, {literal}, 0]"
        text = ('{"format": "sep-horn-decomposition/1", "dims": [2, 2], "entries": '
                f'[{{"p": {entry["p"]}, "r": {entry["r"]}, "s": {entry["s"]}}}]}}')
        with pytest.raises(FileFormatError, match=match):
            fileio.decomposition_from_text(text)

    def test_integers_in_range_are_read_as_floats(self):
        text = ('{"format": "sep-horn-state/1", "dims": [1, 1], "matrix": [[[1, 0]]]}')
        rho, _ = fileio.state_from_text(text)
        assert rho.dtype == complex and rho[0, 0] == 1.0


@pytest.mark.parametrize("parse", [fileio.state_from_text, fileio.decomposition_from_text])
@pytest.mark.parametrize("brackets", ["[]", "{}"])
def test_deep_nesting_is_a_format_error(parse, brackets):
    # json.loads raises RecursionError on nesting this deep
    depth = 200_000
    inner = '"a":' if brackets == "{}" else ""
    text = (brackets[0] + inner) * depth + "1" + brackets[1] * depth
    with pytest.raises(FileFormatError, match="nested too deeply"):
        parse(text)
