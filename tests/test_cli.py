import hashlib
import json

import click
import numpy as np
import pytest

from helpers import random_density, random_unitary, tiles_state
from sephorn import cli, fileio
from sephorn.bipartite import compose_state
from sephorn import criteria, decompose
from sephorn.cli import main
from sephorn.criteria import verify_decomposition
from sephorn.errors import SearchFailed
from sephorn.states import bell, p_zero, werner
from sephorn.bipartite import decompose_state


# SHA-256 of `horn-triples n r` output for n <= 9, recorded from the
# per-candidate enumeration that the batched one replaced; for n = 10, from
# the batched enumeration that searched every cardinality and every pair
HORN_TRIPLES_SHA256 = {
    (2, 1): "647adadc89de5a78178aff1a7d75c9f037848910c656987b2e702048a66e26ea",
    (3, 1): "bbd7b6229bd4845d16fc92cd0745416789c208cedd61b70da6de1442adfbfde4",
    (3, 2): "474c341e6a6433279ca4ef29fcf315a9d8a5636bf4cef763fb1f8b2cb5c9e5c1",
    (4, 1): "5e12036c357d8d0b6de17af309b22ca80872f56bb45f188d798e09fd298ceeca",
    (4, 2): "334b7318d07215f2dc76d7432372ee7608218d5175cbe33cfc902f725dbba001",
    (4, 3): "ff8fb1bcbff1b7eb3fbc487147866a4fb5e11f686c6f2116bd97789f9866f4ef",
    (5, 1): "c5a96d927d410695510c81804c49c169db53211dc6a29d0daf17bf2c219ada0e",
    (5, 2): "4c7602989415b83f70f806c6760c87228682438a68c533d53aca57286eddd243",
    (5, 3): "11a0387ce8d5fab3ba51c02f3a50e0153520d6ff48554a54257dbf81f37a59c1",
    (5, 4): "c60994642a96db75757c35e35a7ebc9d71863895da1ba786b05163b3ab112ac0",
    (6, 1): "8de1d07baac97bfef4183b686adc8d848a7a013d0ff8dd6ab6927bc246709a56",
    (6, 2): "628ebf0662279a07a2e97d88151495ea89bc4e8364502167f9eba1ee6963c181",
    (6, 3): "18d398e2d1e2126540b4af58d2fd1b6eb52732c4c7cf0dfefd14815a7b58fc23",
    (6, 4): "faaeb31cad1d0226ebb97fc0830fb6e7f443cfc0ad84a2f3a5f26e26b2a8ad87",
    (6, 5): "f95cc011b3c9d4d5e1ec50f991e199d6a1b3b03635fd97bf79866ab9bc63cb53",
    (7, 1): "0b2c4c82e275a6ee26e5ce9218588b6c14609724201381d731d1c1c855f35982",
    (7, 2): "27bcfd0d873ea2201fba4ecdd2196231cf639f3740944fdab52d029933128664",
    (7, 3): "b8fd2c0d413c3f76d4da49337958f1b4c223ba19a09dd803c5e6bcf723a37b4d",
    (7, 4): "f74e339c41a55e02c6b896de6ab89b7b834412eda80837135c60fd3e37e9e509",
    (7, 5): "ce8cc8fd401460e7923c2dedf69f080b726061afd24c1a25d96bce7577bd39dc",
    (7, 6): "9294126a0ce2db6ba5290017e371971ddf1f23f70bb2ae5df974219a98a13df1",
    (8, 1): "4e6b4dacd3b48195761be3ce7badd691ffd86386b6a1e91dcbd87c0384e27ffb",
    (8, 2): "00baa5be1fafebafa715b7160f26ee9dfa0689e3238cd3cd8ad7e3d1e5d192e3",
    (8, 3): "6f4dd4046bad34e55def322022c24ed02d54441227601f20833406359190a11d",
    (8, 4): "75cda74744e76aa3cece8e2f208ef9ed7742b0a25b07043693662a994a5172ea",
    (8, 5): "960d9da3c384a011bb6789fc6d6d2cdfe4bf46237108fbfac5770157f318d09e",
    (8, 6): "d58e939113d5b2f9db57e94b6e217e7bb7082aae203dbfd363077c8d7c9c9e71",
    (8, 7): "53da96cd57afe4b85bdf05bf6d00f2f2bb914077c2d1cf3c7c3eb0874b4c448c",
    (9, 1): "e4a01f9ca1a2b730ee5757a22a28e1c5aae66f17f45967ebec8e214a07f1b0aa",
    (9, 2): "166dc6b9e2cac831e6624b3e21e244cc430c5614d376c34096d7caaae26dd198",
    (9, 3): "56c06975f8ab601df293dc23e07d303d45c2910c5fc5e8906ee35ad4925788a8",
    (9, 4): "90ced9b3de50160157ba230ef5655a886a4c769d245a56a9cd3915a1b18cb32a",
    (9, 5): "232ad3b166ac4b453af04f67971e3a665c87cbeb10f6abb5954bae69ac2ec338",
    (9, 6): "3b7a8c9eae832014c9a7ac07ace5350fb85c28f2faa82fb28f3a6fa975949ab0",
    (9, 7): "a7aa955f7c3ca448ee491191a70f0f16e206da050e7975e706b60269b37c2b69",
    (9, 8): "51e75f6bf6d88838753414516b226ec4f867de5fdf300a3b9134305a9f3b5c6e",
    (10, 1): "2b651c2ddf91ea4d37aec07f0fbe62b533f96a46a6b192ef449647a29801d715",
    (10, 2): "f8563f2c11e8504dd2de086c6a47b6171f45a9ed257d2471d66cb3532af938c3",
    (10, 3): "3716bd08633646f65cfb1c221cc885cd2fdab071480c46a6ea6746692ddc7738",
    (10, 4): "615391ca693a0119e4ef8888da6ef65a88b97ef00050268f55a4fa4dd52a6d55",
    (10, 5): "48e0d304fb8f71cc4b61b44250d8764e75e33842166a3f6c79904f3cf3331ac2",
    (10, 6): "5215ef6f795d3de80198b116651824cb7d0020bbcd3d3c30b222e440da74047d",
    (10, 7): "d6b01e125002d33ff011776099a42f85e07d205c29ddd824709fca49caf7d78e",
    (10, 8): "7041f0c92ac40b58697080698474c1261a3d5b2d40d8530192d6ce9b4983200b",
    (10, 9): "390b738987236cb869aca5e6dfdd5ee66f7d6c70367d0543296bf881085be0d6",
}


def run_cli(args, capsys):
    with pytest.raises(SystemExit) as exc:
        main(list(args))
    out = capsys.readouterr()
    code = exc.value.code or 0
    return code, out.out, out.err


def write_state(path, d, dims):
    return write_matrix(path, compose_state(d), dims)


def write_matrix(path, rho, dims):
    path.write_text(fileio.state_to_text(rho, dims))
    return str(path)


class TestAnalyze:
    def test_bell_exits_one(self, tmp_path, capsys):
        path = write_state(tmp_path / "bell.state.json", bell(), (2, 2))
        code, out, _ = run_cli(["analyze", path], capsys)
        assert code == 1
        assert "ENTANGLED" in out
        assert "ppt: margin=0.5" in out

    def test_separable_writes_decomposition(self, tmp_path, capsys):
        path = write_state(tmp_path / "werner.state.json", werner(2, 1.0), (2, 2))
        code, out, _ = run_cli(["analyze", path], capsys)
        assert code == 0
        dec_path = tmp_path / "werner.state.decomposition.json"
        assert dec_path.exists()
        dec, dims = fileio.decomposition_from_text(dec_path.read_text())
        assert verify_decomposition(dec, werner(2, 1.0)).valid

    def test_malformed_exits_64(self, tmp_path, capsys):
        bad = tmp_path / "bad.state.json"
        bad.write_text("{ this is not json")
        code, _, err = run_cli(["analyze", str(bad)], capsys)
        assert code == 64

    def test_unphysical_state_exits_70(self, tmp_path, capsys):
        # well-formed file, Hermitian and trace-one, but not PSD
        rho = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
        bad = tmp_path / "neg.state.json"
        bad.write_text(fileio.state_to_text(rho, (2, 2)))
        code, _, err = run_cli(["analyze", str(bad)], capsys)
        assert code == 70

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
    def test_non_finite_state_exits_64(self, tmp_path, capsys, dims):
        rho = np.eye(dims[0] * dims[1], dtype=complex) / (dims[0] * dims[1])
        rho[0, 1] = rho[1, 0] = np.nan
        bad = tmp_path / "nan.state.json"
        bad.write_text(fileio.state_to_text(rho, dims))
        code, _, err = run_cli(["analyze", str(bad)], capsys)
        assert code == 64
        assert "not finite" in err

    @pytest.mark.parametrize("digits", [400, 5000])
    def test_out_of_range_integer_exits_64(self, tmp_path, capsys, digits):
        # one line on stderr, no traceback
        bad = tmp_path / "huge.state.json"
        bad.write_text('{"format": "sep-horn-state/1", "dims": [1, 2], "matrix": '
                       f'[[[0.5, 0], [0, 0]], [[0, 0], [1{"0" * digits}, 0]]]}}')
        code, out, err = run_cli(["analyze", str(bad)], capsys)
        assert code == 64 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err

    def test_deeply_nested_file_exits_64(self, tmp_path, capsys):
        # json.loads raises RecursionError on nesting this deep
        bad = tmp_path / "deep.state.json"
        bad.write_text("[" * 200_000 + "]" * 200_000)
        code, out, err = run_cli(["analyze", str(bad)], capsys)
        assert code == 64 and out == ""
        assert err == "error: not valid JSON: nested too deeply to parse\n"

    def test_unexpected_exception_exits_70(self, tmp_path, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr("sephorn.cli.analyze", broken)
        path = write_state(tmp_path / "bell.state.json", bell(), (2, 2))
        code, _, err = run_cli(["analyze", path], capsys)
        assert code == 70
        assert "LinAlgError" in err

    def test_structured_report(self, tmp_path, capsys):
        path = write_state(tmp_path / "bell.state.json", bell(), (2, 2))
        code, out, _ = run_cli(["analyze", path, "--report", "structured"], capsys)
        doc = json.loads(out)
        assert doc["status"] == "entangled"
        assert doc["criteria"][0]["passed"] is False

    @pytest.mark.parametrize("margin", [np.inf, -np.inf, np.nan])
    def test_structured_report_is_strict_json(self, tmp_path, capsys, monkeypatch, margin):
        # a malformed decomposition fails verification with an infinite
        # residual, its criterion's margin; JSON has no infinity or NaN, so
        # a non-finite margin is written null
        def refuse(token):
            raise ValueError(f"non-standard JSON constant {token}")

        verdict = criteria.Verdict(status=criteria.Status.INCONCLUSIVE, criteria=(
            criteria.CriterionResult("ppt", True, 0.0),
            criteria.CriterionResult("decomposition[wootters]", False, margin, "empty")))
        doc = json.loads(cli._verdict_report("x.state.json", verdict, None, True),
                         parse_constant=refuse)
        assert [c["margin"] for c in doc["criteria"]] == [0.0, None]
        monkeypatch.setattr("sephorn.cli.analyze", lambda *args, **kwargs: verdict)
        path = write_state(tmp_path / "w.state.json", werner(2, 0.5), (2, 2))
        code, out, _ = run_cli(["analyze", path, "--report", "structured"], capsys)
        assert code == 2
        assert json.loads(out, parse_constant=refuse)["criteria"][1]["margin"] is None

    def test_structured_report_family_path(self, tmp_path, capsys):
        # exercises the non-two-qubit battery (norm bound + family match)
        path = write_state(tmp_path / "w3.state.json", werner(3, 1.0), (3, 3))
        code, out, _ = run_cli(["analyze", path, "--report", "structured"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "separable"
        names = [c["name"] for c in doc["criteria"]]
        assert "kyfan-necessary" in names
        assert doc["decomposition_file"]

    def test_multiple_files_worst_code(self, tmp_path, capsys):
        p1 = write_state(tmp_path / "a.state.json", werner(2, 0.5), (2, 2))
        p2 = write_state(tmp_path / "b.state.json", bell(), (2, 2))
        code, out, _ = run_cli(["analyze", p1, p2], capsys)
        assert code == 1
        assert out.count("SEPARABLE") == 1 and out.count("ENTANGLED") == 1

    def test_multiple_files_in_argument_order(self, tmp_path, capsys):
        # reports come in the order of the arguments, whatever each file costs
        a = write_state(tmp_path / "a.json", werner(2, 0.5), (2, 2))
        b = write_state(tmp_path / "b.json", bell(), (2, 2))
        c = write_state(tmp_path / "c.json", werner(3, 1.0), (3, 3))
        code, out, _ = run_cli(["analyze", c, b, a], capsys)
        assert code == 1
        heads = [line for line in out.splitlines() if not line.startswith(" ")]
        assert heads == [f"{c}: SEPARABLE", f"{b}: ENTANGLED", f"{a}: SEPARABLE"]

    def test_failing_file_prints_no_report(self, tmp_path, capsys):
        # a file that fails, first or last, leaves no report printed
        a = write_state(tmp_path / "a.json", werner(2, 0.5), (2, 2))
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        for args in (["analyze", a, str(bad)], ["analyze", str(bad), a]):
            code, out, _ = run_cli(args, capsys)
            assert code == 64 and out == "", args

    def test_decomposition_reproducible(self, tmp_path, capsys):
        # the simplex is rebuilt between the runs, from the same fixed starts
        path = write_state(tmp_path / "w3.state.json", werner(3, 1.0), (3, 3))
        assert run_cli(["analyze", path], capsys)[0] == 0
        first = (tmp_path / "w3.state.decomposition.json").read_bytes()
        decompose.pure_state_simplex.cache_clear()
        assert run_cli(["analyze", path], capsys)[0] == 0
        assert (tmp_path / "w3.state.decomposition.json").read_bytes() == first

    def test_seed_is_a_usage_error(self, tmp_path, capsys, monkeypatch):
        # the SIC starts are fixed, so no option picks them, and a separable
        # verdict's decomposition is always written; a stale flag is bad
        # usage, never a verdict, and writes no file
        monkeypatch.chdir(tmp_path)
        path = write_state(tmp_path / "w3.state.json", werner(3, 1.0), (3, 3))
        for flag, args in (("--seed", ["analyze", path, "--seed", "5"]),
                           ("--seed", ["werner", "3", "1.0", "--seed", "5"]),
                           ("--decompose", ["werner", "3", "1.0", "--decompose"]),
                           ("--jobs", ["analyze", path, "--jobs", "2"])):
            code, out, err = run_cli(args, capsys)
            assert code == 64 and out == "" and flag in err, args
        assert [p.name for p in tmp_path.iterdir()] == ["w3.state.json"]


def test_options_are_pinned():
    # adding an option to either command takes an edit here
    assert [p.name for p in cli.cmd_analyze.params] == [
        "paths", "tol", "max_iter", "report"]
    assert [p.name for p in cli.cmd_werner.params] == [
        "dim", "phi", "out"]


class TestHornTriples:
    def test_n2_r1(self, capsys):
        code, out, _ = run_cli(["horn-triples", "2", "1"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines == ["1 I:{1} J:{1} K:{1}", "1 I:{1} J:{2} K:{2}",
                         "1 I:{2} J:{1} K:{2}"]

    def test_n3_r1_count(self, capsys):
        code, out, _ = run_cli(["horn-triples", "3", "1"], capsys)
        assert len(out.strip().splitlines()) == 6

    def test_output_matches_recorded_digests(self, capsys):
        for (n, r), digest in HORN_TRIPLES_SHA256.items():
            code, out, _ = run_cli(["horn-triples", str(n), str(r)], capsys)
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == digest, (n, r)

    def test_cap_exceeded(self, capsys):
        code, _, err = run_cli(["horn-triples", "17", "1"], capsys)
        assert code == 64

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "triples.txt"
        code, _, _ = run_cli(["horn-triples", "3", "2", "--out", str(target)], capsys)
        assert code == 0
        assert len(target.read_text().strip().splitlines()) == 6


class TestWerner:
    def test_separable_with_decomposition(self, tmp_path, capsys):
        out_path = tmp_path / "w.state.json"
        code, out, _ = run_cli(["werner", "3", "1.0", "--out", str(out_path)], capsys)
        assert code == 0
        dec_file = tmp_path / "w.state.decomposition.json"
        assert out.splitlines()[:2] == [f"state written to {out_path}", f"{out_path}: SEPARABLE"]
        assert out.splitlines()[-1] == f"  decomposition written to {dec_file} (9 components)"
        rho, dims = fileio.state_from_text(out_path.read_text())
        assert dims == (3, 3)
        dec, _ = fileio.decomposition_from_text(dec_file.read_text())
        assert verify_decomposition(dec, decompose_state(rho, 3, 3)).valid

    def test_kyfan_point_writes_verified_decomposition(self, tmp_path, capsys):
        # phi = 1/2 at N = 3 sits on the Ky Fan bound: the verdict's 16-component
        # decomposition is written, not the 9-component Werner simplex
        out_path = tmp_path / "w.state.json"
        code, out, _ = run_cli(["werner", "3", "0.5", "--out", str(out_path)], capsys)
        assert code == 0
        dec_file = tmp_path / "w.state.decomposition.json"
        assert out.splitlines()[-1] == f"  decomposition written to {dec_file} (16 components)"
        rho, _ = fileio.state_from_text(out_path.read_text())
        dec, _ = fileio.decomposition_from_text(dec_file.read_text())
        assert verify_decomposition(dec, decompose_state(rho, 3, 3)).valid

    def test_failed_construction_is_inconclusive(self, tmp_path, capsys, monkeypatch):
        def failed(*args, **kwargs):
            raise SearchFailed("no SIC fiducial", residual=1e-2)

        monkeypatch.setattr(criteria, "werner_decompose", failed)
        out_path = tmp_path / "w.state.json"
        code, out, _ = run_cli(["werner", "3", "1.0", "--out", str(out_path)], capsys)
        assert code == 2
        assert out.splitlines()[1] == f"{out_path}: INCONCLUSIVE"
        assert "decomposition written" not in out
        assert not (tmp_path / "w.state.decomposition.json").exists()

    def test_negative_phi_entangled(self, tmp_path, capsys):
        out_path = tmp_path / "w.state.json"
        code, out, _ = run_cli(["werner", "3", "--out", str(out_path), "--", "-0.1"],
                               capsys)
        assert code == 1
        assert out.splitlines()[1] == f"{out_path}: ENTANGLED"

    def test_half_phi_separable(self, tmp_path, capsys):
        out_path = tmp_path / "w2.state.json"
        code, out, _ = run_cli(["werner", "2", "0.5", "--out", str(out_path)], capsys)
        assert code == 0
        assert out.splitlines()[1] == f"{out_path}: SEPARABLE"

    @pytest.mark.parametrize("env_tol", [None, "1e-6"], ids=["default-tol", "env-tol"])
    @pytest.mark.parametrize("dim, phi, codes", [("3", "1.0", (0, 0)), ("3", "0.5", (0, 0)),
                                                 ("3", "-1e-7", (1, 1))],
                             ids=["3-1.0", "3-0.5", "3--1e-7"])
    def test_is_analyze_on_the_file_it_writes(self, tmp_path, capsys, monkeypatch,
                                              dim, phi, codes, env_tol):
        # the same report, decomposition file and exit code, at the same
        # tolerance: -1e-7 at 3 x 3 fails PPT, which is decided at rounding
        # whatever the tolerance
        if env_tol is None:
            monkeypatch.delenv("SEP_HORN_TOL", raising=False)
        else:
            monkeypatch.setenv("SEP_HORN_TOL", env_tol)
        path = str(tmp_path / "w.state.json")
        code, out, err = run_cli(["werner", dim, "--out", path, "--", phi], capsys)
        written = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        for name in written.keys() - {"w.state.json"}:
            (tmp_path / name).unlink()
        expected_code, expected_out, expected_err = run_cli(["analyze", path], capsys)
        assert code == expected_code == codes[env_tol is not None]
        assert (out, err) == (f"state written to {path}\n" + expected_out, expected_err)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == written

    def test_decomposition_file_is_named_as_analyze_names_it(self, tmp_path, capsys,
                                                             monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(["werner", "3", "1.0", "--out", "run.v2.json"], capsys)
        assert code == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "run.v2.decomposition.json", "run.v2.json"]

    def test_out_of_range_is_usage_error(self, capsys):
        code, _, err = run_cli(["werner", "2", "1.5"], capsys)
        assert code == 64


class TestNormalForm:
    def test_p_zero_reports_fidelity(self, tmp_path, capsys):
        path = write_state(tmp_path / "pz.state.json", p_zero(0.5), (2, 2))
        code, out, _ = run_cli(["normal-form", path], capsys)
        assert code == 0
        assert "converged: False" in out
        # the filtered state written is close to a Bell state
        rho, dims = fileio.state_from_text((tmp_path / "pz.state.normal.json").read_text())
        assert dims == (2, 2)
        kets = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]]) / np.sqrt(2)
        assert max(np.real(k @ rho @ k) for k in kets) > 0.99

    @pytest.mark.parametrize("d, dims", [(p_zero(0.5), (2, 2)), (werner(2, 0.8), (2, 2)),
                                         (werner(3, 1.0), (3, 3))])
    def test_same_lines_at_every_dimension(self, tmp_path, capsys, d, dims):
        # converged or not, 2x2 or not, the command prints the same four lines
        path = write_state(tmp_path / "s.state.json", d, dims)
        code, out, _ = run_cli(["normal-form", path], capsys)
        assert code == 0
        assert [line.split(" ")[0] for line in out.splitlines()] == [
            "filtered", "converged:", "iterations:", "marginal"]

    def test_werner_zero_iterations(self, tmp_path, capsys):
        path = write_state(tmp_path / "w.state.json", werner(2, 0.8), (2, 2))
        code, out, _ = run_cli(["normal-form", path], capsys)
        assert code == 0
        assert "converged: True" in out
        assert "iterations: 0" in out

    @pytest.mark.parametrize("diagonal, dims", [([0.4, 0.4, 0.3, -0.1], (2, 2)),
                                                ([0.2, 0.2, 0.2, 0.2, 0.3, -0.1], (2, 3))])
    def test_unphysical_state_exits_70(self, tmp_path, capsys, diagonal, dims):
        # full-rank marginals and a negative eigenvalue: normal-form refuses
        # the state as analyze does, and writes no filtered state
        path = write_matrix(tmp_path / "neg.state.json", np.diag(diagonal).astype(complex), dims)
        for command in ("normal-form", "analyze"):
            code, _, err = run_cli([command, path], capsys)
            assert code == 70
            assert "minimum eigenvalue -1.000e-01" in err
        assert not (tmp_path / "neg.state.normal.json").exists()

    def test_positivity_follows_env_tol(self, tmp_path, capsys, monkeypatch):
        # an eigenvalue of -5e-7 is refused at the default tolerance and
        # passes under SEP_HORN_TOL = 1e-6, as under analyze, which also
        # validates the trace to that tolerance; the filtering target --tol
        # moves neither
        rho = np.diag([0.4, 0.3, 0.3 + 5e-7, -5e-7]).astype(complex)
        path = write_matrix(tmp_path / "neg.state.json", rho, (2, 2))
        code, _, err = run_cli(["normal-form", path], capsys)
        assert code == 70 and "minimum eigenvalue -5.000e-07" in err
        monkeypatch.setenv("SEP_HORN_TOL", "1e-6")
        for scale in (1.0, 1.0 + 5e-9):
            path = write_matrix(tmp_path / "neg.state.json", rho * scale, (2, 2))
            code, out, _ = run_cli(["normal-form", path, "--tol", "1e-10"], capsys)
            assert code == 0 and "filtered state written" in out, scale
            assert run_cli(["analyze", path], capsys)[0] == 2

    def test_rank_deficient_state_exits_70(self, tmp_path, capsys):
        # marginal A has rank 2 at 3 x 3: normal-form names it and the rank
        # cutoff, and writes no filtered state
        rho = np.kron(np.diag([0.5, 0.5, 0.0]), np.eye(3) / 3.0).astype(complex)
        path = write_matrix(tmp_path / "low.state.json", rho, (3, 3))
        code, _, err = run_cli(["normal-form", path], capsys)
        assert code == 70
        assert "numeric failure: marginal A has rank 2 < 3 at rank_tol = 1e-09" in err
        assert not (tmp_path / "low.state.normal.json").exists()

    def test_random_converges(self, tmp_path, capsys):
        rng = np.random.default_rng(11)
        rho = random_density(4, 4, rng)
        path = tmp_path / "r.state.json"
        path.write_text(fileio.state_to_text(rho, (2, 2)))
        code, out, _ = run_cli(["normal-form", str(path)], capsys)
        assert code == 0
        assert "converged: True" in out


def test_usage_error_exits_64(capsys):
    code, _, _ = run_cli(["horn-triples", "3"], capsys)
    assert code == 64


def test_missing_file_exits_64(capsys):
    code, _, _ = run_cli(["analyze", "/nonexistent/state.json"], capsys)
    assert code == 64


def identity_state(tmp_path):
    return write_state(tmp_path / "mixed.state.json",
                       decompose_state(np.eye(9, dtype=complex) / 9.0, 3, 3), (3, 3))


class TestEnvTolerance:
    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    def test_bad_tol_option_is_usage_error(self, tmp_path, capsys, tol):
        code, _, err = run_cli(["analyze", identity_state(tmp_path), f"--tol={tol}"],
                               capsys)
        assert code == 64
        assert "--tol must be finite and >= 0" in err

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf", "tight"])
    def test_bad_env_tol_is_usage_error(self, tmp_path, capsys, monkeypatch, tol):
        monkeypatch.setenv("SEP_HORN_TOL", tol)
        code, _, err = run_cli(["analyze", identity_state(tmp_path)], capsys)
        assert code == 64
        assert "SEP_HORN_TOL must be" in err

    @pytest.mark.parametrize("tol", ["-1", "nan"])
    def test_bad_normal_form_tol_is_usage_error(self, tmp_path, capsys, tol):
        code, _, err = run_cli(["normal-form", identity_state(tmp_path), f"--tol={tol}"],
                               capsys)
        assert code == 64
        assert "--tol must be finite and >= 0" in err

    @pytest.mark.parametrize("tol", ["-1", "tight"])
    @pytest.mark.parametrize("command", ["werner", "normal-form"])
    def test_bad_env_tol_is_usage_error_everywhere(self, tmp_path, capsys, monkeypatch,
                                                   command, tol):
        # werner and normal-form read the tolerance as analyze does, and
        # write no file
        state = identity_state(tmp_path)
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("SEP_HORN_TOL", tol)
        args = ["werner", "3", "1.0"] if command == "werner" else ["normal-form", state]
        code, out, err = run_cli(args, capsys)
        assert code == 64 and out == ""
        assert "SEP_HORN_TOL must be" in err
        assert [p.name for p in tmp_path.iterdir()] == ["mixed.state.json"]

    def test_env_overrides_default(self, monkeypatch):
        monkeypatch.setenv("SEP_HORN_TOL", "1e-6")
        assert cli._positivity_tol() == 1e-6
        assert cli._positivity_tol(1e-3) == 1e-3               # --tol takes precedence
        monkeypatch.delenv("SEP_HORN_TOL")
        assert cli._positivity_tol() == 1e-9

    def test_env_must_be_float(self, monkeypatch):
        monkeypatch.setenv("SEP_HORN_TOL", "tight")
        with pytest.raises(click.UsageError, match="SEP_HORN_TOL must be a float, got 'tight'"):
            cli._positivity_tol()


def criterion_names(out):
    return [c["name"] for c in json.loads(out)["criteria"]]


class TestToleranceThreading:
    """``--tol`` (or ``SEP_HORN_TOL``) sets the positivity and rank
    thresholds of a verdict, the validation threshold never drops below
    1e-9, and ``--max-iter`` sets the filtering budget."""

    def test_negative_eigenvalue_within_tol_gets_a_verdict(self, tmp_path, capsys,
                                                           monkeypatch):
        rng = np.random.default_rng(1)
        w, v = np.linalg.eigh(random_density(6, 6, rng))
        w[0] = -1e-7
        w[1:] *= (1.0 + 1e-7) / w[1:].sum()
        path = write_matrix(tmp_path / "negative.state.json", (v * w) @ v.conj().T, (2, 3))
        code, _, err = run_cli(["analyze", path], capsys)
        assert code == 70
        assert "minimum eigenvalue -1.000e-07" in err
        code, out, _ = run_cli(["analyze", path, "--tol", "1e-6"], capsys)
        assert code == 1
        monkeypatch.setenv("SEP_HORN_TOL", "1e-6")
        assert run_cli(["analyze", path], capsys) == (code, out, "")

    def test_rank_threshold_follows_tol(self, tmp_path, capsys):
        # a product state whose A-marginal has eigenvalue 1e-7 is projected
        # to its support only when the tolerance exceeds that eigenvalue
        rng = np.random.default_rng(1)
        u = random_unitary(2, rng)
        rho_a = u @ np.diag([1.0 - 1e-7, 1e-7]) @ u.conj().T
        path = write_matrix(tmp_path / "product.state.json",
                            np.kron(rho_a, random_density(3, 3, rng)), (2, 3))
        code, out, _ = run_cli(["analyze", path, "--report", "structured"], capsys)
        assert code == 0
        assert "support-projection" not in criterion_names(out)
        code, out, _ = run_cli(["analyze", path, "--tol", "1e-6", "--report", "structured"],
                               capsys)
        assert code == 0
        criteria = json.loads(out)["criteria"]
        assert criterion_names(out) == [
            "ppt", "support-projection", "decomposition[trivial-factor]"]
        # the product of the unprojected marginals keeps the 1e-7 weight
        assert criteria[-1]["passed"]

    def test_validation_floor_holds_below_1e_9(self, tmp_path, capsys):
        # a trace 5e-10 off one passes validation even under --tol 1e-12
        path = write_matrix(tmp_path / "scaled.state.json",
                            np.eye(6, dtype=complex) * (1.0 + 5e-10) / 6.0, (2, 3))
        code, out, _ = run_cli(["analyze", path, "--tol", "1e-12"], capsys)
        assert code == 0
        assert "SEPARABLE" in out

    @pytest.mark.parametrize("command", ["analyze", "normal-form"])
    def test_negative_max_iter_is_usage_error(self, tmp_path, capsys, command):
        path = identity_state(tmp_path)
        code, _, err = run_cli([command, path, "--max-iter", "-1"], capsys)
        assert code == 64
        assert "--max-iter" in err
        # a budget of no sweeps is valid, and I/9 needs none
        code, _, _ = run_cli([command, path, "--max-iter", "0"], capsys)
        assert code == 0

    def test_max_iter_sets_the_filtering_budget(self, tmp_path, capsys):
        path = write_matrix(tmp_path / "tiles.state.json", tiles_state(), (3, 3))
        code, out, _ = run_cli(["analyze", path, "--report", "structured"], capsys)
        assert code == 1
        assert criterion_names(out) == ["ppt", "kyfan-necessary"]
        code, out, _ = run_cli(["analyze", path, "--max-iter", "2", "--report", "structured"],
                               capsys)
        assert code == 1
        assert criterion_names(out) == ["ppt", "normal-form", "kyfan-necessary"]
