import json

import numpy as np
import pytest

from sephorn import fileio
from sephorn.bipartite import compose_state
from sephorn.cli import main
from sephorn.criteria import verify_decomposition
from sephorn.states import bell, p_zero, werner
from sephorn.bipartite import decompose_state


def run_cli(args, capsys):
    with pytest.raises(SystemExit) as exc:
        main(list(args))
    out = capsys.readouterr()
    code = exc.value.code or 0
    return code, out.out, out.err


def write_state(path, d, dims):
    path.write_text(fileio.state_to_text(compose_state(d), dims))
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

    def test_seed_reproducible(self, tmp_path, capsys):
        path = write_state(tmp_path / "w3.state.json", werner(3, 1.0), (3, 3))
        run_cli(["analyze", path, "--seed", "5"], capsys)
        first = (tmp_path / "w3.state.decomposition.json").read_text()
        run_cli(["analyze", path, "--seed", "5"], capsys)
        assert (tmp_path / "w3.state.decomposition.json").read_text() == first


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
        code, out, _ = run_cli(["werner", "3", "1.0", "--decompose",
                                "--out", str(out_path)], capsys)
        assert code == 0
        assert "SEPARABLE (9 components)" in out
        rho, dims = fileio.state_from_text(out_path.read_text())
        assert dims == (3, 3)
        dec_file = tmp_path / "w.decomposition.json"
        assert dec_file.exists()
        dec, _ = fileio.decomposition_from_text(dec_file.read_text())
        assert verify_decomposition(dec, decompose_state(rho, 3, 3)).valid

    def test_negative_phi_entangled(self, tmp_path, capsys):
        code, out, _ = run_cli(["werner", "3", "--out",
                                str(tmp_path / "w.state.json"), "--", "-0.1"],
                               capsys)
        assert code == 1
        assert "ENTANGLED" in out

    def test_half_phi_separable(self, tmp_path, capsys):
        out_path = tmp_path / "w2.state.json"
        code, out, _ = run_cli(["werner", "2", "0.5", "--out", str(out_path)], capsys)
        assert code == 0
        assert "SEPARABLE" in out

    def test_out_of_range_is_usage_error(self, capsys):
        code, _, err = run_cli(["werner", "2", "1.5"], capsys)
        assert code == 64


class TestNormalForm:
    def test_p_zero_reports_fidelity(self, tmp_path, capsys):
        path = write_state(tmp_path / "pz.state.json", p_zero(0.5), (2, 2))
        code, out, _ = run_cli(["normal-form", path], capsys)
        assert code == 0
        assert "converged: False" in out
        fid = float(out.split("best Bell fidelity of filtered state:")[1].strip())
        assert fid > 0.99
        assert (tmp_path / "pz.state.normal.json").exists()

    def test_werner_zero_iterations(self, tmp_path, capsys):
        path = write_state(tmp_path / "w.state.json", werner(2, 0.8), (2, 2))
        code, out, _ = run_cli(["normal-form", path], capsys)
        assert code == 0
        assert "converged: True" in out
        assert "iterations: 0" in out

    def test_random_converges(self, tmp_path, capsys):
        rng = np.random.default_rng(11)
        from sephorn.states import random_density
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


def test_jobs_flag_parallel_analysis(tmp_path, capsys):
    p1 = write_state(tmp_path / "a.state.json", werner(2, 0.5), (2, 2))
    p2 = write_state(tmp_path / "b.state.json", bell(), (2, 2))
    code, out, _ = run_cli(["analyze", p1, p2, "--jobs", "2"], capsys)
    assert code == 1
    assert "SEPARABLE" in out and "ENTANGLED" in out


class TestEnvTolerance:
    def test_env_overrides_default(self, monkeypatch):
        from sephorn.config import default_positivity_tol
        monkeypatch.setenv("SEP_HORN_TOL", "1e-6")
        assert default_positivity_tol() == 1e-6
        monkeypatch.delenv("SEP_HORN_TOL")
        assert default_positivity_tol() == 1e-9

    def test_env_must_be_float(self, monkeypatch):
        from sephorn.config import default_positivity_tol
        monkeypatch.setenv("SEP_HORN_TOL", "tight")
        with pytest.raises(ValueError):
            default_positivity_tol()
