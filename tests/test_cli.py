"""End-to-end command-line behavior: documents, exit codes, determinism."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from rotorlift import Multivector, Signature, forward_matrix, random_versor
from rotorlift.cli import main
from rotorlift.io import dumps, frames_to_doc, matrix_to_doc


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(dumps(doc) + "\n")
    return str(path)


def assert_rejected(argv, capsys):
    """argparse refuses an option the command does not read, with its usage exit code."""
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def rotation_doc(theta):
    c, s = math.cos(theta), math.sin(theta)
    return {"p": 2, "q": 0, "entries": [[c, s], [-s, c]]}


class TestRecover:
    def test_identity(self, tmp_path, capsys):
        path = write(tmp_path, "m.json", {"p": 2, "q": 0, "entries": [[1.0, 0.0], [0.0, 1.0]]})
        assert main(["recover", "--input", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["S"]["coefficients"] == {"": 1.0}
        assert doc["alpha"] == 1
        assert "Spin+" in doc["groups"]

    def test_quarter_turn(self, tmp_path, capsys):
        path = write(tmp_path, "m.json", rotation_doc(math.pi / 2.0))
        assert main(["recover", "--input", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        coeffs = doc["S"]["coefficients"]
        assert abs(coeffs[""] - math.sqrt(0.5)) < 1e-12
        assert abs(coeffs["12"] + math.sqrt(0.5)) < 1e-12
        assert doc["residual"] < 1e-8

    def test_degenerate_matrix_exit_code(self, tmp_path, capsys):
        path = write(tmp_path, "m.json", {"p": 2, "q": 0, "entries": [[-1.0, 0.0], [0.0, -1.0]]})
        assert main(["recover", "--input", path]) == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "CenterProjectionVanishes"
        assert err["exit_code"] == 4

    def test_not_orthogonal_exit_code(self, tmp_path, capsys):
        path = write(tmp_path, "m.json", {"p": 2, "q": 0, "entries": [[2.0, 0.0], [0.0, 2.0]]})
        assert main(["recover", "--input", path]) == 3
        assert json.loads(capsys.readouterr().err)["error"] == "NotPseudoOrthogonal"

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        assert main(["recover", "--input", str(path)]) == 2
        assert main(["recover", "--input", str(tmp_path / "missing.json")]) == 2
        capsys.readouterr()

    def test_improper_even_matrix_exit_code(self, tmp_path, capsys):
        path = write(tmp_path, "m.json", {"p": 2, "q": 0, "entries": [[-1.0, 0.0], [0.0, 1.0]]})
        assert main(["recover", "--input", path]) == 6
        assert json.loads(capsys.readouterr().err)["error"] == "SpecialOrthogonalRequired"

    def test_csv_with_signature_flag(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        path.write_text("0.0,1.0\n-1.0,0.0\n")
        assert main(["recover", "--input", str(path), "--signature", "2,0"]) == 0
        capsys.readouterr()

    def test_signature_above_the_cap_names_the_cause(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        path.write_text("1.0\n")
        assert main(["recover", "--input", str(path), "--signature", "20,0"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "Parse" and err["exit_code"] == 2
        assert err["message"] == "bad --signature '20,0': n = 20 exceeds the dimension cap 14"
        assert main(["recover", "--input", str(path), "--signature", "2;0"]) == 2
        assert "expected 'p,q'" in json.loads(capsys.readouterr().err)["message"]

    def test_output_file(self, tmp_path, capsys):
        matrix = write(tmp_path, "m.json", rotation_doc(0.3))
        out = tmp_path / "result.json"
        assert main(["recover", "--input", matrix, "--output", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert "S" in json.loads(out.read_text())

    def test_hestenes_method(self, tmp_path, capsys):
        sig = Signature(1, 3)
        s = Multivector.from_terms(sig, {(): math.cosh(0.5), (1, 2): math.sinh(0.5)})
        path = write(tmp_path, "m.json", matrix_to_doc(forward_matrix(s)))
        assert main(["recover", "--input", path, "--method", "hestenes"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["S"]["coefficients"][""] - math.cosh(0.5)) < 1e-9

    def test_hestenes_wrong_signature(self, tmp_path, capsys):
        path = write(tmp_path, "m.json", rotation_doc(0.2))
        assert main(["recover", "--input", path, "--method", "hestenes"]) == 6
        capsys.readouterr()

    def test_bad_tolerance_rejected(self, tmp_path, capsys):
        path = write(tmp_path, "m.json", rotation_doc(0.2))
        assert main(["recover", "--input", path, "--tol-ortho", "-1"]) == 2
        for flag in ("--tol-ortho", "--tol-residual"):
            for value in ("nan", "inf"):
                assert main(["recover", "--input", path, flag, value]) == 2
        capsys.readouterr()

    def test_options_it_does_not_read_are_rejected(self, tmp_path, capsys):
        path = write(tmp_path, "m.json", rotation_doc(0.2))
        assert_rejected(["recover", "--input", path, "--seed", "3"], capsys)


class TestFrames:
    def test_identity_frames(self, tmp_path, capsys):
        sig = Signature(2, 0)
        frames = [Multivector.basis_vector(sig, a) for a in (1, 2)]
        path = write(tmp_path, "f.json", frames_to_doc(frames))
        assert main(["frames", "--input", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["S"]["coefficients"] == {"": 1.0}

    def test_frames_in_ten_dimensions(self, tmp_path, capsys):
        # every key of a frames document is a single index, "10" included
        sig = Signature(5, 5)
        turn = Multivector.from_terms(sig, {(): math.cos(0.3), (1, 2): math.sin(0.3)})
        boost = Multivector.from_terms(sig, {(): math.cosh(0.4), (1, 10): math.sinh(0.4)})
        rotor = turn * boost
        frames = [Multivector.from_vector(sig, row) for row in forward_matrix(rotor).entries]
        path = write(tmp_path, "f.json", frames_to_doc(frames))
        assert main(["frames", "--input", path]) == 0
        coeffs = json.loads(capsys.readouterr().out)["S"]["coefficients"]
        assert set(coeffs) == {"", "1,2", "1,10", "2,10"}
        assert abs(coeffs["1,2"] - rotor.coeffs[0b11]) < 1e-12

    def test_non_frame_exit_code(self, tmp_path, capsys):
        doc = {"signature": {"p": 2, "q": 0}, "frames": [{"1": 1.0}, {"1": 1.0, "2": 1.0}]}
        path = write(tmp_path, "f.json", doc)
        assert main(["frames", "--input", path]) == 3
        assert json.loads(capsys.readouterr().err)["error"] == "NotAFrame"

    def test_reflection_frame_exit_code(self, tmp_path, capsys):
        doc = {"signature": {"p": 2, "q": 0}, "frames": [{"1": -1.0}, {"2": 1.0}]}
        path = write(tmp_path, "f.json", doc)
        assert main(["frames", "--input", path]) == 6
        capsys.readouterr()

    def test_options_it_does_not_read_are_rejected(self, tmp_path, capsys):
        doc = {"signature": {"p": 2, "q": 0}, "frames": [{"1": 1.0}, {"2": 1.0}]}
        path = write(tmp_path, "f.json", doc)
        for extra in (["--method", "hestenes"], ["--seed", "3"]):
            assert_rejected(["frames", "--input", path] + extra, capsys)


class TestForward:
    def test_reflection_vector(self, tmp_path, capsys):
        doc = {"signature": {"p": 3, "q": 0}, "coefficients": {"1": 1.0}}
        path = write(tmp_path, "r.json", doc)
        assert main(["forward", "--input", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["matrix"]["entries"] == [[-1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert out["component"]["groups"] == ["O", "O-"]

    def test_plane_rotor(self, tmp_path, capsys):
        doc = {"signature": {"p": 2, "q": 0}, "coefficients": {"12": 1.0}}
        path = write(tmp_path, "r.json", doc)
        assert main(["forward", "--input", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["matrix"]["entries"] == [[-1, 0], [0, -1]]

    def test_not_pin_exit_code(self, tmp_path, capsys):
        doc = {"signature": {"p": 2, "q": 0}, "coefficients": {"": 2.0}}
        path = write(tmp_path, "r.json", doc)
        assert main(["forward", "--input", path]) == 6
        assert json.loads(capsys.readouterr().err)["error"] == "NotInPin"

    def test_options_it_does_not_read_are_rejected(self, tmp_path, capsys):
        doc = {"signature": {"p": 3, "q": 0}, "coefficients": {"1": 1.0}}
        path = write(tmp_path, "r.json", doc)
        for extra in (["--tol-residual", "1e-6"], ["--method", "general"], ["--seed", "3"]):
            assert_rejected(["forward", "--input", path] + extra, capsys)
        assert main(["forward", "--input", path, "--tol-ortho", "nan"]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "Parse"


class TestClassify:
    def test_matrix_document(self, tmp_path, capsys):
        path = write(tmp_path, "m.json", rotation_doc(0.4))
        assert main(["classify", "--input", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["groups"] == ["O", "SO", "O+", "O-", "SO+"]

    def test_versor_document(self, tmp_path, capsys):
        doc = {"signature": {"p": 3, "q": 0}, "coefficients": {"1": 1.0}}
        path = write(tmp_path, "v.json", doc)
        assert main(["classify", "--input", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["groups"] == ["Pin", "Pin-"]

    def test_non_finite_versor_document(self, tmp_path, capsys):
        for value in ("NaN", "Infinity"):
            path = tmp_path / "v.json"
            path.write_text('{"signature": {"p": 2, "q": 0}, "coefficients": {"": %s}}' % value)
            assert main(["classify", "--input", str(path)]) == 2
            assert json.loads(capsys.readouterr().err)["error"] == "Parse"

    def test_options_it_does_not_read_are_rejected(self, tmp_path, capsys):
        path = write(tmp_path, "m.json", rotation_doc(0.4))
        for extra in (["--tol-residual", "1e-6"], ["--method", "general"], ["--seed", "3"]):
            assert_rejected(["classify", "--input", path] + extra, capsys)


class TestRoundTripThroughFiles:
    def test_recover_then_forward_reproduces_matrix(self, tmp_path, capsys):
        sig = Signature(1, 2)
        source = forward_matrix(random_versor(sig, 2, seed=31))
        matrix_path = write(tmp_path, "m.json", matrix_to_doc(source))
        rotor_path = tmp_path / "rotor.json"
        assert main(["recover", "--input", matrix_path, "--output", str(rotor_path)]) == 0
        rotor_doc = json.loads(rotor_path.read_text(encoding="utf-8"))
        spin_path = write(
            tmp_path, "s.json",
            {"signature": rotor_doc["S"]["signature"], "coefficients": rotor_doc["S"]["coefficients"]},
        )
        assert main(["forward", "--input", spin_path]) == 0
        out = json.loads(capsys.readouterr().out)
        back = np.array(out["matrix"]["entries"])
        assert np.max(np.abs(back - source.entries)) <= 1e-8 * max(1.0, np.max(np.abs(source.entries)))


class TestSelftestCommand:
    def test_passes_and_is_deterministic(self, capsys):
        assert main(["selftest", "--seed", "3"]) == 0
        first = capsys.readouterr().out
        assert main(["selftest", "--seed", "3"]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "PASS" in first and "FAIL" not in first

    def test_unachievable_tolerance_fails(self, capsys):
        assert main(["selftest", "--tol-residual", "1e-30"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_options_it_does_not_read_are_rejected(self, tmp_path, capsys):
        path = write(tmp_path, "m.json", rotation_doc(0.4))
        for extra in (["--signature", "2,0"], ["--input", path], ["--method", "general"]):
            assert_rejected(["selftest"] + extra, capsys)


def test_module_entry_point(tmp_path):
    doc = {"p": 2, "q": 0, "entries": [[1.0, 0.0], [0.0, 1.0]]}
    path = tmp_path / "m.json"
    path.write_text(dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-m", "rotorlift", "recover", "--input", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["alpha"] == 1
