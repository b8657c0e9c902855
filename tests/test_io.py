"""Serialization round trips and the fixed-precision JSON emitter."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

import rotorlift.io
from rotorlift import (
    Multivector,
    ParseError,
    Signature,
    forward_matrix,
    random_versor,
    validate_pseudo_orthogonal,
)
from rotorlift.io import (
    component_to_doc,
    dumps,
    frames_from_doc,
    frames_to_doc,
    load_matrix_file,
    matrix_from_doc,
    matrix_to_doc,
    multivector_from_doc,
    multivector_to_doc,
    parse_blade_label,
    rotor_result_to_doc,
)
from rotorlift.matrices import classify_component
from rotorlift.recovery import RotorResult, SpinGroupTags
from helpers import max_diff, random_multivector, signatures_up_to


# -- test-only reference ------------------------------------------------------
# The recursive emitter that io.dumps replaced.  It is kept here, outside the
# package, only to pin that io.dumps writes the same bytes as it did.

def reference_dumps(value, indent: int = 2) -> str:
    pieces: list[str] = []
    _reference_emit(value, indent, 0, pieces)
    return "".join(pieces)


def _reference_emit(value, indent: int, level: int, out: list[str]) -> None:
    pad = " " * (indent * (level + 1))
    close_pad = " " * (indent * level)
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, item) in enumerate(value.items()):
            out.append(f"{pad}{json.dumps(str(key))}: ")
            _reference_emit(item, indent, level + 1, out)
            out.append(",\n" if i + 1 < len(value) else "\n")
        out.append(close_pad + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        out.append("[\n")
        for i, item in enumerate(value):
            out.append(pad)
            _reference_emit(item, indent, level + 1, out)
            out.append(",\n" if i + 1 < len(value) else "\n")
        out.append(close_pad + "]")
    elif isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, (int, np.integer)):
        out.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        out.append(format(float(value), ".17g"))
    elif isinstance(value, str):
        out.append(json.dumps(value))
    elif value is None:
        out.append("null")
    else:
        raise TypeError(f"cannot serialize {type(value)!r}")


def result_doc(sig: Signature, k: int, seed: int = 1) -> dict:
    """The document of a RotorResult holding a k-vector versor of sig."""
    spin = random_versor(sig, k, seed=seed)
    even = k % 2 == 0
    tags = SpinGroupTags(
        in_pin=True, in_spin=even, in_spin_plus=False, in_pin_plus=even, in_pin_minus=not even
    )
    warning = None if even else "residual 2e-9 \u2265 1e-9: \"polished\"\tonce"
    return rotor_result_to_doc(RotorResult(spin, -1 if even else 1, 3.5e-16 * sig.n, tags, warning))


class TestBladeLabels:
    def test_parse_basic(self):
        assert parse_blade_label("", 3) == 0
        assert parse_blade_label("12", 3) == 0b011
        assert parse_blade_label("13", 3) == 0b101

    def test_parse_comma_form(self):
        assert parse_blade_label("1,2", 12) == 0b011
        assert parse_blade_label("2,11", 12) == (1 << 10) | 0b10

    def test_high_dimension_requires_commas(self):
        with pytest.raises(ParseError):
            parse_blade_label("111", 11)
        with pytest.raises(ParseError, match="comma-separated"):
            parse_blade_label("12", 11)

    def test_single_index_needs_no_comma_at_high_dimension(self):
        assert parse_blade_label("5", 10) == 1 << 4
        assert parse_blade_label("10", 10) == 1 << 9

    @pytest.mark.parametrize("label", ["+3", "1_0", "\u0665", "1,+3", "1,"])
    def test_indices_are_plain_digits(self, label):
        with pytest.raises(ParseError, match="bad generator index"):
            parse_blade_label(label, 10)

    def test_every_written_label_reads_back(self):
        for n in range(1, 12):
            labels = rotorlift.io._blade_labels(n)
            assert [parse_blade_label(label, n) for label in labels] == list(range(1 << n))

    def test_labels_are_built_once_per_dimension(self, monkeypatch):
        real = rotorlift.io.blade_label
        calls = []

        def counting(mask, n):
            calls.append(1)
            return real(mask, n)

        monkeypatch.setattr(rotorlift.io, "blade_label", counting)
        rotorlift.io._blade_labels.cache_clear()
        sig = Signature(6, 5)
        for seed in (1, 2, 3):
            dumps(result_doc(sig, 4, seed))
        # one label per blade of Cl(6,5), built by the first document
        assert len(calls) == 1 << 11

    def test_labels_are_not_built_at_import(self):
        code = "import rotorlift.io as io; print(io._blade_labels.cache_info().currsize)"
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert done.stdout.strip() == "0"

    @pytest.mark.parametrize("label", ["21", "11", "0", "4", "x"])
    def test_bad_labels(self, label):
        with pytest.raises(ParseError):
            parse_blade_label(label, 3)


class TestMultivectorDocs:
    @pytest.mark.parametrize("sig", signatures_up_to(4))
    def test_round_trip(self, sig):
        rng = np.random.default_rng(sig.p * 10 + sig.q)
        u = random_multivector(sig, rng)
        doc = multivector_to_doc(u)
        again = multivector_from_doc(json.loads(dumps(doc)))
        assert max_diff(u, again) == 0.0

    def test_round_trip_in_high_dimension(self):
        sig = Signature(10, 0)
        u = Multivector.basis_blade(sig, (1 << 9) | 1)
        doc = multivector_to_doc(u)
        assert "1,10" in doc["coefficients"]
        assert max_diff(multivector_from_doc(doc), u) == 0.0

    def test_round_trip_of_a_versor_in_high_dimension(self):
        u = random_versor(Signature(6, 4), 3, seed=1)
        again = multivector_from_doc(json.loads(dumps(multivector_to_doc(u))))
        assert max_diff(u, again) == 0.0

    def test_zeros_and_nan_are_omitted(self):
        u = Multivector(Signature(2, 0), [0.0, -0.0, math.nan, -2.5])
        assert u.terms() == {3: -2.5}
        assert multivector_to_doc(u)["coefficients"] == {"12": -2.5}
        assert frames_to_doc([u])["frames"] == [{"12": -2.5}]
        terms = Multivector(Signature(2, 0), [1.0, 0.0, 2.0, 3.0]).terms(tol=1.5)
        assert list(terms.items()) == [(2, 2.0), (3, 3.0)]
        assert all(type(mask) is int and type(value) is float for mask, value in terms.items())

    def test_missing_keys(self):
        with pytest.raises(ParseError):
            multivector_from_doc({"coefficients": {}})
        with pytest.raises(ParseError):
            multivector_from_doc({"signature": {"p": 1, "q": 0}})

    def test_non_numeric_coefficient(self):
        with pytest.raises(ParseError):
            multivector_from_doc(
                {"signature": {"p": 1, "q": 0}, "coefficients": {"1": "x"}}
            )


    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_coefficient(self, value):
        with pytest.raises(ParseError, match="not a finite number"):
            multivector_from_doc(
                {"signature": {"p": 1, "q": 0}, "coefficients": {"1": value}}
            )


class TestMatrixDocs:
    def test_round_trip(self):
        sig = Signature(1, 1)
        phi = 0.4
        entries = [[np.cosh(phi), np.sinh(phi)], [np.sinh(phi), np.cosh(phi)]]
        matrix = validate_pseudo_orthogonal(entries, sig)
        raw, parsed_sig = matrix_from_doc(json.loads(dumps(matrix_to_doc(matrix))))
        assert parsed_sig == sig
        assert np.array_equal(raw, matrix.entries)

    def test_shape_mismatch(self):
        with pytest.raises(ParseError):
            matrix_from_doc({"p": 2, "q": 0, "entries": [[1.0, 0.0]]})

    def test_csv_requires_signature(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0.0,1.0\n-1.0,0.0\n")
        with pytest.raises(ParseError):
            load_matrix_file(str(path))
        matrix = load_matrix_file(str(path), Signature(2, 0))
        assert matrix.det_sign == 1

    def test_signature_conflict(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(dumps({"p": 2, "q": 0, "entries": [[1.0, 0.0], [0.0, 1.0]]}))
        with pytest.raises(ParseError):
            load_matrix_file(str(path), Signature(1, 1))

    def test_missing_file(self):
        with pytest.raises(ParseError):
            load_matrix_file("/nonexistent/m.json")


class TestFramesDocs:
    def test_round_trip(self):
        sig = Signature(2, 0)
        frames = [Multivector.basis_vector(sig, 1), Multivector.basis_vector(sig, 2)]
        again = frames_from_doc(json.loads(dumps(frames_to_doc(frames))))
        assert all(max_diff(a, b) == 0.0 for a, b in zip(frames, again))

    def test_round_trip_in_high_dimension(self):
        sig = Signature(5, 5)
        frames = [Multivector.from_vector(sig, row) for row in np.eye(10)[::-1]]
        doc = frames_to_doc(frames)
        assert "10" in doc["frames"][0]
        again = frames_from_doc(json.loads(dumps(doc)))
        assert all(max_diff(a, b) == 0.0 for a, b in zip(frames, again))

    def test_empty_frames_rejected(self):
        with pytest.raises(ParseError):
            frames_from_doc({"signature": {"p": 1, "q": 0}, "frames": []})
        with pytest.raises(ValueError, match="need at least one frame vector"):
            frames_to_doc([])


class TestPrecisionEmitter:
    def test_seventeen_digit_floats_round_trip(self):
        values = [0.1, 1.0 / 3.0, np.pi, 2.0 ** -52, 1e300, -7.25]
        text = dumps({"values": values})
        parsed = json.loads(text)["values"]
        assert parsed == values

    def test_non_ascii_and_structures(self):
        doc = {"a": [1, 2.5, True, None, "text"], "b": {}, "c": []}
        assert json.loads(dumps(doc)) == doc

    def test_float_formatting_is_17_digits(self):
        assert "0.10000000000000001" in dumps({"x": 0.1})

    def test_integers_stay_integers(self):
        assert dumps({"alpha": -1}) == '{\n  "alpha": -1\n}'


class TestSameBytes:
    """io.dumps writes exactly what the reference emitter above writes."""

    @pytest.mark.parametrize("sig", signatures_up_to(11))
    def test_result_documents(self, sig):
        for k in (4, 5):
            doc = result_doc(sig, k)
            assert dumps(doc) == reference_dumps(doc)

    def test_matrix_frames_and_component_documents(self):
        sig = Signature(3, 2)
        matrix = forward_matrix(random_versor(sig, 3, seed=2))
        entries = matrix_to_doc(matrix)["entries"]
        assert all(type(x) is float for row in entries for x in row)
        assert entries == [[float(x) for x in row] for row in matrix.entries]
        frames = [Multivector.from_vector(sig, row) for row in matrix.entries]
        for doc in (
            {"matrix": matrix_to_doc(matrix), "component": component_to_doc(classify_component(matrix))},
            frames_to_doc(frames),
            multivector_to_doc(random_versor(sig, 2, seed=3)),
        ):
            assert dumps(doc) == reference_dumps(doc)

    def test_error_line(self):
        doc = {"error": "Parse", "message": "bad label '1' \u00e9\n\"x\"", "exit_code": 2}
        assert dumps(doc, indent=0) == reference_dumps(doc, indent=0)

    @pytest.mark.parametrize(
        "value",
        [
            {},
            [],
            {"a": {}, "b": [], "c": [[]], "d": [{}]},
            {"f64": np.float64(0.1), "i64": np.int64(-3), "t": True, "f": False, "none": None},
            [np.float32(0.5), np.int32(7), (1, 2.0), "text"],
            {"neg_zero": -0.0, "subnormal": 5e-324, "huge": 1e300, "nan": math.nan, "inf": -math.inf},
            {1: 2.0, "\u00e9\u2265": "\u2265", "quote\"\\": "\x01"},
            -0.0,
            5e-324,
            1e300,
            np.float64(-0.0),
            "s",
            None,
        ],
    )
    def test_leaves_and_empty_containers(self, value):
        for indent in (0, 2, 4):
            assert dumps(value, indent) == reference_dumps(value, indent)

    def test_unknown_type_is_rejected(self):
        with pytest.raises(TypeError):
            dumps({"x": object()})
