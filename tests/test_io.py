"""Serialization round trips and the fixed-precision JSON emitter."""

import json

import numpy as np
import pytest

from rotorlift import Multivector, ParseError, Signature, validate_pseudo_orthogonal
from rotorlift.io import (
    dumps,
    frames_from_doc,
    frames_to_doc,
    load_matrix_file,
    matrix_from_doc,
    matrix_to_doc,
    multivector_from_doc,
    multivector_to_doc,
    parse_blade_label,
)
from helpers import max_diff, random_multivector, signatures_up_to


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

    def test_empty_frames_rejected(self):
        with pytest.raises(ParseError):
            frames_from_doc({"signature": {"p": 1, "q": 0}, "frames": []})


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
