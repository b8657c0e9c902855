"""Matrix validation, minors, component classification, frame blades."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rotorlift import reference
from rotorlift import (
    Multivector,
    NotPseudoOrthogonalError,
    Signature,
    classify_component,
    forward_matrix,
    frame_blade,
    frame_vector,
    geometric_product,
    metric_matrix,
    minor,
    random_versor,
    validate_pseudo_orthogonal,
)
from helpers import leibniz_det, max_diff, signatures_up_to


def rotation2(theta):
    # rows hold the images of the basis vectors
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s], [-s, c]])


def random_orthogonal(sig, k, seed):
    return forward_matrix(random_versor(sig, k, seed=seed))


class TestMetric:
    def test_examples(self):
        assert np.array_equal(metric_matrix(Signature(1, 1)), np.diag([1.0, -1.0]))
        assert np.array_equal(metric_matrix(Signature(3, 0)), np.eye(3))
        assert np.array_equal(metric_matrix(Signature(0, 2)), -np.eye(2))


class TestValidation:
    @pytest.mark.parametrize("sig", signatures_up_to(4))
    def test_identity_accepted(self, sig):
        matrix = validate_pseudo_orthogonal(np.eye(sig.n), sig)
        assert matrix.residual == 0.0
        assert matrix.det_sign == 1

    def test_rotation_accepted(self):
        validate_pseudo_orthogonal(rotation2(0.7), Signature(2, 0))

    def test_scaled_identity_rejected_with_residual(self):
        with pytest.raises(NotPseudoOrthogonalError) as info:
            validate_pseudo_orthogonal(2.0 * np.eye(2), Signature(2, 0))
        assert abs(info.value.residual - 3.0) < 1e-12

    def test_nan_tolerance_rejects(self):
        with pytest.raises(NotPseudoOrthogonalError):
            validate_pseudo_orthogonal(np.eye(2), Signature(2, 0), tol=math.nan)

    def test_infinite_tolerance_rejects(self):
        # an infinite bound would accept any matrix, whatever its determinant
        for entries in (np.eye(2), 2.0 * np.eye(2)):
            with pytest.raises(NotPseudoOrthogonalError):
                validate_pseudo_orthogonal(entries, Signature(2, 0), tol=math.inf)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            validate_pseudo_orthogonal(np.zeros((2, 3)), Signature(2, 0))

    def test_boost_accepted(self):
        phi = 2.0
        boost = np.array([[math.cosh(phi), math.sinh(phi)], [math.sinh(phi), math.cosh(phi)]])
        matrix = validate_pseudo_orthogonal(boost, Signature(1, 1))
        assert matrix.det_sign == 1


class TestMinor:
    def test_identity(self):
        assert minor(np.eye(3), (1, 2), (1, 2)) == 1.0

    def test_empty_is_one(self):
        rng = np.random.default_rng(0)
        assert minor(rng.uniform(size=(4, 4)), (), ()) == 1.0

    def test_full_rotation(self):
        assert abs(minor(rotation2(0.3), (1, 2), (1, 2)) - 1.0) < 1e-15

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_against_permutation_expansion(self, k):
        rng = np.random.default_rng(k)
        matrix = rng.uniform(-1.0, 1.0, size=(6, 6))
        rows = tuple(sorted(rng.choice(6, size=k, replace=False) + 1))
        cols = tuple(sorted(rng.choice(6, size=k, replace=False) + 1))
        sub = matrix[np.ix_([r - 1 for r in rows], [c - 1 for c in cols])]
        assert abs(minor(matrix, rows, cols) - leibniz_det(sub)) < 1e-12

    @pytest.mark.parametrize(
        "rows,cols",
        [((2, 1), (1, 2)), ((1, 1), (1, 2)), ((0, 1), (1, 2)), ((1, 2), (1, 2, 3))],
    )
    def test_malformed_multi_index(self, rows, cols):
        with pytest.raises(ValueError):
            minor(np.eye(3), rows, cols)


class TestClassifyComponent:
    def test_identity_is_in_everything(self):
        component = classify_component(validate_pseudo_orthogonal(np.eye(4), Signature(1, 3)))
        assert component.group_names() == ["O", "SO", "O+", "O-", "SO+"]

    def test_time_reflection(self):
        matrix = validate_pseudo_orthogonal(np.diag([-1.0, 1, 1, 1]), Signature(1, 3))
        component = classify_component(matrix)
        assert component.det_sign == -1
        assert component.top_minor_sign == -1
        assert component.bottom_minor_sign == 1
        assert component.in_o_minus and not component.in_o_plus and not component.in_so

    def test_space_reflection(self):
        matrix = validate_pseudo_orthogonal(np.diag([1.0, -1, 1, 1]), Signature(1, 3))
        component = classify_component(matrix)
        assert component.det_sign == -1
        assert component.top_minor_sign == 1
        assert component.in_o_plus and not component.in_o_minus

    def test_euclidean_reflection_is_orthochorous(self):
        # with q = 0 the trailing minor is empty, so all of O(3) sits in O-
        matrix = validate_pseudo_orthogonal(np.diag([-1.0, 1, 1]), Signature(3, 0))
        component = classify_component(matrix)
        assert component.bottom_minor_sign == 1
        assert component.in_o_minus and not component.in_o_plus

    @pytest.mark.parametrize("sig", signatures_up_to(5))
    def test_minor_identity_on_random_matrices(self, sig):
        for i, k in enumerate((2, 3, 4)):
            matrix = random_orthogonal(sig, k, seed=900 + 10 * i + sig.p)
            component = classify_component(matrix)
            p, n = sig.p, sig.n
            top = minor(matrix, range(1, p + 1), range(1, p + 1))
            bottom = minor(matrix, range(p + 1, n + 1), range(p + 1, n + 1))
            scale = max(1.0, abs(top), abs(bottom))
            assert abs(top - bottom / matrix.det) <= 1e-9 * scale
            assert abs(top) >= 1.0 - 1e-9 and abs(bottom) >= 1.0 - 1e-9
            assert component.top_minor_sign == component.bottom_minor_sign * component.det_sign


class TestFrameVectors:
    def test_identity_frame(self):
        sig = Signature(3, 0)
        matrix = validate_pseudo_orthogonal(np.eye(3), sig)
        for a in (1, 2, 3):
            assert frame_vector(matrix, a).terms() == {1 << (a - 1): 1.0}

    def test_rotation_row(self):
        sig = Signature(2, 0)
        theta = 0.4
        matrix = validate_pseudo_orthogonal(rotation2(theta), sig)
        v = frame_vector(matrix, 1)
        assert abs(v[0b01] - math.cos(theta)) < 1e-15
        assert abs(v[0b10] - math.sin(theta)) < 1e-15

    def test_reflection_row(self):
        sig = Signature(1, 1)
        matrix = validate_pseudo_orthogonal(np.diag([-1.0, 1.0]), sig)
        assert frame_vector(matrix, 1).terms() == {0b01: -1.0}

    @pytest.mark.parametrize("sig", signatures_up_to(4))
    def test_anticommutation_relations(self, sig):
        # the transformed frame satisfies the same relations as the generators
        matrix = random_orthogonal(sig, 2, seed=41 + sig.p)
        eta = metric_matrix(sig)
        for a in range(1, sig.n + 1):
            for b in range(1, sig.n + 1):
                va, vb = frame_vector(matrix, a), frame_vector(matrix, b)
                anti = geometric_product(va, vb) + geometric_product(vb, va)
                expected = Multivector.scalar(sig, 2.0 * eta[a - 1, b - 1])
                assert max_diff(anti, expected) <= 1e-10 * max(1.0, anti.max_abs())

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_non_orthogonal_matrix_breaks_relations(self, seed):
        sig = Signature(3, 0)
        rng = np.random.default_rng(seed)
        raw = rng.uniform(-1.0, 1.0, size=(3, 3))
        eta = metric_matrix(sig)
        assume(np.max(np.abs(raw.T @ eta @ raw - eta)) > 0.1)
        worst = 0.0
        for a in range(3):
            for b in range(3):
                va = Multivector.from_vector(sig, raw[a])
                vb = Multivector.from_vector(sig, raw[b])
                anti = geometric_product(va, vb) + geometric_product(vb, va)
                expected = Multivector.scalar(sig, 2.0 * eta[a, b])
                worst = max(worst, max_diff(anti, expected))
        assert worst > 0.01


class TestFrameBlades:
    def test_empty_index_gives_identity(self):
        matrix = random_orthogonal(Signature(2, 1), 2, seed=5)
        assert frame_blade(matrix, ()).terms() == {0: 1.0}

    def test_identity_matrix(self):
        matrix = validate_pseudo_orthogonal(np.eye(3), Signature(3, 0))
        assert frame_blade(matrix, (1, 2)).terms() == {0b011: 1.0}

    @pytest.mark.parametrize("sig", signatures_up_to(5))
    def test_full_blade_is_determinant(self, sig):
        for k, seed in ((2, 11), (3, 12)):
            matrix = random_orthogonal(sig, k, seed=seed + sig.p)
            blade = frame_blade(matrix, range(1, sig.n + 1))
            expected = {(1 << sig.n) - 1: matrix.det}
            got = blade.terms(tol=1e-9 * max(1.0, blade.max_abs()))
            assert set(got) == set(expected)
            assert abs(got[(1 << sig.n) - 1] - matrix.det) <= 1e-9 * max(1.0, abs(matrix.det))

    @pytest.mark.parametrize("sig", signatures_up_to(5))
    def test_product_form_matches_minor_form(self, sig):
        matrix = random_orthogonal(sig, 3, seed=77 + 3 * sig.p)
        entry_peak = max(1.0, float(np.max(np.abs(matrix.entries))))
        for mask in range(1 << sig.n):
            indices = [a + 1 for a in range(sig.n) if mask >> a & 1]
            product = frame_blade(matrix, indices)
            minors = reference.frame_blade(matrix, indices)
            assert max_diff(product, minors) <= 1e-9 * entry_peak ** len(indices)

    @pytest.mark.parametrize("sig", signatures_up_to(5))
    def test_blades_are_pure_grade(self, sig):
        # the mixed-grade terms of the product construction cancel
        matrix = random_orthogonal(sig, 4, seed=123 + sig.q)
        entry_peak = max(1.0, float(np.max(np.abs(matrix.entries))))
        for mask in range(1 << sig.n):
            indices = [a + 1 for a in range(sig.n) if mask >> a & 1]
            blade = frame_blade(matrix, indices)
            off = blade.coeffs.copy()
            keep = [m for m in range(1 << sig.n) if bin(m).count("1") == len(indices)]
            off[keep] = 0.0
            assert float(np.max(np.abs(off))) <= 1e-10 * entry_peak ** max(1, len(indices))
