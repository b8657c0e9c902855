"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Deviations from absolute tolerances are scaled by the natural magnitude of
the quantity under test (entry peak for matrices, coefficient peak for spin
elements, entry peak to the k-th power for order-k minors), with a floor of
1 so the scaling is inert for rotation-sized data.  Indefinite orthogonal
groups are non-compact, so absolute comparisons would otherwise conflate
the size of a boost with the accuracy of the arithmetic.
"""

import math

import numpy as np
import pytest

from rotorlift import reference
from rotorlift import (
    CenterProjectionVanishesError,
    HestenesConditionError,
    Multivector,
    Signature,
    average_over_basis,
    canonicalize_sign,
    center_project,
    classify_component,
    classify_spin,
    forward_matrix,
    frame_blade,
    frame_vector,
    generator_conjugation,
    geometric_product,
    grade_project,
    involution,
    minor,
    random_versor,
    recover_hestenes,
    recover_spin,
    spin_numerator,
    spinor_norm_sign,
    validate_pseudo_orthogonal,
)
from helpers import (
    exp_series,
    max_diff,
    random_multivector,
    rodrigues_rows,
    rotation_plane_bivector,
    signatures_up_to,
)

BASE_SEED = 20240915


def versor_seed(sig, i):
    return BASE_SEED + sig.p * 1_000_003 + sig.q * 10_007 + i


def versor_ks(n):
    # even dimensions only admit recovery on the determinant +1 component
    return (0, 2, 4) if n % 2 == 0 else (0, 1, 2, 3, 4)


def report(number, title):
    print(f"[acceptance] criterion {number} ({title}): PASS")


class TestCriterion1RoundTrip:
    def test_round_trip_recovery(self):
        tested = 0
        skipped = 0
        worst_matrix = 0.0
        worst_spin = 0.0
        for sig in signatures_up_to(8):
            ks = versor_ks(sig.n)
            sig_tested = 0
            for i in range(100):
                s = random_versor(sig, ks[i % len(ks)], seed=versor_seed(sig, i))
                matrix = forward_matrix(s)
                try:
                    result = recover_spin(matrix)
                except CenterProjectionVanishesError:
                    skipped += 1
                    continue
                tested += 1
                sig_tested += 1
                back = forward_matrix(result.spin)
                matrix_scale = max(1.0, float(np.max(np.abs(matrix.entries))))
                spin_scale = max(1.0, s.max_abs())
                matrix_diff = float(np.max(np.abs(back.entries - matrix.entries)))
                spin_diff = max_diff(canonicalize_sign(s), result.spin)
                worst_matrix = max(worst_matrix, matrix_diff / matrix_scale)
                worst_spin = max(worst_spin, spin_diff / spin_scale)
                assert matrix_diff <= 1e-8 * matrix_scale, (sig, i, matrix_diff)
                assert spin_diff <= 1e-8 * spin_scale, (sig, i, spin_diff)
            assert sig_tested >= 40, (sig, sig_tested)
        assert tested >= 3000
        report(1, f"round-trip recovery, {tested} recovered / {skipped} degenerate, "
                  f"worst matrix {worst_matrix:.2e}, worst spin {worst_spin:.2e}")


class TestCriterion2Averaging:
    def test_averaging_equals_center_projection(self):
        worst = 0.0
        for sig in signatures_up_to(6):
            rng = np.random.default_rng(versor_seed(sig, 777))
            for _ in range(1000):
                u = random_multivector(sig, rng)
                diff = max_diff(average_over_basis(u), center_project(u).embed())
                worst = max(worst, diff)
                assert diff <= 1e-10
        report(2, f"averaging identity, worst deviation {worst:.2e}")


class TestCriterion3GeneratorConjugation:
    def test_pure_grade_eigenvalues(self):
        worst = 0.0
        for sig in signatures_up_to(6):
            n = sig.n
            rng = np.random.default_rng(versor_seed(sig, 888))
            for k in range(n + 1):
                for _ in range(100):
                    u = grade_project(random_multivector(sig, rng), k)
                    expected = u * float((-1) ** k * (n - 2 * k))
                    diff = max_diff(generator_conjugation(u), expected)
                    worst = max(worst, diff)
                    assert diff <= 1e-10
        report(3, f"generator conjugation identity, worst deviation {worst:.2e}")


def _random_orthogonal_matrices(sig, count):
    for i in range(count):
        k = (1, 2, 3, 4)[i % 4] if sig.n % 2 == 1 else (2, 4)[i % 2]
        yield forward_matrix(random_versor(sig, k, seed=versor_seed(sig, 5000 + i)))


class TestCriterion4BladeEquivalence:
    def test_product_form_equals_minor_form(self):
        worst = 0.0
        for sig in signatures_up_to(6):
            n = sig.n
            for matrix in _random_orthogonal_matrices(sig, 50):
                entry_peak = max(1.0, float(np.max(np.abs(matrix.entries))))
                for mask in range(1 << n):
                    indices = [a + 1 for a in range(n) if mask >> a & 1]
                    product = frame_blade(matrix, indices)
                    minors = reference.frame_blade(matrix, indices)
                    scale = entry_peak ** max(1, len(indices))
                    diff = max_diff(product, minors) / scale
                    worst = max(worst, diff)
                    assert diff <= 1e-9, (sig, indices)
                full = frame_blade(matrix, range(1, n + 1))
                expected = Multivector.basis_blade(sig, (1 << n) - 1) * matrix.det
                assert max_diff(full, expected) <= 1e-9 * entry_peak ** n
        report(4, f"frame-blade equivalence, worst scaled deviation {worst:.2e}")


class TestCriterion5MinorIdentity:
    def test_principal_minor_relation(self):
        worst = 0.0
        smallest = math.inf
        for sig in signatures_up_to(6):
            p, n = sig.p, sig.n
            for matrix in _random_orthogonal_matrices(sig, 50):
                top = minor(matrix, range(1, p + 1), range(1, p + 1))
                bottom = minor(matrix, range(p + 1, n + 1), range(p + 1, n + 1))
                entry_peak = max(1.0, float(np.max(np.abs(matrix.entries))))
                scale = max(
                    1.0, abs(top), abs(bottom), entry_peak**p, entry_peak ** (n - p)
                )
                diff = abs(top - bottom / matrix.det) / scale
                worst = max(worst, diff)
                smallest = min(smallest, abs(top), abs(bottom))
                assert diff <= 1e-9, (sig,)
                assert abs(top) >= 1.0 - 1e-9 * scale
                assert abs(bottom) >= 1.0 - 1e-9 * scale
        report(5, f"minor identity, worst scaled deviation {worst:.2e}, "
                  f"smallest magnitude {smallest:.6f}")


class TestCriterion6ClosedFormAnchors:
    def test_plane_rotation_anchor(self):
        sig = Signature(2, 0)
        matrix = validate_pseudo_orthogonal([[0.0, 1.0], [-1.0, 0.0]], sig)
        result = recover_spin(matrix)
        oracle = canonicalize_sign(
            exp_series(Multivector.from_terms(sig, {(1, 2): -math.pi / 4.0}))
        )
        assert max_diff(result.spin, oracle) <= 1e-12
        root_half = math.sqrt(0.5)
        assert abs(result.spin[0] - root_half) <= 1e-12
        assert abs(result.spin[0b11] + root_half) <= 1e-12

    def test_three_dimensional_rotations(self):
        sig = Signature(3, 0)
        rng = np.random.default_rng(BASE_SEED)
        for _ in range(20):
            axis = rng.standard_normal(3)
            angle = rng.uniform(0.1, 3.0)
            rows = rodrigues_rows(axis, angle)
            matrix = validate_pseudo_orthogonal(rows, sig)
            plane = rotation_plane_bivector(sig, axis)
            oracle = canonicalize_sign(exp_series(plane * (-angle / 2.0)))
            assert np.max(np.abs(forward_matrix(oracle).entries - rows)) <= 1e-12
            result = recover_spin(matrix)
            assert max_diff(result.spin, oracle) <= 1e-9
            numerator = spin_numerator(matrix)
            reduced = Multivector.scalar(sig, 1.0)
            for a in (1, 2, 3):
                reduced = reduced + geometric_product(
                    frame_vector(matrix, a), Multivector.basis_vector(sig, a)
                )
            assert max_diff(numerator, reduced * 2.0) <= 1e-10

    def test_lorentz_boost_anchor(self):
        sig = Signature(1, 3)
        oracle = exp_series(Multivector.from_terms(sig, {(1, 2): 0.5}))
        matrix = forward_matrix(oracle)
        result = recover_spin(matrix)
        expected = Multivector.from_terms(
            sig, {(): math.cosh(0.5), (1, 2): math.sinh(0.5)}
        )
        assert max_diff(result.spin, canonicalize_sign(expected)) <= 1e-9
        assert max_diff(result.spin, canonicalize_sign(oracle)) <= 1e-9

    def test_report(self):
        report(6, "closed-form anchors in SO(2), SO(3), SO+(1,3)")


class TestCriterion7HestenesCrossValidation:
    def test_two_hundred_random_rotors(self):
        sig = Signature(1, 3)
        checked = 0
        attempts = 0
        worst = 0.0
        while checked < 200:
            attempts += 1
            assert attempts < 3000
            s = random_versor(sig, (0, 2, 4)[attempts % 3], seed=BASE_SEED + attempts)
            if not classify_spin(s).in_spin_plus:
                continue
            matrix = forward_matrix(s)
            try:
                general = recover_spin(matrix)
                shortcut = recover_hestenes(matrix)
            except (CenterProjectionVanishesError, HestenesConditionError):
                continue
            checked += 1
            scale = max(1.0, general.spin.max_abs())
            diff = max_diff(general.spin, shortcut.spin) / scale
            worst = max(worst, diff)
            assert diff <= 1e-8
        report(7, f"dimension-4 shortcut agreement on {checked} rotors, worst {worst:.2e}")


class TestCriterion8Degeneracy:
    def test_plane_rotor_matrix_in_two_dimensions(self):
        with pytest.raises(CenterProjectionVanishesError):
            recover_spin(validate_pseudo_orthogonal(-np.eye(2), Signature(2, 0)))

    def test_pseudoscalar_matrix_in_four_dimensions(self):
        sig = Signature(4, 0)
        omega = Multivector.pseudoscalar(sig)
        matrix = forward_matrix(omega)
        assert np.allclose(matrix.entries, -np.eye(4))
        with pytest.raises(CenterProjectionVanishesError):
            recover_spin(matrix)

    def test_vanishing_contraction_in_hestenes_path(self):
        matrix = validate_pseudo_orthogonal(np.diag([1.0, 1.0, -1.0, -1.0]), Signature(1, 3))
        with pytest.raises(HestenesConditionError):
            recover_hestenes(matrix)

    def test_report(self):
        report(8, "degeneracy detection raises the documented errors")


class TestCriterion9ComponentAgreement:
    def test_norm_sign_and_covering_table(self):
        checked = 0
        for sig in signatures_up_to(8):
            ks = versor_ks(sig.n)
            for i in range(100):
                s = random_versor(sig, ks[i % len(ks)], seed=versor_seed(sig, 40_000 + i))
                matrix = forward_matrix(s)
                predicted = spinor_norm_sign(matrix)
                if sig.n % 4 == 3:
                    direct = geometric_product(involution(s, "conjugate"), s).scalar_part
                else:
                    direct = geometric_product(involution(s, "reverse"), s).scalar_part
                assert abs(direct - predicted) <= 1e-6, (sig, i)
                tags = classify_spin(s)
                component = classify_component(matrix)
                assert tags.in_pin
                assert tags.in_spin == component.in_so
                assert tags.in_pin_plus == component.in_o_plus
                assert tags.in_pin_minus == component.in_o_minus
                assert tags.in_spin_plus == component.in_so_plus
                if not s.odd_part().max_abs() > 0:
                    assert (predicted == 1) == component.in_so_plus
                checked += 1
        report(9, f"norm-sign and covering-table agreement on {checked} versors")
