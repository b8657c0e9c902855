"""Recovery pipeline: numerator, norm sign, central roots, round trips."""

import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import rotorlift.recovery
from rotorlift import reference
from rotorlift import (
    CenterElement,
    CenterProjectionVanishesError,
    HestenesConditionError,
    MixedParityError,
    Multivector,
    NoRealRootError,
    NotAFrameError,
    NotInLipschitzGroupError,
    NotInPinError,
    Signature,
    SignatureMismatchError,
    SpecialOrthogonalRequiredError,
    VerificationFailedError,
    WrongComponentError,
    canonicalize_sign,
    central_sqrt_candidates,
    classify_component,
    classify_spin,
    forward_matrix,
    frame_vector,
    geometric_product,
    involution,
    pseudoscalar_square,
    random_versor,
    recover_hestenes,
    recover_spin,
    rotor_from_frames,
    spin_numerator,
    spinor_norm_sign,
    twisted_adjoint_residual,
    validate_pseudo_orthogonal,
)
from rotorlift.matrices import OrthoMatrix
from helpers import (
    exp_series,
    max_diff,
    random_multivector,
    rodrigues_rows,
    rotation_plane_bivector,
    signatures_up_to,
)


def mv(sig, terms):
    return Multivector.from_terms(sig, terms)


def rotation2(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s], [-s, c]])


def versor_ks(n):
    """Reflection counts compatible with the recovery domain."""
    return (0, 2, 4) if n % 2 == 0 else (0, 1, 2, 3, 4)


def assert_same_digest_under_another_blas_kernel(body):
    """Run ``body``, which feeds bytes to ``digest``, in two fresh interpreters, the second
    under OPENBLAS_CORETYPE=Prescott, and compare the SHA-256 digests."""
    code = (
        "import hashlib, rotorlift.recovery as r\n"
        "from rotorlift import Signature, forward_matrix, random_versor\n"
        "digest = hashlib.sha256()\n" + body + "print(digest.hexdigest())\n"
    )
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(rotorlift.__file__))
    digests = [subprocess.run([sys.executable, "-c", code], env=dict(env, **kernel), capture_output=True,
                              text=True, check=True, timeout=120).stdout
               for kernel in ({}, {"OPENBLAS_CORETYPE": "Prescott"})]
    assert digests[0] == digests[1] and len(digests[0].strip()) == 64


def gamma(m):
    """gamma_m = m u / (1 - m u), u = eps / 2: an m-term sum of rounded products is within
    gamma_m times the sum of the terms' magnitudes of the exact sum, in any order (Higham,
    *Accuracy and Stability of Numerical Algorithms*, ch. 3)."""
    u = np.finfo(np.float64).eps / 2.0
    return m * u / (1.0 - m * u)


def block_rounding(t, s_arr, lam):
    """Bound on |block - rows' grade-1 slots| for the action of S whose computed scalar is lam.

    Both read M[a, b] = sum_K V_a[K] x[K ^ e_b] sign(e_K e_{K ^ e_b}) from the same
    x = reverse(S) / lam, as a sum of the same 2^n rounded products in different
    orders, so each is within gamma_{2^n} sum_K |V_a[K]| |x[K ^ e_b]| of the exact
    sum.  V_a is a signed permutation of S and |x|_2 <= (1 + u) |S|_2 / |lam|, so by
    Cauchy-Schwarz that sum is at most (1 + u) |S|_2^2 / |lam|, and the two reads
    differ by at most twice that (``_norm`` covers the rounding of |S|_2).
    """
    return 2.0 * gamma(t.size) * (1.0 + 2.0 ** -53) * rotorlift.recovery._norm(t, s_arr) ** 2 / abs(lam)


class TestSpinNumerator:
    @pytest.mark.parametrize("sig", signatures_up_to(5))
    def test_identity_matrix(self, sig):
        matrix = validate_pseudo_orthogonal(np.eye(sig.n), sig)
        numerator = spin_numerator(matrix)
        assert numerator.terms() == {0: float(1 << sig.n)}

    def test_minus_identity_vanishes(self):
        matrix = validate_pseudo_orthogonal(-np.eye(2), Signature(2, 0))
        assert spin_numerator(matrix).max_abs() <= 1e-14

    def test_rotation_closed_form(self):
        # expanding the four multi-index terms of a plane rotation by hand:
        # e + 2(cos - sin e12) + det * e12 e^12 = (2 + 2cos) - 2 sin e12
        theta = 0.8
        matrix = validate_pseudo_orthogonal(rotation2(theta), Signature(2, 0))
        numerator = spin_numerator(matrix)
        expected = mv(
            Signature(2, 0),
            {(): 2.0 + 2.0 * math.cos(theta), (1, 2): -2.0 * math.sin(theta)},
        )
        assert max_diff(numerator, expected) <= 1e-14

    def test_improper_even_rejected(self):
        matrix = validate_pseudo_orthogonal(np.diag([-1.0, 1.0]), Signature(2, 0))
        with pytest.raises(SpecialOrthogonalRequiredError):
            spin_numerator(matrix)

    @pytest.mark.parametrize("sig", signatures_up_to(6))
    def test_product_and_minor_methods_agree(self, sig):
        for k in versor_ks(sig.n)[1:]:
            matrix = forward_matrix(random_versor(sig, k, seed=50 + k + sig.p))
            fast = spin_numerator(matrix)
            slow = reference.spin_numerator(matrix)
            assert max_diff(fast, slow) <= 1e-9 * max(1.0, fast.max_abs())

    def test_nested_sum_costs_n_vector_products(self, monkeypatch):
        sig = Signature(4, 3)
        matrix = forward_matrix(random_versor(sig, 3, seed=7))
        counts = {"_vector_mul_right": 0, "_product_arrays": 0}
        for name in counts:
            real = getattr(rotorlift.recovery, name)

            def counting(*args, name=name, real=real):
                counts[name] += 1
                return real(*args)

            monkeypatch.setattr(rotorlift.recovery, name, counting)
        spin_numerator(matrix)
        assert counts == {"_vector_mul_right": sig.n, "_product_arrays": 0}

    @pytest.mark.parametrize("sig", signatures_up_to(5))
    def test_numerator_is_even(self, sig):
        for k in versor_ks(sig.n)[1:]:
            matrix = forward_matrix(random_versor(sig, k, seed=60 + k))
            numerator = spin_numerator(matrix)
            odd = numerator.odd_part()
            assert odd.max_abs() <= 1e-10 * max(1.0, numerator.max_abs())


class TestSpinorNormSign:
    def test_identity(self):
        for sig in (Signature(2, 0), Signature(1, 2), Signature(1, 3)):
            matrix = validate_pseudo_orthogonal(np.eye(sig.n), sig)
            assert spinor_norm_sign(matrix) == 1

    def test_boost(self):
        phi = 1.3
        boost = np.array([[math.cosh(phi), math.sinh(phi)], [math.sinh(phi), math.cosh(phi)]])
        matrix = validate_pseudo_orthogonal(boost, Signature(1, 1))
        assert spinor_norm_sign(matrix) == 1

    def test_minus_identity_in_lorentz_plane(self):
        matrix = validate_pseudo_orthogonal(-np.eye(2), Signature(1, 1))
        assert spinor_norm_sign(matrix) == -1

    @pytest.mark.parametrize("sig", signatures_up_to(7))
    def test_matches_direct_versor_product(self, sig):
        for i, k in enumerate(versor_ks(sig.n)):
            s = random_versor(sig, k, seed=3000 + 10 * i + sig.p)
            matrix = forward_matrix(s)
            if sig.n % 4 == 3:
                direct = geometric_product(involution(s, "conjugate"), s).scalar_part
            else:
                direct = geometric_product(involution(s, "reverse"), s).scalar_part
            assert abs(direct - spinor_norm_sign(matrix)) < 1e-6


class TestCentralSquareRoots:
    def test_even_scalar(self):
        roots = central_sqrt_candidates(CenterElement(Signature(2, 0), 4.0))
        assert len(roots) == 1 and roots[0].scalar_part == 2.0

    def test_even_rotation_value(self):
        theta = 0.9
        z = CenterElement(Signature(2, 0), 8.0 * (1.0 + math.cos(theta)))
        (root,) = central_sqrt_candidates(z)
        assert abs(root.scalar_part - 2.0 * math.sqrt(2.0 + 2.0 * math.cos(theta))) < 1e-12

    def test_even_negative_rejected(self):
        with pytest.raises(NoRealRootError):
            central_sqrt_candidates(CenterElement(Signature(2, 0), -1.0))

    def test_complex_center(self):
        # (2 + i)^2 = 3 + 4i with the pseudoscalar playing i
        sig = Signature(3, 0)
        assert pseudoscalar_square(sig) == -1.0
        (root,) = central_sqrt_candidates(CenterElement(sig, 3.0, 4.0))
        assert abs(root.scalar_part - 2.0) < 1e-15
        assert abs(root.pseudo_part - 1.0) < 1e-15

    def test_double_number_center(self):
        sig = Signature(2, 1)
        assert pseudoscalar_square(sig) == 1.0
        z = CenterElement(sig, 5.0, 3.0)
        roots = central_sqrt_candidates(z)
        assert len(roots) == 2
        for root in roots:
            square = geometric_product(root.embed(), root.embed())
            assert max_diff(square, z.embed()) < 1e-12

    def test_double_number_negative_eigenvalue_rejected(self):
        with pytest.raises(NoRealRootError):
            central_sqrt_candidates(CenterElement(Signature(2, 1), 1.0, 2.0))


class TestRecoverSpin:
    def test_identity(self):
        sig = Signature(2, 0)
        result = recover_spin(validate_pseudo_orthogonal(np.eye(2), sig))
        assert result.spin.terms() == {0: 1.0}
        assert result.norm_sign == 1
        assert result.residual <= 1e-12

    def test_quarter_turn_matches_exponential(self):
        # oracle: exp(-(theta/2) e12) for theta = pi/2
        sig = Signature(2, 0)
        oracle = exp_series(mv(sig, {(1, 2): -math.pi / 4.0}))
        matrix = validate_pseudo_orthogonal(rotation2(math.pi / 2.0), sig)
        result = recover_spin(matrix)
        assert max_diff(result.spin, canonicalize_sign(oracle)) <= 1e-12
        root_half = math.sqrt(0.5)
        assert abs(result.spin[0] - root_half) <= 1e-12
        assert abs(result.spin[0b11] + root_half) <= 1e-12

    def test_minus_identity_is_degenerate(self):
        with pytest.raises(CenterProjectionVanishesError):
            recover_spin(validate_pseudo_orthogonal(-np.eye(2), Signature(2, 0)))

    def test_even_negative_norm_component(self):
        # Spin(1,1) outside Spin+: S = sinh(t) + cosh(t) e12
        sig = Signature(1, 1)
        t = 0.6
        s = canonicalize_sign(mv(sig, {(): math.sinh(t), (1, 2): math.cosh(t)}))
        matrix = forward_matrix(s)
        result = recover_spin(matrix)
        assert result.norm_sign == -1
        assert max_diff(result.spin, s) <= 1e-12
        assert result.groups.in_spin and not result.groups.in_spin_plus

    def test_dimension_one_reflections(self):
        plus = recover_spin(validate_pseudo_orthogonal([[-1.0]], Signature(1, 0)))
        assert plus.spin.terms() == {1: 1.0}
        assert plus.norm_sign == 1
        minus = recover_spin(validate_pseudo_orthogonal([[-1.0]], Signature(0, 1)))
        assert minus.spin.terms() == {1: 1.0}
        assert minus.norm_sign == -1

    def test_verification_catches_sloppy_input(self):
        # accepted only because of the huge tolerance; recovery must refuse
        sig = Signature(2, 0)
        wonky = rotation2(0.3) + np.array([[0.0, 1e-3], [0.0, 0.0]])
        matrix = validate_pseudo_orthogonal(wonky, sig, tol=0.1)
        with pytest.raises(VerificationFailedError):
            recover_spin(matrix)

    def test_nan_tolerance_fails_closed(self):
        sig = Signature(1, 3)
        matrix = forward_matrix(random_versor(sig, 2, seed=3))
        for recover in (recover_spin, recover_hestenes):
            assert recover(matrix).residual <= 1e-8
            with pytest.raises(VerificationFailedError):
                recover(matrix, residual_tol=math.nan)

    def test_infinite_tolerance_fails_closed(self):
        sig = Signature(1, 3)
        matrix = forward_matrix(random_versor(sig, 2, seed=3))
        for recover in (recover_spin, recover_hestenes):
            with pytest.raises(VerificationFailedError):
                recover(matrix, residual_tol=math.inf)

    @pytest.mark.parametrize("degeneracy_tol", [math.nan, math.inf])
    def test_non_finite_degeneracy_tolerance_rejects(self, degeneracy_tol):
        sig = Signature(2, 0)
        for entries in (-np.eye(2), rotation2(0.3)):
            matrix = validate_pseudo_orthogonal(entries, sig)
            with pytest.raises(CenterProjectionVanishesError):
                recover_spin(matrix, degeneracy_tol=degeneracy_tol)

    def test_odd_versor_without_central_part_at_large_entries(self):
        # three reflections in n = 5 have grades 1 and 3 only, so no central
        # part; the numerator is cancellation noise that grows with the
        # entries (here about 1e-3), so the gate scales with them
        matrix = forward_matrix(random_versor(Signature(2, 3), 3, seed=19639))
        assert np.max(np.abs(matrix.entries)) >= 1e4
        with pytest.raises(CenterProjectionVanishesError):
            recover_spin(matrix)

    def test_reverse_and_conjugate_gram_coincide(self):
        # for an even numerator the two candidate normalization products match
        for sig in (Signature(3, 0), Signature(0, 3), Signature(2, 1)):
            matrix = forward_matrix(random_versor(sig, 3, seed=17 + sig.p))
            numerator = spin_numerator(matrix)
            via_reverse = geometric_product(involution(numerator, "reverse"), numerator)
            via_conjugate = geometric_product(involution(numerator, "conjugate"), numerator)
            assert max_diff(via_reverse, via_conjugate) <= 1e-9 * max(1.0, via_reverse.max_abs())


class TestRoundTrips:
    @pytest.mark.parametrize("sig", signatures_up_to(6))
    def test_matrix_rotor_matrix(self, sig):
        for i in range(6):
            k = versor_ks(sig.n)[i % len(versor_ks(sig.n))]
            s = random_versor(sig, k, seed=4000 + 31 * i + sig.p)
            matrix = forward_matrix(s)
            try:
                result = recover_spin(matrix)
            except CenterProjectionVanishesError:
                continue
            back = forward_matrix(result.spin)
            scale = max(1.0, float(np.max(np.abs(matrix.entries))))
            assert np.max(np.abs(back.entries - matrix.entries)) <= 1e-8 * scale

    @pytest.mark.parametrize("sig", signatures_up_to(6))
    def test_rotor_matrix_rotor(self, sig):
        for i in range(6):
            k = versor_ks(sig.n)[i % len(versor_ks(sig.n))]
            s = random_versor(sig, k, seed=5000 + 37 * i + sig.q)
            try:
                result = recover_spin(forward_matrix(s))
            except CenterProjectionVanishesError:
                continue
            scale = max(1.0, s.max_abs())
            assert max_diff(canonicalize_sign(s), result.spin) <= 1e-8 * scale

    def test_thirteen_dimensions(self):
        # 8192 coefficients per element, 4^13 multiply-adds per product
        sig = Signature(7, 6)
        s = random_versor(sig, 4, seed=1)
        result = recover_spin(forward_matrix(s))
        assert max_diff(canonicalize_sign(s), result.spin) <= 1e-8 * max(1.0, s.max_abs())

    def test_two_sheets_share_one_matrix(self):
        sig = Signature(1, 2)
        s = random_versor(sig, 2, seed=8)
        assert np.array_equal(forward_matrix(s).entries, forward_matrix(-s).entries)

    @pytest.mark.parametrize("sig", signatures_up_to(6))
    def test_parity_matches_determinant(self, sig):
        for k in versor_ks(sig.n):
            s = random_versor(sig, k, seed=600 + k)
            matrix = forward_matrix(s)
            try:
                result = recover_spin(matrix)
            except CenterProjectionVanishesError:
                continue
            even = result.spin.odd_part().max_abs() <= 1e-9 * max(1.0, result.spin.max_abs())
            assert even == (matrix.det_sign == 1)


class TestDimensionThree:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_axis_angle_closed_form(self, seed):
        # matrix built independently via the axis-angle formula; the recovered
        # rotor must match cos(t/2) - sin(t/2) B on the rotation plane
        sig = Signature(3, 0)
        rng = np.random.default_rng(seed)
        axis = rng.standard_normal(3)
        angle = rng.uniform(0.2, 2.9)
        matrix = validate_pseudo_orthogonal(rodrigues_rows(axis, angle), sig)
        result = recover_spin(matrix)
        plane = rotation_plane_bivector(sig, axis)
        expected = (
            Multivector.scalar(sig, math.cos(angle / 2.0)) - plane * math.sin(angle / 2.0)
        )
        assert max_diff(result.spin, canonicalize_sign(expected)) <= 1e-9
        oracle = exp_series(plane * (-angle / 2.0))
        assert max_diff(canonicalize_sign(oracle), result.spin) <= 1e-9

    @pytest.mark.parametrize("seed", [4, 5])
    def test_numerator_reduces_to_vector_sum(self, seed):
        # in three dimensions the full sum collapses to 2(e + sum_a beta_a e^a)
        sig = Signature(3, 0)
        rng = np.random.default_rng(seed)
        matrix = validate_pseudo_orthogonal(
            rodrigues_rows(rng.standard_normal(3), rng.uniform(0.1, 3.0)), sig
        )
        numerator = spin_numerator(matrix)
        reduced = Multivector.scalar(sig, 1.0)
        for a in (1, 2, 3):
            reduced = reduced + geometric_product(
                frame_vector(matrix, a), Multivector.basis_vector(sig, a)
            )
        assert max_diff(numerator, reduced * 2.0) <= 1e-10


class TestHestenes:
    def boost_oracle(self, phi=1.0):
        sig = Signature(1, 3)
        return exp_series(mv(sig, {(1, 2): phi / 2.0}))

    def test_identity(self):
        matrix = validate_pseudo_orthogonal(np.eye(4), Signature(1, 3))
        result = recover_hestenes(matrix)
        assert result.spin.terms() == {0: 1.0}

    def test_boost_matches_exponential(self):
        oracle = self.boost_oracle(1.0)
        matrix = forward_matrix(oracle)
        result = recover_hestenes(matrix)
        expected = mv(Signature(1, 3), {(): math.cosh(0.5), (1, 2): math.sinh(0.5)})
        assert max_diff(result.spin, canonicalize_sign(expected)) <= 1e-9
        assert max_diff(result.spin, canonicalize_sign(oracle)) <= 1e-9

    def test_agrees_with_general_path(self):
        sig = Signature(1, 3)
        count = 0
        seed = 0
        while count < 30:
            seed += 1
            s = random_versor(sig, (0, 2, 4)[seed % 3], seed=seed)
            if not classify_spin(s).in_spin_plus:
                continue
            matrix = forward_matrix(s)
            try:
                general = recover_spin(matrix)
                shortcut = recover_hestenes(matrix)
            except (CenterProjectionVanishesError, HestenesConditionError):
                continue
            count += 1
            scale = max(1.0, general.spin.max_abs())
            assert max_diff(general.spin, shortcut.spin) <= 1e-8 * scale

    def test_pure_bivector_rotor_has_no_contraction(self):
        # S = e34 is a rotor whose scalar and pseudoscalar parts both vanish
        sig = Signature(1, 3)
        s = mv(sig, {(3, 4): 1.0})
        assert classify_spin(s).in_spin_plus
        matrix = forward_matrix(s)
        assert np.allclose(matrix.entries, np.diag([1.0, 1.0, -1.0, -1.0]))
        with pytest.raises(HestenesConditionError):
            recover_hestenes(matrix)

    def test_works_where_general_path_degenerates(self):
        # scalar part zero but pseudoscalar part not: only the shortcut applies
        sig = Signature(1, 3)
        phi = 0.7
        s = geometric_product(self.boost_oracle(phi), mv(sig, {(3, 4): 1.0}))
        assert abs(s[0]) < 1e-12
        matrix = forward_matrix(s)
        with pytest.raises(CenterProjectionVanishesError):
            recover_spin(matrix)
        result = recover_hestenes(matrix)
        assert max_diff(result.spin, canonicalize_sign(s)) <= 1e-9

    def test_wrong_signature(self):
        with pytest.raises(SignatureMismatchError):
            recover_hestenes(validate_pseudo_orthogonal(np.eye(4), Signature(2, 2)))

    def test_wrong_component(self):
        matrix = validate_pseudo_orthogonal(np.diag([-1.0, -1, 1, 1]), Signature(1, 3))
        assert not classify_component(matrix).in_so_plus
        with pytest.raises(WrongComponentError):
            recover_hestenes(matrix)


class TestRotorFromFrames:
    def test_identity_frame(self):
        sig = Signature(3, 0)
        frames = [Multivector.basis_vector(sig, a) for a in (1, 2, 3)]
        result = rotor_from_frames(frames)
        assert result.spin.terms() == {0: 1.0}
        assert result.norm_sign == 1

    def test_quarter_turn_frame(self):
        sig = Signature(3, 0)
        rows = rodrigues_rows([0.0, 0.0, 1.0], math.pi / 2.0)
        frames = [Multivector.from_vector(sig, rows[a]) for a in range(3)]
        result = rotor_from_frames(frames)
        root_half = math.sqrt(0.5)
        expected = mv(sig, {(): root_half, (1, 2): -root_half})
        assert max_diff(result.spin, expected) <= 1e-12

    def test_frames_verify_against_rotor(self):
        sig = Signature(2, 1)
        seed = 0
        while True:
            seed += 1
            s = random_versor(sig, 2, seed=seed)
            if classify_spin(s).in_spin_plus:
                break
        matrix = forward_matrix(s)
        frames = [frame_vector(matrix, a) for a in (1, 2, 3)]
        result = rotor_from_frames(frames)
        inverse = involution(result.spin, "reverse")
        for a, frame in enumerate(frames, start=1):
            image = geometric_product(
                geometric_product(result.spin, Multivector.basis_vector(sig, a)), inverse
            )
            assert max_diff(image, frame) <= 1e-9 * max(1.0, frame.max_abs())

    def test_non_anticommuting_vectors_rejected(self):
        sig = Signature(2, 0)
        frames = [
            Multivector.basis_vector(sig, 1),
            Multivector.basis_vector(sig, 1) + Multivector.basis_vector(sig, 2),
        ]
        with pytest.raises(NotAFrameError):
            rotor_from_frames(frames)

    def test_frames_with_higher_grades_rejected(self):
        sig = Signature(2, 0)
        frames = [
            Multivector.basis_vector(sig, 1) + mv(sig, {(1, 2): 0.5}),
            Multivector.basis_vector(sig, 2),
        ]
        with pytest.raises(NotAFrameError):
            rotor_from_frames(frames)

    def test_wrong_frame_count_rejected(self):
        sig = Signature(3, 0)
        with pytest.raises(NotAFrameError):
            rotor_from_frames([Multivector.basis_vector(sig, 1)])

    def test_reflected_frame_rejected(self):
        sig = Signature(2, 0)
        frames = [-Multivector.basis_vector(sig, 1), Multivector.basis_vector(sig, 2)]
        with pytest.raises(WrongComponentError):
            rotor_from_frames(frames)


class TestForwardMatrix:
    def test_identity_element(self):
        sig = Signature(2, 1)
        matrix = forward_matrix(Multivector.scalar(sig, 1.0))
        assert np.array_equal(matrix.entries, np.eye(3))

    def test_plane_rotor_gives_minus_identity(self):
        sig = Signature(2, 0)
        matrix = forward_matrix(mv(sig, {(1, 2): 1.0}))
        assert np.allclose(matrix.entries, -np.eye(2))

    def test_reflection_vector(self):
        sig = Signature(3, 0)
        matrix = forward_matrix(Multivector.basis_vector(sig, 1))
        assert np.allclose(matrix.entries, np.diag([-1.0, 1.0, 1.0]))

    def test_unnormalized_versor_rejected(self):
        with pytest.raises(NotInPinError):
            forward_matrix(Multivector.scalar(Signature(2, 0), 2.0))

    def test_mixed_parity_rejected(self):
        sig = Signature(2, 0)
        with pytest.raises(MixedParityError):
            forward_matrix(mv(sig, {(): 1.0, (1,): 1.0}))

    def test_entries_are_byte_identical_under_another_blas_kernel(self):
        assert_same_digest_under_another_blas_kernel(
            "for p, q in ((5, 4), (6, 5), (10, 1)):\n"
            "    for k in range(6):\n"
            "        digest.update(forward_matrix(random_versor(Signature(p, q), k, seed=k)).entries.tobytes())\n"
        )


class TestClassifySpin:
    def test_identity_has_all_tags(self):
        tags = classify_spin(Multivector.scalar(Signature(2, 2), 1.0))
        assert tags.group_names() == ["Pin", "Pin+", "Pin-", "Spin", "Spin+"]

    def test_euclidean_reflection(self):
        tags = classify_spin(Multivector.basis_vector(Signature(3, 0), 1))
        assert tags.in_pin and tags.in_pin_minus
        assert not tags.in_pin_plus and not tags.in_spin

    def test_plane_rotor_in_compact_signature(self):
        # reverse(e12) e12 = e21 e12 = +1, so e12 is a rotor here
        sig = Signature(2, 0)
        e12 = mv(sig, {(1, 2): 1.0})
        sigma = geometric_product(involution(e12, "reverse"), e12)
        assert sigma.terms() == {0: 1.0}
        tags = classify_spin(e12)
        assert tags.in_spin and tags.in_spin_plus and tags.in_pin_minus

    def test_plane_rotor_in_lorentz_plane(self):
        # in Cl(1,1) the same blade squares to +1 and reverse(S) S = -1
        sig = Signature(1, 1)
        e12 = mv(sig, {(1, 2): 1.0})
        sigma = geometric_product(involution(e12, "reverse"), e12)
        assert sigma.terms() == {0: -1.0}
        tags = classify_spin(e12)
        assert tags.in_spin and not tags.in_spin_plus
        assert not tags.in_pin_minus and not tags.in_pin_plus

    @pytest.mark.parametrize("p, q", [(1, 3), (2, 3), (3, 3)])
    def test_exact_strong_boost_rotors_are_spin_plus(self, p, q):
        # S = cosh(r/2) + sinh(r/2) e1 e_{p+1}: the untouched rows carry roundoff
        # of about eps |S|^2 = eps cosh r, above 1e-8 at their own scale of 1 from
        # r = 20 on, and reverse(S) S misses 1 by as much
        sig = Signature(p, q)
        for rapidity in np.arange(0.0, 30.5, 0.5):
            s = mv(sig, {(): math.cosh(rapidity / 2.0), (1, p + 1): math.sinh(rapidity / 2.0)})
            assert classify_spin(s).in_spin_plus, rapidity
            assert classify_spin(2.0 * s).group_names() == [], rapidity

    def test_scaled_scalar_is_not_pin(self):
        tags = classify_spin(Multivector.scalar(Signature(2, 0), 2.0))
        assert not tags.in_pin and not tags.in_spin

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_element_rejected(self, value):
        sig = Signature(2, 0)
        with pytest.raises(ValueError, match="non-finite"):
            classify_spin(mv(sig, {(): value}))
        with pytest.raises(ValueError, match="non-finite"):
            forward_matrix(mv(sig, {(): 1.0, (1, 2): value}))

    def test_non_versor_rejected(self):
        sig = Signature(4, 0)
        with pytest.raises(MixedParityError):
            classify_spin(mv(sig, {(): 1.0, (1,): 1.0}))
        with pytest.raises(NotInLipschitzGroupError):
            classify_spin(mv(sig, {(): 1.0, (1, 2, 3, 4): 1.0}))

    @pytest.mark.parametrize("sig", signatures_up_to(5))
    def test_covering_map_component_table(self, sig):
        for i, k in enumerate(versor_ks(sig.n) + versor_ks(sig.n)):
            s = random_versor(sig, k, seed=7000 + 13 * i + sig.p)
            tags = classify_spin(s)
            component = classify_component(forward_matrix(s))
            assert tags.in_pin
            assert tags.in_spin == component.in_so
            assert tags.in_pin_plus == component.in_o_plus
            assert tags.in_pin_minus == component.in_o_minus
            assert tags.in_spin_plus == component.in_so_plus


class TestRandomVersor:
    def test_zero_reflections_is_identity(self):
        s = random_versor(Signature(2, 1), 0, seed=1)
        assert s.terms() == {0: 1.0}

    def test_single_euclidean_reflection_is_unit_vector(self):
        s = random_versor(Signature(3, 0), 1, seed=2)
        assert s.grades_present() == {1}
        square = geometric_product(s, s)
        assert max_diff(square, Multivector.scalar(Signature(3, 0), 1.0)) <= 1e-12

    def test_deterministic_for_fixed_seed(self):
        a = random_versor(Signature(2, 3), 4, seed=99)
        b = random_versor(Signature(2, 3), 4, seed=99)
        assert np.array_equal(a.coeffs, b.coeffs)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_gram_is_unit_scalar(self, k):
        sig = Signature(2, 2)
        s = random_versor(sig, k, seed=10 + k)
        gram = geometric_product(involution(s, "reverse"), s)
        assert abs(abs(gram.scalar_part) - 1.0) <= 1e-10
        off = gram - Multivector.scalar(sig, gram.scalar_part)
        assert off.max_abs() <= 1e-9 * max(1.0, s.max_abs()) ** 2

    def test_parity_tracks_reflection_count(self):
        sig = Signature(1, 2)
        for k in range(5):
            s = random_versor(sig, k, seed=123 + k)
            grades = s.grades_present(tol=1e-12)
            assert all(g % 2 == k % 2 for g in grades)


class TestResidualDefinition:
    def test_exact_rotor_has_tiny_residual(self):
        sig = Signature(2, 0)
        s = canonicalize_sign(exp_series(mv(sig, {(1, 2): 0.3})))
        matrix = forward_matrix(s)
        assert twisted_adjoint_residual(s, matrix) <= 1e-14

    def test_wrong_rotor_has_large_residual(self):
        sig = Signature(2, 0)
        s = canonicalize_sign(exp_series(mv(sig, {(1, 2): 0.3})))
        other = canonicalize_sign(exp_series(mv(sig, {(1, 2): 0.9})))
        assert twisted_adjoint_residual(other, forward_matrix(s)) > 0.1

    def test_nan_element_has_infinite_residual(self):
        sig = Signature(2, 0)
        identity = validate_pseudo_orthogonal(np.eye(2), sig)
        for terms in ({(): math.nan}, {(): 1.0, (1, 2): math.nan}):
            assert twisted_adjoint_residual(mv(sig, terms), identity) == math.inf


class TestTwistedAction:
    """The action of S is formed once per element and read by every consumer."""

    @staticmethod
    def count_products(monkeypatch):
        real = rotorlift.recovery._product_arrays
        calls = []

        def counting(t, u, v):
            calls.append(1)
            return real(t, u, v)

        monkeypatch.setattr(rotorlift.recovery, "_product_arrays", counting)
        return calls

    def test_forward_and_recovery_share_one_action(self, monkeypatch):
        calls = self.count_products(monkeypatch)
        sig = Signature(3, 3)
        matrix = forward_matrix(random_versor(sig, 2, seed=1))
        # the commutation-defect certificate settles the gram and the rows; the
        # entries are the grade-1 block
        assert len(calls) == 0
        calls.clear()
        result = recover_spin(matrix)
        # reverse(N) N, then the gram of the single candidate and one probe,
        # which also classify it; the CSD fallback runs only above a residual of 1e-11
        assert result.residual <= 1e-11
        assert len(calls) <= 3

    def test_two_central_roots_probe_only_the_winner(self, monkeypatch):
        sig = Signature(3, 2)
        matrix = forward_matrix(random_versor(sig, 2, seed=1))
        real = rotorlift.recovery._twisted_action
        actions = []

        def counting(*args):
            actions.append(1)
            return real(*args)

        monkeypatch.setattr(rotorlift.recovery, "_twisted_action", counting)
        calls = self.count_products(monkeypatch)
        result = recover_spin(matrix)
        assert len(actions) == 2  # w^2 = +1 in Cl(3,2): one action per central root
        assert result.residual <= 1e-11
        # reverse(N) N, one gram per root, one probe of the winner
        assert len(calls) <= 4

    def test_fallback_input_makes_four_products(self, monkeypatch):
        matrix, _ = boost_turn(Signature(3, 3), 9.0, 1.0)
        calls = self.count_products(monkeypatch)
        result = recover_spin(matrix)
        assert result.residual <= 1e-11
        # reverse(N) N and the candidate's gram; its block defect calls for the
        # CSD fallback, whose lift costs the gram and one probe, which also
        # classify it (the Newton polish this replaced made 17)
        assert len(calls) == 4

    @pytest.mark.parametrize("sig", signatures_up_to(7) + [Signature(5, 4), Signature(6, 5), Signature(10, 1)])
    def test_block_matches_full_rows(self, sig):
        t = rotorlift.recovery._get_tables(sig)
        for k in range(5):
            s = random_versor(sig, k, seed=100 + k)
            action = rotorlift.recovery._twisted_action(t, s.coeffs)
            block = action.block  # read before the rows exist
            rows = action.form_rows()
            after = rotorlift.recovery._twisted_action(t, s.coeffs)
            after.form_rows()
            # the same bytes whether the rows exist or not: the block is never sliced from them
            assert after.block.tobytes() == block.tobytes(), k
            bound = block_rounding(t, s.coeffs, action.lam)
            assert np.max(np.abs(block - rows[:, t.grades == 1])) <= bound, k
            if sig.n > 9 and k < 4:
                continue  # the blade-by-blade sum takes about 0.3 s an element at n = 11
            # the blade-by-blade sum reads lambda, S^-1 and each entry by its own 2^n-term
            # sums, so each side is within gamma_{2^n + 1} K (1 + |M|) of the exact block
            # to first order, K = |S|^2 / |lambda| (lambda is read within gamma_{2^n} K of itself)
            expected = reference.action_block(s)
            scale = rotorlift.recovery._norm(t, s.coeffs) ** 2 / abs(action.lam)
            slack = 2.0 * gamma(t.size + 1) * scale * (1.0 + np.abs(expected)) * 1.01  # 1.01: second order
            assert np.all(np.abs(block - expected) <= slack), k

    def test_small_off_vector_part_is_read_from_full_rows(self):
        # S = cos(u) + sin(u) e123456 has S e_a S^-1 = e_a (cos 2u - sin 2u e123456):
        # its grade-1 block misses the identity by 2u^2, below the fallback
        # threshold, so only the probe sees the off-vector part sin 2u
        sig = Signature(6, 0)
        u = 1e-6
        s = mv(sig, {(): math.cos(u), (1, 2, 3, 4, 5, 6): math.sin(u)})
        identity = validate_pseudo_orthogonal(np.eye(6), sig)
        assert twisted_adjoint_residual(s, identity) == pytest.approx(math.sin(2.0 * u), rel=1e-9)
        with pytest.raises(NotInLipschitzGroupError, match="leaves the grade-1 subspace"):
            classify_spin(s)

    def test_tolerance_below_the_probe_floor_checks_full_rows(self):
        # the same element at u = 1e-13: the probe passes it, but the rows
        # leave grade 1 by 2e-13, more than a tolerance of 1e-14 allows
        sig = Signature(6, 0)
        u = 1e-13
        s = mv(sig, {(): math.cos(u), (1, 2, 3, 4, 5, 6): math.sin(u)})
        assert classify_spin(s).in_spin
        with pytest.raises(NotInLipschitzGroupError, match="leaves the grade-1 subspace"):
            classify_spin(s, tol=1e-14)

    def test_strong_boost_with_small_rows_leaving_grade_one(self):
        # S = B T in Cl(7,1): B boosts (e7, e8) at rapidity 12, so rows 7 and 8
        # peak at cosh 12 = 8.1e4, and T = cos u + sin u e123456 sends rows 1-6
        # to e_a (cos 2u - sin 2u e123456): 1e-7 off grade 1 at their own scale
        # of 1, which a probe judged at the largest row's scale would pass
        sig = Signature(7, 1)
        u = 5e-8
        boost = mv(sig, {(): math.cosh(6.0), (7, 8): math.sinh(6.0)})
        s = boost * mv(sig, {(): math.cos(u), (1, 2, 3, 4, 5, 6): math.sin(u)})
        with pytest.raises(NotInLipschitzGroupError, match="generator 1 leaves the grade-1 subspace"):
            classify_spin(s)

    def test_unit_gram_with_action_leaving_grade_one(self):
        # reverse(S) S = 1, but S e_a S^-1 = -e_a e123456 has grade 5
        sig = Signature(6, 0)
        s = mv(sig, {(): 1.0 / math.sqrt(2.0), (1, 2, 3, 4, 5, 6): 1.0 / math.sqrt(2.0)})
        with pytest.raises(NotInLipschitzGroupError, match="leaves the grade-1 subspace"):
            classify_spin(s)
        with pytest.raises(NotInLipschitzGroupError, match="leaves the grade-1 subspace"):
            forward_matrix(s)
        identity = validate_pseudo_orthogonal(np.eye(6), sig)
        assert twisted_adjoint_residual(s, identity) == 1.0

    def test_non_scalar_gram_has_infinite_residual(self):
        # reverse(S) S = 2 + 2 e1234 is not a scalar, so S^-1 is never formed
        sig = Signature(6, 0)
        s = mv(sig, {(): 1.0, (1, 2, 3, 4): 1.0})
        identity = validate_pseudo_orthogonal(np.eye(6), sig)
        assert twisted_adjoint_residual(s, identity) == math.inf


class TestCommutationCertificate:
    """Bounds on reverse(S) S and on the rows from the defects D = V - P U, E = U - Q V."""

    @staticmethod
    def action(sig, s, block):
        t = rotorlift.recovery._get_tables(sig)
        action = rotorlift.recovery._Action(t, s.coeffs, rotorlift.recovery._gram_scalar(t, s.coeffs))
        action._block = block
        return action

    @staticmethod
    def hat(x):
        return involution(x, "grade")

    @staticmethod
    def rev(x):
        return involution(x, "reverse")

    @staticmethod
    def elements(sig):
        """Random non-versors with random blocks, and 1 + e_n / 2 with the identity block.

        For the latter only D_n is nonzero, and rows a < n leave grade 1 through
        H = S reverse(S) = 1 + e_n^2 / 4 + e_n alone.
        """
        rng = np.random.default_rng(sig.n)
        for _ in range(3):
            yield random_multivector(sig, rng), rng.standard_normal((sig.n, sig.n))
        yield mv(sig, {(): 1.0, (sig.n,): 0.5}), np.eye(sig.n)

    @pytest.mark.parametrize("sig", signatures_up_to(7))
    def test_scalar_equals_the_dense_gram_bit_for_bit(self, sig):
        t = rotorlift.recovery._get_tables(sig)
        rng = np.random.default_rng(sig.n)
        for s in [random_versor(sig, k, seed=300 + k) for k in range(5)] + [random_multivector(sig, rng)]:
            assert rotorlift.recovery._gram_scalar(t, s.coeffs) == rotorlift.recovery._gram(t, s.coeffs)[0]

    @pytest.mark.parametrize("sig", [sig for sig in signatures_up_to(7) if sig.n >= 2])
    def test_identities_hold_for_any_element_and_block(self, sig):
        for s, block in self.elements(sig):
            d, e = self.action(sig, s, block).defects()
            g = geometric_product(self.rev(s), s)
            h = geometric_product(s, self.rev(s))
            scale = s.norm() ** 2 * (1.0 + np.sum(np.abs(block)))
            for a in range(sig.n):
                e_a = Multivector.basis_vector(sig, a + 1)
                d_a, e_a_defect = Multivector(sig, d[a]), Multivector(sig, e[a])
                left = self.hat(g) * e_a - e_a * g
                right = self.hat(self.rev(s)) * d_a + self.hat(self.rev(d_a)) * s
                assert max_diff(left, right) <= 1e-13 * scale
                left = self.hat(h) * e_a - e_a * h
                right = -(self.hat(s) * self.hat(self.rev(e_a_defect))) - e_a_defect * self.rev(s)
                assert max_diff(left, right) <= 1e-13 * scale
                # every blade containing e_a is bounded by this row's defect
                containing = (np.arange(1 << sig.n) >> a) & 1 == 1
                norm = s.norm()
                assert np.all(np.abs(g.coeffs[containing]) <= np.linalg.norm(d[a]) * norm * (1 + 1e-12))
                assert np.all(np.abs(h.coeffs[containing]) <= np.linalg.norm(e[a]) * norm * (1 + 1e-12))

    @pytest.mark.parametrize("sig", [sig for sig in signatures_up_to(7) if sig.n >= 2])
    def test_certificate_bounds_the_gram_and_the_rows(self, sig):
        vector_slots = rotorlift.recovery._get_tables(sig).grades == 1
        for s, block in self.elements(sig):
            bound, row_bounds = self.action(sig, s, block).certificate()
            g = geometric_product(self.rev(s), s)
            assert np.max(np.abs(g.coeffs[1:])) <= bound
            for a in range(sig.n):
                e_a = Multivector.basis_vector(sig, a + 1)
                row = geometric_product(self.hat(s) * e_a, self.rev(s)).coeffs / g.scalar_part
                assert np.max(np.abs(row[~vector_slots])) <= row_bounds[a], a

    @pytest.mark.parametrize("sig", signatures_up_to(10)[::3])
    def test_central_parts_equal_the_dense_product_bit_for_bit(self, sig):
        t = rotorlift.recovery._get_tables(sig)
        rng = np.random.default_rng(sig.n)
        for u, v in [(random_versor(sig, 4, seed=7).coeffs, None)] + [
                (random_multivector(sig, rng, 30.0).coeffs, random_multivector(sig, rng).coeffs)]:
            v = u if v is None else v
            full = rotorlift.recovery._product_arrays(t, u * t.reverse_signs, v)
            assert rotorlift.recovery._central_parts(t, u * t.reverse_signs, v) == (full[0], full[-1])

    def test_settles_versors_without_a_dense_product(self, monkeypatch):
        calls = TestTwistedAction.count_products(monkeypatch)
        for sig in signatures_up_to(6):
            for k in range(5):
                forward_matrix(random_versor(sig, k, seed=200 + k))
                assert not calls, (sig, k)

    @staticmethod
    def undecided(name):
        """Elements whose checks the certificate leaves to the dense gram, the probe and the rows."""
        six = Signature(6, 0)
        if name == "small rotation off grade 1":
            return mv(six, {(): math.cos(1e-6), (1, 2, 3, 4, 5, 6): math.sin(1e-6)}), 1e-8
        if name == "tolerance below the probe floor":
            return mv(six, {(): math.cos(1e-13), (1, 2, 3, 4, 5, 6): math.sin(1e-13)}), 1e-14
        if name == "strong boost with small rows off grade 1":
            sig = Signature(7, 1)
            boost = mv(sig, {(): math.cosh(6.0), (7, 8): math.sinh(6.0)})
            return boost * mv(sig, {(): math.cos(5e-8), (1, 2, 3, 4, 5, 6): math.sin(5e-8)}), 1e-8
        if name == "unit gram":
            return mv(six, {(): 2.0 ** -0.5, (1, 2, 3, 4, 5, 6): 2.0 ** -0.5}), 1e-8
        return mv(six, {(): 1.0, (1, 2, 3, 4): 1.0}), 1e-8

    @pytest.mark.parametrize("name, message", [
        ("small rotation off grade 1", "generator 1 leaves the grade-1 subspace"),
        ("tolerance below the probe floor", "generator 1 leaves the grade-1 subspace"),
        ("strong boost with small rows off grade 1", "generator 1 leaves the grade-1 subspace"),
        ("unit gram", "generator 1 leaves the grade-1 subspace"),
        ("non-scalar gram", "not a real scalar"),
    ])
    def test_undecided_elements_keep_their_errors(self, name, message):
        s, tol = self.undecided(name)
        t = rotorlift.recovery._get_tables(s.sig)
        action = rotorlift.recovery._Action(t, s.coeffs, rotorlift.recovery._gram_scalar(t, s.coeffs))
        bound, row_bounds = action.certificate()
        settled = (bound <= tol * max(1.0, abs(action.lam), s.max_abs() ** 2)
                   and np.all(row_bounds <= tol * np.maximum(1.0, np.max(np.abs(action.block), axis=1))))
        assert not settled
        with pytest.raises(NotInLipschitzGroupError, match=message):
            classify_spin(s, tol=tol)


class TestLiftRoute:
    """recover_spin from n0 = _LIFT_ROUTE_DIMENSION on: the candidate verified by its distance to the lift."""

    N0 = rotorlift.recovery._LIFT_ROUTE_DIMENSION

    @staticmethod
    def dense_path(monkeypatch):
        monkeypatch.setattr(rotorlift.recovery, "_LIFT_ROUTE_DIMENSION", rotorlift.recovery.MAX_DIMENSION + 1)

    # (p, q, seed) whose candidate's bound is above 1e-11 (1.6e-11, 9.8e-11, 6.1e-11 and
    # 2.9e-11, against dense readings of 2.8e-12, 8.0e-12, 1.7e-11 and 6.4e-12): the dense
    # route decides there
    UNSETTLED = {(5, 4, 3), (5, 5, 2), (6, 5, 2), (6, 5, 3)}

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("p, q", [(5, 4), (8, 1), (5, 5), (9, 1), (6, 5), (10, 1)])
    def test_lift_makes_no_dense_product(self, monkeypatch, p, q, seed):
        # balanced signatures included, where a commutation-defect certificate
        # made up to 13 dense products (Cl(6,5) seed 2)
        sig = Signature(p, q)
        assert sig.n >= self.N0
        matrix = forward_matrix(random_versor(sig, 4, seed=seed))
        calls = TestTwistedAction.count_products(monkeypatch)
        result = recover_spin(matrix)
        if (p, q, seed) not in self.UNSETTLED:
            assert result.residual <= 1e-11
            assert len(calls) == 0  # central part, lift, distance, bound and tags: no dense product
            return
        # the dense route, as below n0, on the nearest candidate alone: the distance
        # settles the central gram and every gram, and the probe and rows remain
        route_calls = len(calls)
        calls.clear()
        self.dense_path(monkeypatch)
        dense = recover_spin(matrix)
        assert ((dense.spin.coeffs.tobytes(), dense.residual, dense.groups, dense.norm_sign, dense.warning)
                == (result.spin.coeffs.tobytes(), result.residual, result.groups, result.norm_sign, result.warning))
        assert 1 <= route_calls <= len(calls) - 2

    @pytest.mark.parametrize("sig", [sig for sig in signatures_up_to(9)
                                     if sig.n % 2 == 1 and pseudoscalar_square(sig) > 0])
    def test_second_root_is_the_first_times_the_pseudoscalar(self, sig):
        t = rotorlift.recovery._get_tables(sig)
        for k in range(1, 5):
            s = random_versor(sig, k, seed=900 + k)
            matrix = forward_matrix(s)
            numerator = rotorlift.recovery._numerator_array(matrix)
            if np.max(np.abs(numerator)) < 1e-6:
                continue  # no central part: not liftable
            central = rotorlift.recovery._central_gram(t, numerator, spinor_norm_sign(matrix), 1.0)
            candidates = rotorlift.recovery._candidates(t, numerator, central_sqrt_candidates(central))
            if len(candidates) < 2:
                continue
            (_, first), (_, second) = candidates
            image = rotorlift.recovery._blade_mul_right(t, first, t.full_mask)
            assert np.array_equal(second, image), k  # exactly, up to the sign of zeros
            a1, a2 = (rotorlift.recovery._Action(t, arr, rotorlift.recovery._gram_scalar(t, arr))
                      for arr in (first, second))
            assert np.max(np.abs(a1.block + a2.block)) <= 1e-12 * (1.0 + np.max(np.abs(a1.block)))
            d1, d2 = (rotorlift.recovery._block_defect(a, matrix) for a in (a1, a2))
            # the root nearer the lift is the one whose block is P: S and S I differ in parity
            lift = rotorlift.recovery._csd_lift(t, matrix)
            near1, near2 = (rotorlift.recovery._lift_bound(t, lift, matrix, arr)[0]
                            for arr in (first, second))
            assert (near1 < near2) == (d1 < d2), k
            assert min(d1, d2) < 1e-9 and min(near1, near2) < 1e-9 and max(near1, near2) == math.inf, k

    @pytest.mark.parametrize("sig", [sig for sig in signatures_up_to(7) if sig.n >= 2]
                             + [Signature(5, 4), Signature(8, 1), Signature(5, 5)])
    def test_non_central_bound_holds_for_any_element_and_root(self, sig):
        """reverse(N) N for N = S Z + Delta, Z = alpha + beta I central, against _non_central_peak.

        Random non-versors with random blocks make the (|alpha| + |beta|)^2 g term
        carry the bound; a versor with its own block and a perturbation Delta
        makes the |Delta| term carry it.
        """
        t = rotorlift.recovery._get_tables(sig)
        rng = np.random.default_rng(40 + sig.n)
        versor = random_versor(sig, 2, seed=sig.n)
        lam = rotorlift.recovery._gram_scalar(t, versor.coeffs)
        certificate = TestCommutationCertificate
        cases = [(certificate.action(sig, s, block), 0.0) for s, block in certificate.elements(sig)]
        cases.append((rotorlift.recovery._Action(t, versor.coeffs, lam), 1e-3))
        non_central = ~((t.masks == 0) | ((t.masks == t.full_mask) & (sig.n % 2 == 1)))
        for action, perturbation in cases:
            s = Multivector(sig, action.s)
            for _ in range(3):
                alpha, beta = rng.uniform(2.0, 6.0, 2) * rng.choice([-1.0, 1.0], 2)
                root = CenterElement(sig, alpha, beta if sig.n % 2 else 0.0)
                n_arr = geometric_product(s, root.embed()).coeffs
                n_arr = n_arr + perturbation * random_multivector(sig, rng).coeffs
                g = action.certificate()[0]
                bound = rotorlift.recovery._non_central_peak(t, n_arr, action.s, root, g)
                dense = rotorlift.recovery._product_arrays(t, n_arr * t.reverse_signs, n_arr)
                assert np.max(np.abs(dense[non_central])) <= bound

    @pytest.mark.parametrize("n", range(N0, 12))
    def test_same_answers_as_the_dense_path(self, monkeypatch, n):
        """Spin bytes, tags, norm sign and warning as below n0; the residual is the
        dense one, or a bound within 1e-11 where the distance to the lift settled
        it.  A settled bound is never below the deviation read from the fully
        formed rows; a dense reading reads the block, a different sum of the
        rows' grade-1 terms, so it may be below it by that sum's rounding."""
        matrices = []
        for p in (n, n - 1, n - n // 2):
            sig = Signature(p, n - p)
            matrices += [forward_matrix(random_versor(sig, k, seed=500 + k)) for k in (2, 4)]
        matrices.append(boost_turn(Signature(n - 4, 4), 7.0, 1.0)[0])  # lifted by the CSD fallback
        lifted = [recover_spin(matrix) for matrix in matrices]
        # a tolerance below the lift's bound: the dense rows decide, as below n0
        tight = [self.outcome(matrix, 1e-14) for matrix in matrices]
        self.dense_path(monkeypatch)
        for matrix, result, outcome in zip(matrices, lifted, tight):
            dense = recover_spin(matrix)
            assert result.spin.coeffs.tobytes() == dense.spin.coeffs.tobytes()
            assert (result.groups, result.norm_sign, result.warning) == (dense.groups, dense.norm_sign,
                                                                         dense.warning)
            assert result.residual == dense.residual or dense.residual <= result.residual <= 1e-11
            slack = 0.0
            if result.residual == dense.residual:
                t = rotorlift.recovery._get_tables(matrix.sig)
                lam = rotorlift.recovery._gram_scalar(t, result.spin.coeffs)
                slack = block_rounding(t, result.spin.coeffs, lam) / max(1.0, float(np.max(np.abs(matrix.entries))))
            assert result.residual >= self.rows_residual(result.spin, matrix) - slack
            assert outcome == self.outcome(matrix, 1e-14)

    @staticmethod
    def rows_residual(spin, matrix):
        """max(block defect, peak of the rows off grade 1) over max(1, entry peak), from all n rows."""
        t = rotorlift.recovery._get_tables(spin.sig)
        rows = rotorlift.recovery._twisted_action(t, spin.coeffs).form_rows()
        entries = np.zeros_like(rows)
        entries[:, t.grades == 1] = matrix.entries
        return float(np.max(np.abs(rows - entries))) / max(1.0, float(np.max(np.abs(matrix.entries))))

    @staticmethod
    def outcome(matrix, residual_tol):
        try:
            result = recover_spin(matrix, residual_tol=residual_tol)
        except VerificationFailedError as error:
            return str(error)
        return result.spin.coeffs.tobytes(), result.residual

    @staticmethod
    def numerator(sig, kind):
        t = rotorlift.recovery._get_tables(sig)
        if kind == "even non-versor":
            rng = np.random.default_rng(sig.n)
            arr = np.where(t.grades % 2 == 0, rng.uniform(-1.0, 1.0, t.size), 0.0)
            arr[0] = 3.0
            return arr
        arr = np.zeros(t.size)
        if kind == "slightly non-central":
            # 2^n (1 + 2e-7 e1234): reverse(S) S off the scalar by 4e-7, which
            # admits the candidate, and reverse(N) N by 4e-7 of 4^n, which is not central
            arr[0], arr[0b1111] = 2.0 ** sig.n, 2e-7 * 2.0 ** sig.n
            return arr
        if kind == "small, unusable gram":
            # 1e-3 (1 + 0.02 e1234): reverse(N) N is off the centre by 4e-8, within
            # the check's absolute floor of 1e-7, but reverse(S) S by 0.04, which
            # no candidate passes
            arr[0], arr[0b1111] = 1e-3, 2e-5
            return arr
        arr[1 | 1 << sig.p] = 1.0  # e1 e_{p+1}: reverse(N) N = -1, central
        if kind == "no real root, not central":
            arr[0b1111] = 0.5  # plus e1234
        return arr

    @pytest.mark.parametrize("sig", [Signature(4, 2), Signature(4, 4), Signature(5, 4)])
    @pytest.mark.parametrize("kind, error, message", [
        ("even non-versor", VerificationFailedError, "reverse(N)*N is not central"),
        ("slightly non-central", VerificationFailedError, "reverse(N)*N is not central"),
        ("no real root, not central", VerificationFailedError, "reverse(N)*N is not central"),
        ("no real root", NoRealRootError, "-1"),
    ])
    def test_numerator_outside_the_domain_keeps_its_error(self, monkeypatch, sig, kind, error, message):
        # the dense check on reverse(N)*N runs first below n0; from n0 on the
        # candidate's distance to the lift cannot settle it and falls back to
        # it, also when the central part has no real root
        arr = self.numerator(sig, kind)
        monkeypatch.setattr(rotorlift.recovery, "_numerator_array", lambda matrix: arr.copy())
        real = rotorlift.recovery._central_parts
        reads = []

        def counting(t, u, v):  # reads of reverse(N) N only, not the scalar of a candidate's gram
            if np.array_equal(v, arr):
                reads.append(1)
            return real(t, u, v)

        monkeypatch.setattr(rotorlift.recovery, "_central_parts", counting)
        with pytest.raises(error, match=re.escape(message)) as caught:
            recover_spin(validate_pseudo_orthogonal(np.eye(sig.n), sig))
        assert len(reads) == (sig.n >= self.N0)
        self.dense_path(monkeypatch)
        with pytest.raises(error) as dense:
            recover_spin(validate_pseudo_orthogonal(np.eye(sig.n), sig))
        assert str(caught.value) == str(dense.value)

    @pytest.mark.parametrize("sig", [Signature(4, 2), Signature(4, 4), Signature(5, 4)])
    def test_no_admitted_candidate_falls_back_to_the_csd_lift(self, monkeypatch, sig):
        # the "small, unusable gram" numerator for the identity: reverse(N)*N is
        # central within its floor, but no candidate's gram is a scalar, so the
        # residual is inf; the fallback lifts the identity, as below n0
        arr = self.numerator(sig, "small, unusable gram")
        monkeypatch.setattr(rotorlift.recovery, "_numerator_array", lambda matrix: arr.copy())
        matrix = validate_pseudo_orthogonal(np.eye(sig.n), sig)
        result = recover_spin(matrix)
        assert result.spin.terms() == {0: 1.0} and result.residual <= 1e-11
        self.dense_path(monkeypatch)
        dense = recover_spin(matrix)
        assert dense.spin.coeffs.tobytes() == result.spin.coeffs.tobytes()
        # no candidate has a finite bound: the dense route decides from n0 on too
        assert dense.residual == result.residual

    def test_classification_judges_rows_at_the_residual_scale(self):
        # A strong Cl(5,4) versor, entry peak 1.2e3: the Newton polish that the CSD
        # fallback replaced left the rows off grade 1 by up to 4.7e-6, 3.9e-9 of
        # the entry peak, which the residual accepts; judged at its own peak of
        # 121, row 4 (1.9e-6 off) made the classification raise "conjugation of
        # generator 4 leaves the grade-1 subspace"
        sig = Signature(5, 4)
        metric = sig.metric()
        spin = Multivector.scalar(sig, 1.0)
        for v in ([2.75, -1.58, -0.70, 0.51, -2.00, -0.36, -2.93, 1.11, -1.97],
                  [-3.25, -3.54, 2.06, 1.19, -2.87, 5.76, -1.39, 1.71, -0.20],
                  [-1.91, -2.11, 2.85, -0.48, 1.55, 3.13, 0.71, -0.74, -2.65],
                  [-1.11, 1.47, -0.37, -0.14, -1.63, -1.44, -0.06, 1.50, 0.93]):
            v = np.array(v)
            spin = spin * Multivector.from_vector(sig, v / math.sqrt(abs(np.sum(metric * v * v))))
        matrix = forward_matrix(spin)
        assert 1e3 < np.max(np.abs(matrix.entries)) < 2e3
        result = recover_spin(matrix)
        assert result.residual <= 1e-8
        assert result.groups.in_spin
        assert max_diff(result.spin, canonicalize_sign(spin)) <= 1e-6 * spin.max_abs()


def boost_turn(sig, rapidity, angle):
    """Boost in (e1, e_{p+1}) times a turn in (e_{p+2}, e_{p+3}), and its spin element.

    S = (cosh(r/2) + sinh(r/2) e1 e_{p+1}) (cos(t/2) + sin(t/2) e_{p+2} e_{p+3}).
    """
    b, j, k = sig.p, sig.p + 1, sig.p + 2
    entries = np.eye(sig.n)
    ch, sh = math.cosh(rapidity), math.sinh(rapidity)
    entries[np.ix_([0, b], [0, b])] = [[ch, -sh], [-sh, ch]]
    c, s = math.cos(angle), math.sin(angle)
    entries[np.ix_([j, k], [j, k])] = [[c, s], [-s, c]]
    ch2, sh2 = math.cosh(rapidity / 2.0), math.sinh(rapidity / 2.0)
    c2, s2 = math.cos(angle / 2.0), math.sin(angle / 2.0)
    spin = mv(sig, {(): ch2 * c2, (1, b + 1): sh2 * c2, (j + 1, k + 1): ch2 * s2,
                    (1, b + 1, j + 1, k + 1): sh2 * s2})
    return validate_pseudo_orthogonal(entries, sig), spin


class TestStrongBoosts:
    """Inputs whose numerator loses most of its digits to cancellation."""

    @pytest.mark.parametrize("p, q", [(1, 3), (2, 3), (3, 3)])
    @pytest.mark.parametrize("rapidity", [10.0, 11.0])
    def test_boost_times_turn_recovers(self, p, q, rapidity):
        sig = Signature(p, q)
        for angle in np.linspace(0.05, math.pi - 0.05, 25):
            matrix, spin = boost_turn(sig, rapidity, angle)
            result = recover_spin(matrix)
            back = forward_matrix(result.spin)
            matrix_scale = float(np.max(np.abs(matrix.entries)))
            assert np.max(np.abs(back.entries - matrix.entries)) <= 1e-8 * matrix_scale, angle
            assert max_diff(result.spin, canonicalize_sign(spin)) <= 1e-8 * spin.max_abs(), angle

    def test_criterion_one_hard_case_lifts_to_roundoff(self):
        # input 44 of Cl(4,2) in the acceptance round trip: entry peak 5.5e3,
        # where a Newton polish contracting the pulled-back row defects stalled near 2e-10
        sig = Signature(4, 2)
        s = random_versor(sig, 4, seed=20240915 + 4 * 1_000_003 + 2 * 10_007 + 44)
        assert recover_spin(forward_matrix(s)).residual <= 1e-10


def action_matrix(spin, det=1.0):
    """P read from the action of S, unvalidated: validate_pseudo_orthogonal rejects
    many strong boosts over the rounding of their determinant (ROADMAP item 5)."""
    t = rotorlift.recovery._get_tables(spin.sig)
    lam = rotorlift.recovery._gram_scalar(t, spin.coeffs)
    return OrthoMatrix(spin.sig, rotorlift.recovery._Action(t, spin.coeffs, lam).block, 0.0, det)


def block_unit_vector(sig, rng, low, high):
    """A random unit vector in the span of the generators low..high-1 (0-based)."""
    coords = np.zeros(sig.n)
    coords[low:high] = rng.standard_normal(high - low)
    return Multivector.from_vector(sig, coords / math.sqrt(float(np.sum(coords * coords))))


class TestCsdLift:
    """_csd_lift, the lift through the hyperbolic CS decomposition, and the fallback to it."""

    # The lift-small must-reject probe "Cl(2,3) k=3 extreme" of seeds 22, 31, 32
    # and 56: three reflections, so no central part, at entry peaks 4.2e4, 4.0e4,
    # 8.9e4 and 5.7e4; the numerator clears the degeneracy gate on rounding alone.
    NO_CENTRAL_PART = {
        22: [[-11616.682290410801, 7249.652708256273, -13221.63985601731, 706.0828365142468, 3492.0563243490287],
             [-37070.74308334959, 23139.136615704447, -42194.6959142488, 2251.8827959438227, 11144.339175085872],
             [28787.079084125773, -17968.56720953732, 32765.99380179732, -1748.1611229178857, -8654.415845582505],
             [-22377.149691811595, 13966.913325063153, -25469.732043837357, 1360.2559721176428, 6727.105652880252],
             [13407.25731320913, -8368.574031283664, 15260.620058629785, -814.3503406547674, -4029.626524691427]],
        31: [[2046.8802691415285, 10533.666607444711, -3820.94966741081, -8359.569465094888, 5537.6702710041445],
             [-7864.788189168724, -40494.788949360576, 14689.033985383447, 32135.98814905529, -21288.33884016722],
             [-4653.022220745069, -23957.16813001847, 8690.79817882158, 19012.121249268588, -12593.879236153634],
             [3368.2398700972917, 17342.539172120785, -6291.088557199192, -13762.193010703648, 9117.727461416805],
             [5748.822095649539, 29598.58938367731, -10735.902782957079, -23489.26193172571, 15560.219000021807]],
        32: [[89303.26371621432, -44841.54234378823, -63867.09711343546, 67480.95335819652, -36785.209926129064],
             [-55458.640574737874, 27848.93412812517, 39663.34295838396, -41906.49923227974, 22844.87892135057],
             [75907.7282156609, -38116.240597295095, -54287.31796769512, 57358.55309570427, -31268.42649982838],
             [40339.417773170055, -20255.02299174553, -28848.910440330634, 30482.58537642343, -16615.864071703494],
             [60510.18009083008, -30384.42524016837, -43276.02504403022, 45723.540114174066, -24924.661053182936]],
        56: [[19679.782178792244, -20028.569020519735, -26572.16016984757, 4288.81060913705, -7997.737810240573],
             [38854.273039329404, -39531.79646480626, -52452.23023110857, 8471.063631976587, -15793.102572813665],
             [-2404.7990597929534, 2449.6344878182426, 3249.0986571477624, -523.8770204081751, 976.0529829361084],
             [-11517.343891362092, 11722.599299851368, 15552.051754201066, -2509.039828190034, 4680.486196110313],
             [41934.664541278886, -42667.159083723964, -56611.77613765555, 9142.378711587444, -17044.831166640743]],
    }

    @staticmethod
    def lift(matrix):
        t = rotorlift.recovery._get_tables(matrix.sig)
        return Multivector(matrix.sig, rotorlift.recovery._csd_lift(t, matrix).spin)

    @staticmethod
    def apart(a, b):
        """Distance of a from the nearer of +-b, over max(1, peak of b)."""
        return min(max_diff(a, b), max_diff(a, -b)) / max(1.0, b.max_abs())

    def test_lift_of_a_product_is_the_reversed_product(self):
        # row a holds the image of e_a, so P(S1 S2) = P(S2) P(S1): lift(X Y) = lift(Y) lift(X)
        sig = Signature(3, 2)
        s1, s2 = random_versor(sig, 2, seed=1), random_versor(sig, 3, seed=2)
        x, y = forward_matrix(s1).entries, forward_matrix(s2).entries
        lifted = self.lift(validate_pseudo_orthogonal(np.einsum("ab,bc->ac", x, y), sig))
        assert self.apart(lifted, s2 * s1) <= 1e-12
        assert self.apart(lifted, s1 * s2) > 1e-2

    @pytest.mark.parametrize("sig, offset", [(Signature(3, 1), 0), (Signature(1, 3), 1)])
    def test_reflections_are_taken_in_reverse_order(self, sig, offset):
        # W = H(v1) H(v2) on three generators of one metric lifts to v2 v1, not v1 v2
        t = rotorlift.recovery._get_tables(sig)
        rng = np.random.default_rng(7)
        f1, f2 = (block_unit_vector(sig, rng, offset, offset + 3) for _ in range(2))
        v1, v2 = (f.coeffs[t.grades == 1][offset:offset + 3] for f in (f1, f2))
        h1, h2 = (np.eye(3) - 2.0 * np.outer(v, v) for v in (v1, v2))
        one = Multivector.scalar(sig, 1.0).coeffs
        w = np.einsum("ab,bc->ac", h1, h2)
        vectors, diag, block = rotorlift.recovery._householder(w)
        arr, factors = rotorlift.recovery._lift_orthogonal(t, one, vectors, diag, offset)
        lifted = Multivector(sig, arr)
        assert self.apart(lifted, f2 * f1) <= 1e-14
        assert self.apart(lifted, f1 * f2) > 1e-2
        # the factors act as W on their block, the identity elsewhere; the QR returns W too
        action = forward_matrix(lifted).entries
        assert np.max(np.abs(action[offset:offset + 3, offset:offset + 3] - w)) <= 1e-14
        assert np.max(np.abs(block - w)) <= 1e-14
        assert factors >= len(vectors) >= 1

    @pytest.mark.parametrize("p, q", [(1, 1), (2, 3), (3, 2)])
    def test_boost_bivector_takes_the_minus_sign(self, p, q):
        # +sinh r at (1, p+1) and (p+1, 1) lifts to cosh(r/2) - sinh(r/2) e1 e_{p+1}
        sig = Signature(p, q)
        entries = np.eye(sig.n)
        ch, sh = math.cosh(1.3), math.sinh(1.3)
        entries[np.ix_([0, p], [0, p])] = [[ch, sh], [sh, ch]]
        lifted = self.lift(validate_pseudo_orthogonal(entries, sig))
        expected = mv(sig, {(): math.cosh(0.65), (1, p + 1): -math.sinh(0.65)})
        assert self.apart(lifted, expected) <= 1e-15
        assert self.apart(lifted, mv(sig, {(): math.cosh(0.65), (1, p + 1): math.sinh(0.65)})) > 1.0

    @pytest.mark.parametrize("p, q, rapidities", [
        (4, 2, ()),  # B = 0: s = 0 in both planes
        (3, 5, (1.5,)),  # s = (sinh 1.5, 0, 0)
        (2, 5, (1.5, 1.5)),  # one singular value twice
        (5, 3, (2.0, 2.0)),  # twice, and s = 0 in the third plane
    ])
    def test_repeated_singular_values(self, p, q, rapidities):
        sig = Signature(p, q)
        rng = np.random.default_rng(p + 10 * q)
        spin = Multivector.scalar(sig, 1.0)
        for low, high in ((0, p), (0, p), (p, p + q), (p, p + q)):
            spin = spin * block_unit_vector(sig, rng, low, high)
        for i, r in enumerate(rapidities):
            spin = spin * mv(sig, {(): math.cosh(r / 2.0), (i + 1, p + i + 1): math.sinh(r / 2.0)})
        spin = spin * block_unit_vector(sig, rng, 0, p) * block_unit_vector(sig, rng, 0, p)
        matrix = forward_matrix(spin)
        lifted = self.lift(matrix)
        assert twisted_adjoint_residual(lifted, matrix) <= 1e-11
        assert self.apart(lifted, spin) <= 1e-12

    def test_minus_identity_in_the_euclidean_plane_is_e12(self):
        sig = Signature(2, 0)
        lifted = self.lift(validate_pseudo_orthogonal(-np.eye(2), sig))
        assert self.apart(lifted, mv(sig, {(1, 2): 1.0})) == 0.0

    @pytest.mark.parametrize("sig", signatures_up_to(8))
    def test_every_signature_and_reflection_count(self, sig):
        # odd counts at even n included, which the paper's construction excludes
        t = rotorlift.recovery._get_tables(sig)
        for k in range(6):
            spin = random_versor(sig, k, seed=60 + k)
            matrix = forward_matrix(spin)
            lifted = self.lift(matrix)
            assert twisted_adjoint_residual(lifted, matrix) <= 1e-11, k
            assert self.apart(lifted, spin) <= 1e-10, k
            # the bound from the exact action of the lift's factors holds, and is tight enough to use
            lift = rotorlift.recovery._csd_lift(t, matrix)
            bound = rotorlift.recovery._lift_bound(t, lift, matrix, lift.spin)[1]
            assert TestLiftRoute.rows_residual(lifted, matrix) <= bound <= 1e-10, k

    def test_lift_large_probe_that_failed_verification(self):
        # the lift-large seed-1 probe, Cl(5,4) k=4 at entry peak 6.5e4, rebuilt from its
        # four unit vectors; the Newton polish ended in VerificationFailed at 2.5e-8
        sig = Signature(5, 4)
        spin = Multivector.scalar(sig, 1.0)
        for v in ([-1.6361931894329025, -0.0007627307450808489, -0.11070782634160108, 0.11372040052791448,
                   -0.5279380907360534, 0.746362486605842, 0.1358520640782788, -1.7533503498014082,
                   -0.5755742532365724],
                  [0.9940611164800981, 0.4913043940935109, 0.016472462057525183, -2.276876370243361,
                   0.9327041018049399, 0.5255500533044796, 0.6166425150916423, -2.3294756501987095,
                   0.4483348581587664],
                  [0.9567928340220445, 4.2021762579244335, 0.70847863947709, -3.653847834229571,
                   -1.1665400577906273, -1.6102503945081208, -5.446985846834478, -0.7001137527331364,
                   -0.18541601666139906],
                  [0.9886205568570312, -1.4871786434326149, -0.4678919200282391, 0.8124883761623493,
                   -0.2247506042983937, -0.9385582532358522, -1.4141210104995752, -0.10837297546308385,
                   0.47567787253278915]):
            spin = spin * Multivector.from_vector(sig, v)
        matrix = action_matrix(spin)
        assert 6e4 < np.max(np.abs(matrix.entries)) < 7e4
        result = recover_spin(matrix)
        assert result.residual <= 1e-10
        assert self.apart(result.spin, spin) <= 1e-10

    @pytest.mark.parametrize("rapidity", [9.0, 10.0, 12.0])
    def test_strong_boost_times_versor(self, rapidity):
        # the Newton polish reached 8.0e-9 at rapidity 9 and failed verification at 10 and 12
        sig = Signature(5, 4)
        boost = mv(sig, {(): math.cosh(rapidity / 2.0), (1, 6): math.sinh(rapidity / 2.0)})
        spin = boost * random_versor(sig, 4, seed=2)
        matrix = action_matrix(spin)
        result = recover_spin(matrix)
        assert result.residual <= 1e-9
        assert self.apart(result.spin, spin) <= 1e-9
        t = rotorlift.recovery._get_tables(sig)
        lift = rotorlift.recovery._csd_lift(t, matrix)
        bound = rotorlift.recovery._lift_bound(t, lift, matrix, lift.spin)[1]
        assert TestLiftRoute.rows_residual(Multivector(sig, lift.spin), matrix) <= bound

    @pytest.mark.parametrize("seed", sorted(NO_CENTRAL_PART))
    def test_lift_outside_the_domain_is_rejected(self, seed):
        matrix = validate_pseudo_orthogonal(self.NO_CENTRAL_PART[seed], Signature(2, 3))
        scale = 2.0 ** 5 * float(np.max(np.abs(matrix.entries)))
        # the numerator clears the gate on rounding, and the lift would verify ...
        assert np.max(np.abs(spin_numerator(matrix).coeffs)) >= 1e-8 * scale
        lifted = self.lift(matrix)
        assert twisted_adjoint_residual(lifted, matrix) <= 1e-8
        assert abs(lifted[0]) + abs(lifted[0b11111]) <= 1e-12 * lifted.max_abs()
        # ... but the numerator it implies, 2^n S center(S^-1), vanishes
        with pytest.raises(CenterProjectionVanishesError, match="numerator sum is numerically zero"):
            recover_spin(matrix)

    def test_non_central_sum_outside_the_domain_is_rejected(self):
        # Seed 56's sum (peak 7.8e-8 of the gate's scale) is also non-central
        # beyond roundoff, so verification fails before any candidate is formed;
        # on that failure path the sum the lift implies, 2.1e-14 of the scale,
        # is put to the gate
        matrix = validate_pseudo_orthogonal(self.NO_CENTRAL_PART[56], Signature(2, 3))
        t = rotorlift.recovery._get_tables(matrix.sig)
        numerator = spin_numerator(matrix).coeffs
        peak = float(np.max(np.abs(numerator)))
        with pytest.raises(VerificationFailedError, match=re.escape("reverse(N)*N is not central")):
            rotorlift.recovery._central_gram(t, numerator, spinor_norm_sign(matrix), peak)
        with pytest.raises(CenterProjectionVanishesError, match="numerator sum is numerically zero"):
            recover_spin(matrix)

    @pytest.mark.parametrize("matrix, formed", [
        (boost_turn(Signature(1, 3), 1.0, 0.7)[0], 0),  # verified without the lift
        (boost_turn(Signature(3, 3), 9.0, 1.0)[0], 1),  # the CSD fallback forms it
        (forward_matrix(random_versor(Signature(5, 4), 4, seed=1)), 1),  # from n0 on, formed up front
    ])
    def test_guard_runs_only_where_verification_fails(self, monkeypatch, matrix, formed):
        real, lifts = rotorlift.recovery._csd_lift, []

        def counting(*args):
            lifts.append(1)
            return real(*args)

        monkeypatch.setattr(rotorlift.recovery, "_csd_lift", counting)
        recover_spin(matrix)
        assert len(lifts) == formed
        lifts.clear()
        # an unmet tolerance fails verification; the lift's implied sum clears the
        # gate, and the lift is formed once however many steps read it
        with pytest.raises(VerificationFailedError):
            recover_spin(matrix, residual_tol=1e-30)
        assert len(lifts) == 1

    @pytest.mark.parametrize("rapidity", range(13))
    def test_hestenes_boost_times_turn(self, rapidity):
        sig = Signature(1, 3)
        for angle in np.linspace(0.1, math.pi - 0.1, 5):
            _, spin = boost_turn(sig, 0.0, angle)
            spin = mv(sig, {(): math.cosh(rapidity / 2.0), (1, 2): math.sinh(rapidity / 2.0)}) * spin
            result = recover_hestenes(action_matrix(spin))
            assert result.residual <= 1e-10, angle
            assert self.apart(result.spin, spin) <= 1e-10, angle
            assert result.groups.in_spin_plus, angle

    @pytest.mark.parametrize("sig", [Signature(1, 3), Signature(2, 3), Signature(3, 3), Signature(4, 3)])
    def test_implied_sums_match_the_computed_ones(self, sig):
        # the fallback's guard: 2^n S center(S^-1) is the numerator, and in Cl(1,3)
        # 4 S (x_0 - x_I I), x = S^-1, is the grade-1 contraction sum_a row_a e^a
        t = rotorlift.recovery._get_tables(sig)
        for k in versor_ks(sig.n):
            spin = random_versor(sig, k, seed=70 + k)
            lam = rotorlift.recovery._gram_scalar(t, spin.coeffs)
            matrix = forward_matrix(spin)
            implied = rotorlift.recovery._implied_peak(t, spin.coeffs, lam, sig.n % 2)
            numerator = spin_numerator(matrix).max_abs()
            assert implied * 2.0 ** sig.n == pytest.approx(numerator, rel=1e-9, abs=1e-9), k
            if (sig.p, sig.q) == (1, 3):
                reciprocals = np.diag(sig.metric())  # e^a = e_a / e_a^2
                contraction = sum((Multivector.from_vector(sig, row) * Multivector.from_vector(sig, dual)
                                   for row, dual in zip(matrix.entries, reciprocals)), Multivector.zero(sig))
                implied = rotorlift.recovery._implied_peak(t, spin.coeffs, lam, -1.0)
                assert 4.0 * implied == pytest.approx(contraction.max_abs(), rel=1e-9, abs=1e-9), k

    def test_lift_is_byte_identical_under_another_blas_kernel(self):
        assert_same_digest_under_another_blas_kernel(
            "for p, q in ((1, 3), (3, 3), (5, 4), (2, 6)):\n"
            "    for k in range(5):\n"
            "        matrix = forward_matrix(random_versor(Signature(p, q), k, seed=k))\n"
            "        digest.update(r._csd_lift(r._get_tables(matrix.sig), matrix).spin.tobytes())\n"
        )
