"""Multivector operations: products, involutions, grades, center, averaging."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rotorlift.algebra
from rotorlift import (
    MAX_DIMENSION,
    CenterElement,
    Multivector,
    Signature,
    SignatureMismatchError,
    NotAVersorError,
    average_over_basis,
    blade_product,
    center_project,
    generator_conjugation,
    geometric_product,
    grade_project,
    involution,
    pseudoscalar_square,
    random_versor,
    versor_inverse,
)
from helpers import max_diff, random_multivector, signatures_up_to

small_signatures = st.sampled_from(signatures_up_to(5))


def mv(sig, terms):
    return Multivector.from_terms(sig, terms)


class TestConstruction:
    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            Multivector(Signature(2, 0), [1.0, 2.0])

    def test_coefficients_are_frozen(self):
        u = Multivector.scalar(Signature(2, 0), 1.0)
        with pytest.raises(ValueError):
            u.coeffs[0] = 5.0

    def test_attributes_are_frozen(self):
        u = Multivector.scalar(Signature(2, 0), 1.0)
        with pytest.raises(AttributeError):
            u.coeffs = np.zeros(4)

    def test_from_terms_rejects_bad_tuples(self):
        with pytest.raises(ValueError):
            Multivector.from_terms(Signature(2, 0), {(2, 1): 1.0})

    def test_dimension_cap(self):
        assert MAX_DIMENSION == 14
        assert Signature(14, 0).n == Signature(7, 7).n == 14
        for p, q in [(15, 0), (8, 7), (0, 15)]:
            with pytest.raises(ValueError, match="exceeds the dimension cap 14"):
                Signature(p, q)


class TestGeometricProduct:
    def test_identity_is_neutral(self):
        sig = Signature(2, 1)
        rng = np.random.default_rng(3)
        u = random_multivector(sig, rng)
        e = Multivector.scalar(sig, 1.0)
        assert max_diff(geometric_product(e, u), u) == 0.0
        assert max_diff(geometric_product(u, e), u) == 0.0

    def test_vector_product_gives_bivector(self):
        sig = Signature(2, 0)
        e1 = Multivector.basis_vector(sig, 1)
        e2 = Multivector.basis_vector(sig, 2)
        assert geometric_product(e1, e2).terms() == {0b11: 1.0}

    def test_bivector_squares_to_minus_one(self):
        # expand (e1 e2)(e1 e2) = -e1 e1 e2 e2 = -1 via the blade arithmetic
        sig = Signature(2, 0)
        e12 = mv(sig, {(1, 2): 1.0})
        assert geometric_product(e12, e12).terms() == {0: -1.0}

    def test_signature_mismatch(self):
        with pytest.raises(SignatureMismatchError):
            geometric_product(
                Multivector.scalar(Signature(2, 0), 1.0),
                Multivector.scalar(Signature(1, 1), 1.0),
            )

    @settings(max_examples=60, deadline=None)
    @given(sig=small_signatures, seed=st.integers(0, 2**31))
    def test_associativity(self, sig, seed):
        rng = np.random.default_rng(seed)
        u, v, w = (random_multivector(sig, rng) for _ in range(3))
        left = geometric_product(geometric_product(u, v), w)
        right = geometric_product(u, geometric_product(v, w))
        scale = max(1.0, left.max_abs())
        assert max_diff(left, right) / scale <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(sig=small_signatures, seed=st.integers(0, 2**31))
    def test_distributivity(self, sig, seed):
        rng = np.random.default_rng(seed)
        u, v, w = (random_multivector(sig, rng) for _ in range(3))
        left = geometric_product(u, v + w)
        right = geometric_product(u, v) + geometric_product(u, w)
        assert max_diff(left, right) <= 1e-12 * max(1.0, left.max_abs())

    @settings(max_examples=40, deadline=None)
    @given(sig=small_signatures, seed=st.integers(0, 2**31))
    def test_sparse_and_dense_kernels_agree(self, sig, seed):
        rng = np.random.default_rng(seed)
        u = random_multivector(sig, rng)
        sparse = Multivector.basis_vector(sig, 1) + Multivector.basis_vector(sig, sig.n)
        direct = geometric_product(u, sparse)
        # the kernel walks the left operand's support; the right one's must not matter
        dense = Multivector(sig, sparse.coeffs + 1e-30)
        other = geometric_product(u, dense)
        assert max_diff(direct, other) <= 1e-12 * max(1.0, direct.max_abs())


def blade_by_blade(u: Multivector, v: Multivector) -> np.ndarray:
    out = np.zeros(1 << u.sig.n)
    for a in np.flatnonzero(u.coeffs):
        for b in np.flatnonzero(v.coeffs):
            mask, sign = blade_product(int(a), int(b), u.sig)
            out[mask] += sign * u.coeffs[a] * v.coeffs[b]
    return out


def brute_force_blade_product(a: int, b: int, sig: Signature) -> tuple[int, float]:
    """e_a e_b by sorting its generator word with adjacent swaps, then squaring out pairs."""
    word = [g for g in range(sig.n) if a >> g & 1] + [g for g in range(sig.n) if b >> g & 1]
    sign = 1.0
    for end in range(len(word) - 1, 0, -1):
        for i in range(end):
            if word[i] > word[i + 1]:
                word[i], word[i + 1] = word[i + 1], word[i]
                sign = -sign
    mask = 0
    for g in word:
        if mask >> g & 1:
            sign *= 1.0 if g < sig.p else -1.0
        mask ^= 1 << g
    return mask, sign


class TestProductKernel:
    """One contraction over the split into low and high generators, signs without a table."""

    @pytest.mark.parametrize("sig", signatures_up_to(5), ids=str)
    def test_blade_product_matches_brute_force(self, sig):
        for a in range(1 << sig.n):
            for b in range(1 << sig.n):
                assert blade_product(a, b, sig) == brute_force_blade_product(a, b, sig)

    @pytest.mark.parametrize("sig", signatures_up_to(5), ids=str)
    def test_kernel_matches_blade_by_blade(self, sig):
        rng = np.random.default_rng(sig.p * 7 + sig.q)
        u, v = random_multivector(sig, rng), random_multivector(sig, rng)
        product = geometric_product(u, v).coeffs
        expected = blade_by_blade(u, v)
        assert np.max(np.abs(product - expected)) <= 1e-13 * max(1.0, np.max(np.abs(expected)))

    def test_no_table_grows_as_four_to_the_n(self):
        sig = Signature(6, 6)
        t = rotorlift.algebra._get_tables(sig)
        arrays = [getattr(t, name) for name in type(t).__slots__]
        sizes = [value.size for value in arrays if isinstance(value, np.ndarray)]
        for gather in (t.flips, t.right_gather, t.left_gather):
            assert gather.shape == (sig.n, 1 << sig.n)
        assert max(sizes) <= 1 << (sig.n + sig.n // 2) < 4**sig.n

    def test_two_versors_in_eleven_dimensions(self):
        sig = Signature(6, 5)
        u, v = random_versor(sig, 11, seed=1), random_versor(sig, 10, seed=2)
        product = geometric_product(u, v).coeffs
        expected = np.zeros(1 << sig.n)
        for a in np.flatnonzero(u.coeffs):
            blade = Multivector.basis_blade(sig, int(a))
            expected += u.coeffs[a] * geometric_product(blade, v).coeffs
        assert np.max(np.abs(product - expected)) <= 1e-12 * max(1.0, np.max(np.abs(expected)))

    @pytest.mark.parametrize("p, q", [(1, 0), (2, 1), (3, 3)])
    def test_zero_operand(self, p, q):
        sig = Signature(p, q)
        rng = np.random.default_rng(sig.n)
        u, zero = random_multivector(sig, rng), Multivector.zero(sig)
        for product in (geometric_product(u, zero), geometric_product(zero, u),
                        geometric_product(zero, zero)):
            # exact, unsigned zeros on either side
            assert not np.any(product.coeffs) and not np.any(np.signbit(product.coeffs))


def scatter_vector_mul_right(t, arr: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """arr * v as one scatter-add per nonzero coordinate, generators in ascending order."""
    out = np.zeros_like(arr)
    for b in range(t.n):
        if coords[b] != 0.0:
            out[t.masks ^ (1 << b)] += (arr * t.grade_signs[t.reorder & (1 << b)]) * coords[b]
    return out


def scatter_blade_mul(t, arr: np.ndarray, mask: int, scale: float, side: str) -> np.ndarray:
    """(scale * e_mask) on either side of arr as one signed scatter."""
    if side == "right":
        signs = t.grade_signs[t.reorder & mask]
    else:
        signs = t.grade_signs[t.reorder[mask] & t.masks]
    out = np.empty_like(arr)
    out[t.masks ^ mask] = arr * signs
    if scale != 1.0:
        out *= scale
    return out


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def with_zeros(rng, size: int) -> np.ndarray:
    """Normal draws with about a quarter set to +0.0 and a quarter to -0.0."""
    values = rng.standard_normal(size)
    kind = rng.integers(0, 4, size)
    values[kind == 0] = 0.0
    values[kind == 1] = -0.0
    return values


class TestGeneratorGathers:
    """Generator and vector products gather through the flip index; the scatters are the oracle."""

    gather_signatures = [Signature(n - n // 3, n // 3) for n in range(1, MAX_DIMENSION + 1)]
    negative_signatures = [Signature(0, 1), Signature(0, 2), Signature(1, 2)]

    @pytest.mark.parametrize("sig", gather_signatures + negative_signatures, ids=str)
    def test_vector_product_matches_scatter_bit_for_bit(self, sig):
        t = rotorlift.algebra._get_tables(sig)
        rng = np.random.default_rng(sig.n * 31 + sig.q)
        arrays = [with_zeros(rng, t.size), np.zeros(t.size), -np.zeros(t.size)]
        coordinates = [rng.standard_normal(sig.n), with_zeros(rng, sig.n),
                       np.zeros(sig.n), -np.zeros(sig.n)]
        coordinates.append(np.where(np.arange(sig.n) % 2 == 0, coordinates[0], 0.0))
        for arr in arrays:
            for coords in coordinates:
                expected = scatter_vector_mul_right(t, arr, coords)
                assert same_bits(rotorlift.algebra._vector_mul_right(t, arr, coords), expected)

    @pytest.mark.parametrize("sig", gather_signatures, ids=str)
    def test_blade_products_match_scatter_bit_for_bit(self, sig):
        t = rotorlift.algebra._get_tables(sig)
        rng = np.random.default_rng(sig.n)
        arr = with_zeros(rng, t.size)
        masks = [1 << b for b in range(sig.n)] + [0, t.full_mask, 3 % t.size]
        masks += rng.integers(0, t.size, 4).tolist()
        kernels = {"right": rotorlift.algebra._blade_mul_right, "left": rotorlift.algebra._blade_mul_left}
        for mask in masks:
            for scale in (1.0, -2.5, -0.0):
                for side, kernel in kernels.items():
                    expected = scatter_blade_mul(t, arr, mask, scale, side)
                    assert same_bits(kernel(t, arr, mask, scale), expected), (mask, scale, side)

    def test_flip_index_is_shared_per_dimension_and_tables_are_frozen(self):
        first = rotorlift.algebra._get_tables(Signature(5, 4))
        second = rotorlift.algebra._get_tables(Signature(8, 1))
        assert first.flips is second.flips
        for t in (first, second):
            for table in (t.flips, t.right_gather, t.left_gather):
                assert not table.flags.writeable


class TestGradeStructure:
    def test_projection_examples(self):
        sig = Signature(2, 0)
        u = mv(sig, {(): 1.0, (1,): 1.0})
        assert grade_project(u, 0).terms() == {0: 1.0}
        v = mv(sig, {(1, 2): 1.0, (): 3.0})
        assert grade_project(v, 2).terms() == {0b11: 1.0}
        assert grade_project(Multivector.scalar(sig, 1.0), 1).terms() == {}

    def test_projection_out_of_range(self):
        with pytest.raises(ValueError):
            grade_project(Multivector.scalar(Signature(2, 0), 1.0), 3)

    @settings(max_examples=30, deadline=None)
    @given(sig=small_signatures, seed=st.integers(0, 2**31))
    def test_projections_partition(self, sig, seed):
        rng = np.random.default_rng(seed)
        u = random_multivector(sig, rng)
        parts = [grade_project(u, k) for k in range(sig.n + 1)]
        total = parts[0]
        for part in parts[1:]:
            total = total + part
        assert max_diff(total, u) == 0.0
        for k, part in enumerate(parts):
            assert max_diff(grade_project(part, k), part) == 0.0
            for j, other in enumerate(parts):
                if j != k:
                    assert grade_project(other, k).max_abs() == 0.0


class TestInvolutions:
    def test_examples(self):
        sig = Signature(2, 0)
        e12 = mv(sig, {(1, 2): 1.0})
        assert involution(e12, "reverse").terms() == {0b11: -1.0}
        u = mv(sig, {(1,): 1.0, (1, 2): 1.0})
        assert involution(u, "grade").terms() == {0b01: -1.0, 0b11: 1.0}
        assert involution(u, "conjugate").terms() == {0b01: -1.0, 0b11: -1.0}

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            involution(Multivector.scalar(Signature(1, 0), 1.0), "dual")

    @settings(max_examples=30, deadline=None)
    @given(sig=small_signatures, seed=st.integers(0, 2**31))
    def test_involution_algebra(self, sig, seed):
        rng = np.random.default_rng(seed)
        u = random_multivector(sig, rng)
        for kind in ("grade", "reverse", "conjugate"):
            assert max_diff(involution(involution(u, kind), kind), u) == 0.0
        via_reverse = involution(involution(u, "grade"), "reverse")
        via_grade = involution(involution(u, "reverse"), "grade")
        conjugate = involution(u, "conjugate")
        assert max_diff(via_reverse, conjugate) == 0.0
        assert max_diff(via_grade, conjugate) == 0.0

    @settings(max_examples=30, deadline=None)
    @given(sig=small_signatures, seed=st.integers(0, 2**31))
    def test_antiautomorphism_and_automorphism(self, sig, seed):
        rng = np.random.default_rng(seed)
        u = random_multivector(sig, rng)
        v = random_multivector(sig, rng)
        product = geometric_product(u, v)
        reversed_product = involution(product, "reverse")
        swapped = geometric_product(involution(v, "reverse"), involution(u, "reverse"))
        assert max_diff(reversed_product, swapped) <= 1e-12 * max(1.0, product.max_abs())
        graded = involution(product, "grade")
        graded_factors = geometric_product(involution(u, "grade"), involution(v, "grade"))
        assert max_diff(graded, graded_factors) <= 1e-12 * max(1.0, product.max_abs())


class TestCenter:
    def test_center_project_examples(self):
        sig2 = Signature(2, 0)
        u = mv(sig2, {(): 3.0, (1,): 1.0})
        z = center_project(u)
        assert (z.scalar_part, z.pseudo_part) == (3.0, 0.0)
        sig3 = Signature(3, 0)
        v = mv(sig3, {(): 2.0, (1, 2, 3): 5.0})
        z3 = center_project(v)
        assert (z3.scalar_part, z3.pseudo_part) == (2.0, 5.0)
        w = mv(sig2, {(1, 2): 1.0})
        zw = center_project(w)
        assert (zw.scalar_part, zw.pseudo_part) == (0.0, 0.0)

    def test_center_element_embedding_round_trips(self):
        z = CenterElement(Signature(2, 1), 1.5, -0.25)
        back = center_project(z.embed())
        assert (back.scalar_part, back.pseudo_part) == (1.5, -0.25)

    def test_even_dimension_has_no_pseudo_part(self):
        with pytest.raises(ValueError):
            CenterElement(Signature(2, 0), 1.0, 1.0)


class TestAveraging:
    def test_identity_is_fixed(self):
        sig = Signature(2, 0)
        e = Multivector.scalar(sig, 1.0)
        assert max_diff(average_over_basis(e), e) == 0.0

    def test_vector_averages_to_zero(self):
        # the four-term sum e e1 e + e1 e1 e1 + e2 e1 e2^-1 + e12 e1 e12^-1,
        # expanded here explicitly as a cross-check of the library loop
        sig = Signature(2, 0)
        e1 = Multivector.basis_vector(sig, 1)
        total = Multivector.zero(sig)
        for mask in range(4):
            blade = Multivector.basis_blade(sig, mask)
            square = geometric_product(blade, blade).scalar_part
            inverse = blade * (1.0 / square)
            total = total + geometric_product(blade, geometric_product(e1, inverse))
        assert total.max_abs() <= 1e-15
        assert average_over_basis(e1).max_abs() <= 1e-15

    def test_central_odd_element_is_fixed(self):
        sig = Signature(3, 0)
        u = mv(sig, {(): 1.0, (1, 2, 3): 1.0})
        assert max_diff(average_over_basis(u), u) <= 1e-14

    @settings(max_examples=30, deadline=None)
    @given(sig=small_signatures, seed=st.integers(0, 2**31))
    def test_averaging_equals_center_projection(self, sig, seed):
        rng = np.random.default_rng(seed)
        u = random_multivector(sig, rng)
        assert max_diff(average_over_basis(u), center_project(u).embed()) <= 1e-10


class TestGeneratorConjugation:
    def test_scalar_in_dimension_four(self):
        for sig in (Signature(2, 2), Signature(1, 3)):
            e = Multivector.scalar(sig, 1.0)
            assert max_diff(generator_conjugation(e), e * 4.0) == 0.0

    def test_vector_in_dimension_two(self):
        sig = Signature(2, 0)
        e1 = Multivector.basis_vector(sig, 1)
        assert generator_conjugation(e1).max_abs() == 0.0

    def test_bivector_in_dimension_four(self):
        sig = Signature(1, 3)
        e12 = mv(sig, {(1, 2): 1.0})
        assert generator_conjugation(e12).max_abs() == 0.0

    @settings(max_examples=30, deadline=None)
    @given(sig=small_signatures, seed=st.integers(0, 2**31))
    def test_pure_grade_eigenvalue(self, sig, seed):
        rng = np.random.default_rng(seed)
        u = random_multivector(sig, rng)
        for k in range(sig.n + 1):
            part = grade_project(u, k)
            expected = part * float((-1) ** k * (sig.n - 2 * k))
            assert max_diff(generator_conjugation(part), expected) <= 1e-10


class TestVersorInverse:
    def test_identity(self):
        sig = Signature(2, 0)
        e = Multivector.scalar(sig, 1.0)
        assert max_diff(versor_inverse(e), e) == 0.0

    def test_negative_square_bivector(self):
        # reverse(e12) e12 = e21 e12 = +1, so the inverse is e21 = -e12
        sig = Signature(2, 0)
        e12 = mv(sig, {(1, 2): 1.0})
        inverse = versor_inverse(e12)
        assert inverse.terms() == {0b11: -1.0}
        assert max_diff(geometric_product(inverse, e12), Multivector.scalar(sig, 1.0)) == 0.0

    def test_unit_vector_is_its_own_inverse(self):
        sig = Signature(3, 0)
        e1 = Multivector.basis_vector(sig, 1)
        assert max_diff(versor_inverse(e1), e1) == 0.0

    def test_non_versor_rejected(self):
        sig = Signature(2, 0)
        with pytest.raises(NotAVersorError):
            versor_inverse(mv(sig, {(): 1.0, (1,): 1.0}))
        with pytest.raises(NotAVersorError):
            versor_inverse(Multivector.scalar(sig, 2.0))


class TestConcurrency:
    def test_parallel_products_match_serial(self):
        # values are immutable and the sign tables are built once, so
        # concurrent use must give bitwise-identical results
        from concurrent.futures import ThreadPoolExecutor

        sig = Signature(3, 2)
        rng = np.random.default_rng(11)
        pairs = [(random_multivector(sig, rng), random_multivector(sig, rng)) for _ in range(32)]
        serial = [geometric_product(u, v).coeffs for u, v in pairs]
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(pool.map(lambda uv: geometric_product(*uv).coeffs, pairs))
        for a, b in zip(serial, parallel):
            assert np.array_equal(a, b)


class TestPseudoscalarSquare:
    @pytest.mark.parametrize(
        "p,q,expected", [(2, 0, -1.0), (3, 0, -1.0), (2, 1, 1.0), (1, 3, -1.0), (1, 1, 1.0)]
    )
    def test_known_values(self, p, q, expected):
        assert pseudoscalar_square(Signature(p, q)) == expected

    @pytest.mark.parametrize("sig", signatures_up_to(6))
    def test_matches_direct_product(self, sig):
        omega = Multivector.pseudoscalar(sig)
        square = geometric_product(omega, omega)
        assert square.terms() == {0: pseudoscalar_square(sig)}
