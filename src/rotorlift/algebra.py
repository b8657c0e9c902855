"""Dense real Clifford algebra Cl(p,q) over bitmask-indexed blades.

A basis blade with ascending generator indices a_1 < ... < a_k is stored at
array index ``mask`` where bit (a-1) of ``mask`` is set iff generator e_a
occurs.  A multivector is a dense float64 array of 2**n coefficients.  All
values are immutable after construction and every operation is a pure
function, so everything here is safe to share across threads.

The sign of a blade product needs no table: sign(e_A e_B) is
(-1)^popcount(reorder[A] & B) for one 2**n array ``reorder`` per signature
(the bitmap reordering sign of Dorst, Fontijne & Mann, *Geometric Algebra for
Computer Science*, ch. 19).  Every geometric product runs through one kernel,
``_product_arrays``, which splits Cl(p,q) into the graded tensor product of
its low and high generators, so no per-signature array has more than
max(n 2**n, 2**(n + n//2)) entries.  A product with a generator e_b moves
coefficient K to K ^ (1 << b) with a sign, so generator and vector products
are gathers through one n x 2**n flip index per n, shared by every signature
of that dimension, and two n x 2**n sign tables per signature.  Tables are
built once, frozen (read-only arrays) and cached for the lifetime of the
process.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass

import numpy as np

from .errors import NotAVersorError, SignatureMismatchError

DEFAULT_TOLERANCE = 1e-10

# Dense storage is 2**n coefficients and a dense product costs 4**n
# multiply-adds, so the dimension is capped.
MAX_DIMENSION = 14


@dataclass(frozen=True)
class Signature:
    """Metric signature (p, q): p generators squaring to +1, then q to -1."""

    p: int
    q: int

    def __post_init__(self):
        if self.p < 0 or self.q < 0:
            raise ValueError(f"signature counts must be non-negative, got ({self.p}, {self.q})")
        n = self.p + self.q
        if n < 1:
            raise ValueError("need at least one generator")
        if n > MAX_DIMENSION:
            raise ValueError(f"n = {n} exceeds the dimension cap {MAX_DIMENSION}")

    @property
    def n(self) -> int:
        return self.p + self.q

    def metric(self) -> np.ndarray:
        """Diagonal of the metric as a length-n array of +-1."""
        return _get_tables(self).metric.copy()

    def __str__(self) -> str:
        return f"Cl({self.p},{self.q})"


class _SignatureTables:
    """Read-only sign and index arrays for one signature."""

    __slots__ = (
        "sig", "n", "size", "full_mask",
        "metric", "masks", "grades", "reorder", "grade_signs", "reverse_signs",
        "conjugate_signs", "blade_square", "flips", "right_gather", "left_gather", "low_xor",
        "left_signs", "high_xor", "high_signs",
    )

    def __init__(self, sig: Signature):
        n = sig.n
        size = 1 << n
        self.sig, self.n, self.size, self.full_mask = sig, n, size, size - 1
        self.metric = np.where(np.arange(n) < sig.p, 1.0, -1.0)
        masks = self.masks = np.arange(size)
        grades = self.grades = np.zeros(size, dtype=np.uint8)
        for a in range(n):
            grades += ((masks >> a) & 1).astype(np.uint8)

        # sign(e_A e_B) = grade_signs[reorder[A] & B]: bit j of reorder[A] is
        # the parity of A's generators above j (the transpositions e_j makes
        # on its way past them), plus bit j of A itself when e_j squares to -1.
        reorder = self.reorder = masks & ((size - 1) >> sig.p << sig.p)
        for j in range(n - 1):
            reorder ^= (grades[masks >> (j + 1)] & 1).astype(np.int64) << j

        k = grades.astype(np.int64)
        grade_signs = self.grade_signs = np.where(k % 2 == 0, 1, -1).astype(np.int8)
        self.reverse_signs = np.where((k * (k - 1) // 2) % 2 == 0, 1, -1).astype(np.int8)
        self.conjugate_signs = np.where((k * (k + 1) // 2) % 2 == 0, 1, -1).astype(np.int8)
        self.blade_square = grade_signs[reorder & masks]

        # (arr e_b)[K] = arr[A] sign(e_A e_b) and (e_b arr)[K] = arr[A] sign(e_b e_A)
        # with A = flips[b, K] = K ^ (1 << b): one row per generator.
        flips = self.flips = _flips(n)
        self.right_gather = 1.0 - 2.0 * ((reorder[flips] >> np.arange(n)[:, None]) & 1)
        self.left_gather = grade_signs[reorder[1 << np.arange(n)][:, None] & flips].astype(np.float64)

        # Split A = (H << low_bits) | C into high generators H and low ones C,
        # so that e_A = e_C e_H; left_signs[H, C, B] = s(C^B, B) (-1)^(|B||H|)
        # and high_signs[H, M] = sign(e_H e_{H^M}) (see _product_arrays).
        low_bits = n // 2
        low, high = np.arange(1 << low_bits), np.arange(1 << (n - low_bits))
        self.low_xor = low[:, None] ^ low
        low_signs = grade_signs[reorder[self.low_xor] & low]
        odd_high = (grades[high << low_bits] % 2 == 1)[:, None, None]
        self.left_signs = np.where(odd_high, low_signs * grade_signs[low], low_signs).astype(np.float64)
        self.high_xor = high[:, None] ^ high
        high_signs = grade_signs[reorder[high << low_bits][:, None] & (self.high_xor << low_bits)]
        self.high_signs = high_signs[:, :, None].astype(np.float64)

        for name in self.__slots__[4:]:  # the slots after full_mask hold arrays
            getattr(self, name).setflags(write=False)


@functools.lru_cache(maxsize=None)
def _flips(n: int) -> np.ndarray:
    """flips[b, K] = K ^ (1 << b), read-only; one per dimension n."""
    flips = np.arange(1 << n) ^ (1 << np.arange(n))[:, None]
    flips.setflags(write=False)
    return flips


_tables_lock = threading.Lock()
_tables: dict[tuple[int, int], _SignatureTables] = {}


def _get_tables(sig: Signature) -> _SignatureTables:
    key = (sig.p, sig.q)
    tables = _tables.get(key)
    if tables is None:
        with _tables_lock:
            tables = _tables.get(key)
            if tables is None:
                tables = _SignatureTables(sig)
                _tables[key] = tables
    return tables


def blade_product(a: int, b: int, sig: Signature) -> tuple[int, float]:
    """Product of two basis blades: returns (result mask, sign in {+1, -1})."""
    t = _get_tables(sig)
    if not (0 <= a < t.size and 0 <= b < t.size):
        raise ValueError(f"blade mask out of range for {sig}")
    return a ^ b, float(t.grade_signs[t.reorder[a] & b])


def blade_label(mask: int, n: int) -> str:
    """Human-readable blade name: ascending generator indices, '' for the scalar.

    Indices are joined directly up to n = 9 and comma-separated beyond.
    """
    indices = [a + 1 for a in range(n) if mask >> a & 1]
    joiner = "," if n >= 10 else ""
    return joiner.join(str(a) for a in indices)


class Multivector:
    """Immutable element of Cl(p,q) as a dense coefficient array.

    ``*`` is the geometric product (or scaling when one side is a number),
    ``~`` is reversion, ``+``/``-`` are componentwise.
    """

    __slots__ = ("sig", "coeffs")

    def __init__(self, sig: Signature, coeffs):
        arr = np.array(coeffs, dtype=np.float64)
        if arr.shape != (1 << sig.n,):
            raise ValueError(
                f"{sig} needs exactly {1 << sig.n} coefficients, got shape {arr.shape}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "sig", sig)
        object.__setattr__(self, "coeffs", arr)

    def __setattr__(self, name, value):
        raise AttributeError("Multivector is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, sig: Signature) -> "Multivector":
        return cls(sig, np.zeros(1 << sig.n))

    @classmethod
    def scalar(cls, sig: Signature, value: float) -> "Multivector":
        arr = np.zeros(1 << sig.n)
        arr[0] = value
        return cls(sig, arr)

    @classmethod
    def basis_vector(cls, sig: Signature, a: int) -> "Multivector":
        """Generator e_a, 1-based."""
        if not 1 <= a <= sig.n:
            raise ValueError(f"generator index {a} out of range 1..{sig.n}")
        arr = np.zeros(1 << sig.n)
        arr[1 << (a - 1)] = 1.0
        return cls(sig, arr)

    @classmethod
    def basis_blade(cls, sig: Signature, mask: int) -> "Multivector":
        if not 0 <= mask < (1 << sig.n):
            raise ValueError(f"blade mask {mask} out of range for {sig}")
        arr = np.zeros(1 << sig.n)
        arr[mask] = 1.0
        return cls(sig, arr)

    @classmethod
    def pseudoscalar(cls, sig: Signature) -> "Multivector":
        return cls.basis_blade(sig, (1 << sig.n) - 1)

    @classmethod
    def from_vector(cls, sig: Signature, coords) -> "Multivector":
        """Grade-1 element from n coordinates."""
        coords = np.asarray(coords, dtype=np.float64)
        if coords.shape != (sig.n,):
            raise ValueError(f"expected {sig.n} coordinates, got shape {coords.shape}")
        arr = np.zeros(1 << sig.n)
        for a in range(sig.n):
            arr[1 << a] = coords[a]
        return cls(sig, arr)

    @classmethod
    def from_terms(cls, sig: Signature, terms: dict) -> "Multivector":
        """Build from {(1, 2): -0.5, (): 1.0} style index tuples."""
        arr = np.zeros(1 << sig.n)
        for indices, value in terms.items():
            mask = 0
            prev = 0
            for a in indices:
                if not (isinstance(a, int) and prev < a <= sig.n):
                    raise ValueError(f"bad blade index tuple {indices!r} for {sig}")
                mask |= 1 << (a - 1)
                prev = a
            arr[mask] += value
        return cls(sig, arr)

    # -- inspection --------------------------------------------------------

    def __getitem__(self, mask: int) -> float:
        return float(self.coeffs[mask])

    @property
    def scalar_part(self) -> float:
        return float(self.coeffs[0])

    @property
    def pseudoscalar_part(self) -> float:
        return float(self.coeffs[-1])

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.coeffs)))

    def norm(self) -> float:
        """Euclidean norm of the coefficient array."""
        return float(np.linalg.norm(self.coeffs))

    def grades_present(self, tol: float = DEFAULT_TOLERANCE) -> set[int]:
        t = _get_tables(self.sig)
        return {int(k) for k in np.unique(t.grades[np.abs(self.coeffs) > tol])}

    def terms(self, tol: float = 0.0) -> dict[int, float]:
        """Mask -> coefficient for entries with |c| > tol, ascending mask."""
        masks = np.flatnonzero(np.abs(self.coeffs) > tol)
        return dict(zip(masks.tolist(), self.coeffs[masks].tolist()))

    def __repr__(self) -> str:
        parts = []
        for mask, value in self.terms(tol=0.0).items():
            label = blade_label(mask, self.sig.n)
            parts.append(f"{value:+g}*e{label}" if label else f"{value:+g}")
            if len(parts) == 10:
                parts.append("...")
                break
        body = " ".join(parts) if parts else "0"
        return f"<{self.sig} {body}>"

    # -- arithmetic --------------------------------------------------------

    def _check_sig(self, other: "Multivector") -> None:
        if self.sig != other.sig:
            raise SignatureMismatchError(f"cannot combine {self.sig} with {other.sig}")

    def __add__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        self._check_sig(other)
        return Multivector(self.sig, self.coeffs + other.coeffs)

    def __sub__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        self._check_sig(other)
        return Multivector(self.sig, self.coeffs - other.coeffs)

    def __neg__(self):
        return Multivector(self.sig, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, Multivector):
            return geometric_product(self, other)
        if isinstance(other, (int, float)):
            return Multivector(self.sig, self.coeffs * float(other))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return Multivector(self.sig, self.coeffs * float(other))
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return Multivector(self.sig, self.coeffs / float(other))
        return NotImplemented

    def __invert__(self):
        return involution(self, "reverse")

    def grade(self, k: int) -> "Multivector":
        return grade_project(self, k)

    def odd_part(self) -> "Multivector":
        t = _get_tables(self.sig)
        return Multivector(self.sig, np.where(t.grades % 2 == 1, self.coeffs, 0.0))


# -- product kernel --------------------------------------------------------

def _product_arrays(t: _SignatureTables, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u * v over the split of Cl(p,q) into its low and high generators.

    With A = (H << l) | C for the l = n // 2 low bits C, e_A = e_C e_H, and a
    high blade moves past a low element x as e_H x = x^(|H|) e_H (the grade
    involution |H| times), so with K = H^M and s the sign in the low subalgebra

        out[M, C] = sum_{H,B} (u[H, C^B] s(C^B, B) (-1)^(|B||H|)) (sign(e_H e_K) v[K, B]):

    two signed gathers and one contraction.  einsum without ``optimize``
    calls no BLAS, so the bytes do not depend on the BLAS build or on the
    CPU kernel it picks at run time.
    """
    shape = (len(t.high_xor), len(t.low_xor))
    left = u.reshape(shape).take(t.low_xor, axis=1) * t.left_signs
    right = v.reshape(shape).take(t.high_xor, axis=0) * t.high_signs
    return np.einsum("hcb,hmb->mc", left, right).ravel()


def _scalar_vector_parts(t: _SignatureTables, us: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Scalar and grade-1 coefficients of u * v for each row u of ``us``, stacked k x (1 + n).

    ``_product_arrays`` restricted to its outputs of grade 0 and 1: out[0, C]
    for C empty or a single low generator and out[M, 0] for M a single high
    one, O(n 2^n) per output row instead of 4^n.  Column 0 is the scalar.  The
    gathers keep the kernel's layout, and each contraction whose outputs are
    kept has at least two entries on its c or m axis, as the full product has
    (singletons on both would let einsum merge the h and b loops).  So einsum
    sums every output in the same order, and the values equal those of the
    full product bit for bit.  (At n = 1 the scalar is a sum of two terms,
    which every order adds alike.)
    """
    low_bits = t.n // 2
    low = [0] + [1 << j for j in range(low_bits)]
    high = [0] + [1 << j for j in range(t.n - low_bits)]
    shape = (len(t.high_xor), len(t.low_xor))
    left = us.reshape((-1,) + shape).take(t.low_xor[low], axis=2) * t.left_signs[:, low]
    right = v.reshape(shape).take(t.high_xor[:, high], axis=0) * t.high_signs[:, high]
    return np.concatenate([
        np.einsum("ahcb,hmb->amc", left, right[:, :1])[:, 0, :],
        np.einsum("ahcb,hmb->amc", left[:, :, :1], right)[:, 1:, 0],
    ], axis=1)


def _central_parts(t: _SignatureTables, u: np.ndarray, v: np.ndarray) -> tuple[float, float]:
    """Scalar and pseudoscalar coefficients of u * v, equal to the full product's bit for bit.

    ``_product_arrays`` restricted to c in {0, all low bits} and m in {0, all
    high bits}, O(2^n) instead of 4^n.  As in ``_scalar_vector_parts``, both
    axes keep two entries, so einsum sums the kept outputs in the full
    product's order.
    """
    low_bits = t.n // 2
    low = [0, (1 << low_bits) - 1]
    high = [0, (1 << (t.n - low_bits)) - 1]
    shape = (len(t.high_xor), len(t.low_xor))
    left = u.reshape(shape).take(t.low_xor[low], axis=1) * t.left_signs[:, low]
    right = v.reshape(shape).take(t.high_xor[:, high], axis=0) * t.high_signs[:, high]
    out = np.einsum("hcb,hmb->mc", left, right)
    return float(out[0, 0]), float(out[1, 1])


def _blade_mul_right(t: _SignatureTables, arr: np.ndarray, mask: int, scale: float = 1.0) -> np.ndarray:
    """arr * (scale * e_mask); a signed permutation of the coefficients."""
    if mask and not mask & (mask - 1):  # a generator: one row of the gather tables
        b = int(mask).bit_length() - 1
        out = arr.take(t.flips[b]) * t.right_gather[b]
    else:
        out = (arr * t.grade_signs[t.reorder & mask]).take(t.masks ^ mask)
    if scale != 1.0:
        out *= scale
    return out


def _blade_mul_left(t: _SignatureTables, arr: np.ndarray, mask: int, scale: float = 1.0) -> np.ndarray:
    """(scale * e_mask) * arr."""
    if mask and not mask & (mask - 1):
        b = int(mask).bit_length() - 1
        out = arr.take(t.flips[b]) * t.left_gather[b]
    else:
        out = (arr * t.grade_signs[t.reorder[mask] & t.masks]).take(t.masks ^ mask)
    if scale != 1.0:
        out *= scale
    return out


def _vector_mul_right(t: _SignatureTables, arr: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """arr * v for the grade-1 element v with the given coordinates.

    One gather of all n generator products; the reduction over axis 0 adds
    them in generator order from +0.0, term by term.
    """
    terms = arr.take(t.flips)
    terms *= t.right_gather
    terms *= coords[:, None]
    return np.add.reduce(terms, axis=0, initial=0.0)


# -- operations ------------------------------------------------------------

def geometric_product(u: Multivector, v: Multivector) -> Multivector:
    """Geometric (Clifford) product of two multivectors of the same signature."""
    if u.sig != v.sig:
        raise SignatureMismatchError(f"cannot multiply {u.sig} by {v.sig}")
    t = _get_tables(u.sig)
    return Multivector(u.sig, _product_arrays(t, u.coeffs, v.coeffs))


def grade_project(u: Multivector, k: int) -> Multivector:
    """Keep only the grade-k coefficients."""
    if not 0 <= k <= u.sig.n:
        raise ValueError(f"grade {k} out of range 0..{u.sig.n}")
    t = _get_tables(u.sig)
    return Multivector(u.sig, np.where(t.grades == k, u.coeffs, 0.0))


_INVOLUTION_KINDS = ("grade", "reverse", "conjugate")


def involution(u: Multivector, kind: str) -> Multivector:
    """Apply one of the three standard involutions.

    Per grade k the sign is (-1)^k for "grade", (-1)^(k(k-1)/2) for
    "reverse", and (-1)^(k(k+1)/2) for "conjugate" (their composition).
    """
    t = _get_tables(u.sig)
    if kind == "grade":
        signs = t.grade_signs
    elif kind == "reverse":
        signs = t.reverse_signs
    elif kind == "conjugate":
        signs = t.conjugate_signs
    else:
        raise ValueError(f"unknown involution {kind!r}; expected one of {_INVOLUTION_KINDS}")
    return Multivector(u.sig, u.coeffs * signs)


@dataclass(frozen=True)
class CenterElement:
    """Element of the center: scalar part plus (for odd n) a pseudoscalar part."""

    sig: Signature
    scalar_part: float
    pseudo_part: float = 0.0

    def __post_init__(self):
        if self.sig.n % 2 == 0 and self.pseudo_part != 0.0:
            raise ValueError("the center has no pseudoscalar component in even dimension")

    def embed(self) -> Multivector:
        arr = np.zeros(1 << self.sig.n)
        arr[0] = self.scalar_part
        if self.sig.n % 2 == 1:
            arr[-1] = self.pseudo_part
        return Multivector(self.sig, arr)


def center_project(u: Multivector) -> CenterElement:
    """Project onto the center: the scalar, plus the pseudoscalar when n is odd."""
    if u.sig.n % 2 == 1:
        return CenterElement(u.sig, u.scalar_part, u.pseudoscalar_part)
    return CenterElement(u.sig, u.scalar_part)


def versor_inverse(s: Multivector, tol: float = 1e-8) -> Multivector:
    """Inverse of a unit versor, computed as sign(reverse(S)S) * reverse(S)."""
    reversed_s = involution(s, "reverse")
    product = geometric_product(reversed_s, s)
    sigma = product.scalar_part
    rest = product.coeffs.copy()
    rest[0] = 0.0
    if abs(abs(sigma) - 1.0) > tol or float(np.max(np.abs(rest))) > tol * max(1.0, abs(sigma)):
        raise NotAVersorError(
            f"reverse(S)*S is not a unit scalar (scalar {sigma:.6g}, "
            f"off-scalar {float(np.max(np.abs(rest))):.3e})"
        )
    return reversed_s * (1.0 if sigma > 0 else -1.0)


def pseudoscalar_square(sig: Signature) -> float:
    """Square of the unit pseudoscalar: (-1)^(n(n-1)/2 + q)."""
    return -1.0 if (sig.n * (sig.n - 1) // 2 + sig.q) % 2 else 1.0
