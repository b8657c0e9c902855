"""Pseudo-orthogonal matrices: validation, minors, transformed frames.

Convention: ``entries[a-1, b-1]`` is the coefficient of e_b in the image of
e_a, i.e. row a holds the coordinates of the a-th transformed frame vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .algebra import Multivector, Signature, _get_tables, _vector_mul_right
from .errors import MinorIdentityError, NotPseudoOrthogonalError

DEFAULT_ORTHO_TOLERANCE = 1e-9


def metric_matrix(sig: Signature) -> np.ndarray:
    """The n x n diagonal metric: +1 on the first p entries, -1 on the rest."""
    return np.diag(sig.metric())


@dataclass(frozen=True)
class OrthoMatrix:
    """A validated element of O(p,q).  Construct via validate_pseudo_orthogonal."""

    sig: Signature
    entries: np.ndarray
    residual: float
    det: float

    @property
    def det_sign(self) -> int:
        return 1 if self.det > 0 else -1

    def row(self, a: int) -> np.ndarray:
        """Coordinates of the image of e_a (1-based)."""
        return self.entries[a - 1]


def validate_pseudo_orthogonal(entries, sig: Signature, tol: float = DEFAULT_ORTHO_TOLERANCE) -> OrthoMatrix:
    """Check P^T eta P = eta and wrap the matrix.

    The residual is accepted when it is at most ``tol`` times the square of
    the entry peak (floored at 1): the check product carries intermediates of
    that magnitude, so an absolute bound would spuriously reject strong
    boosts.  For matrices with entries bounded by 1 this is a plain absolute
    check.  Raises NotPseudoOrthogonalError carrying the raw residual.
    """
    arr = np.array(entries, dtype=np.float64)
    n = sig.n
    if arr.shape != (n, n):
        raise ValueError(f"expected a {n}x{n} matrix for {sig}, got shape {arr.shape}")
    eta = metric_matrix(sig)
    residual = float(np.max(np.abs(arr.T @ eta @ arr - eta)))
    peak = float(np.max(np.abs(arr)))
    # Written so that a NaN tolerance rejects, and an infinite one, which would
    # accept any matrix, too.
    bound = tol * max(1.0, peak * peak)
    if not (np.isfinite(residual) and np.isfinite(bound) and residual <= bound):
        raise NotPseudoOrthogonalError(residual)
    det = float(np.linalg.det(arr))
    if abs(abs(det) - 1.0) > max(100.0 * tol, 1e-6):
        raise NotPseudoOrthogonalError(residual, f"determinant {det:.6g} is not +-1")
    arr.setflags(write=False)
    return OrthoMatrix(sig=sig, entries=arr, residual=residual, det=det)


def _as_entries(matrix) -> np.ndarray:
    if isinstance(matrix, OrthoMatrix):
        return matrix.entries
    return np.asarray(matrix, dtype=np.float64)


def _check_multi_index(indices, n: int) -> tuple[int, ...]:
    out = tuple(int(a) for a in indices)
    if any(a < 1 or a > n for a in out) or any(x >= y for x, y in zip(out, out[1:])):
        raise ValueError(f"multi-index {out} must be strictly increasing with entries in 1..{n}")
    return out


def minor(matrix, rows, cols) -> float:
    """Determinant of the submatrix picked by two equal-length multi-indices.

    Multi-indices are strictly increasing 1-based tuples; the empty minor is 1.
    Orders up to 3 expand directly, larger ones go through LU.
    """
    entries = _as_entries(matrix)
    n = entries.shape[0]
    rows = _check_multi_index(rows, n)
    cols = _check_multi_index(cols, n)
    if len(rows) != len(cols):
        raise ValueError(f"multi-indices must have equal length, got {len(rows)} and {len(cols)}")
    k = len(rows)
    if k == 0:
        return 1.0
    sub = entries[np.ix_([a - 1 for a in rows], [b - 1 for b in cols])]
    if k == 1:
        return float(sub[0, 0])
    if k == 2:
        return float(sub[0, 0] * sub[1, 1] - sub[0, 1] * sub[1, 0])
    if k == 3:
        return float(
            sub[0, 0] * (sub[1, 1] * sub[2, 2] - sub[1, 2] * sub[2, 1])
            - sub[0, 1] * (sub[1, 0] * sub[2, 2] - sub[1, 2] * sub[2, 0])
            + sub[0, 2] * (sub[1, 0] * sub[2, 1] - sub[1, 1] * sub[2, 0])
        )
    return float(np.linalg.det(sub))


@dataclass(frozen=True)
class GroupComponent:
    """Which of the five orthogonal groups a matrix belongs to.

    ``top_minor_sign`` is the sign of the leading p x p principal minor,
    ``bottom_minor_sign`` of the trailing q x q one; empty minors count as +1.
    """

    det_sign: int
    top_minor_sign: int
    bottom_minor_sign: int
    in_o: bool
    in_so: bool
    in_o_plus: bool
    in_o_minus: bool
    in_so_plus: bool

    def group_names(self) -> list[str]:
        names = []
        if self.in_o:
            names.append("O")
        if self.in_so:
            names.append("SO")
        if self.in_o_plus:
            names.append("O+")
        if self.in_o_minus:
            names.append("O-")
        if self.in_so_plus:
            names.append("SO+")
        return names


def classify_component(matrix: OrthoMatrix, tol: float = DEFAULT_ORTHO_TOLERANCE) -> GroupComponent:
    """Classify a validated matrix by determinant and the two principal minors.

    Also asserts the structural identities: both minors have magnitude >= 1
    and top = bottom / det.  A violation beyond tolerance means the input is
    numerically corrupt and raises MinorIdentityError.  The tolerance is
    scaled by the entry peak raised to the minor order, the backward-error
    magnitude of a determinant of that size.
    """
    p, n = matrix.sig.p, matrix.sig.n
    q = n - p
    det = matrix.det
    top = minor(matrix, range(1, p + 1), range(1, p + 1))
    bottom = minor(matrix, range(p + 1, n + 1), range(p + 1, n + 1))
    entry_peak = max(1.0, float(np.max(np.abs(matrix.entries))))
    scale = max(1.0, abs(top), abs(bottom), entry_peak**p, entry_peak**q)
    if abs(top - bottom / det) > tol * scale:
        raise MinorIdentityError(
            f"principal minors violate top = bottom/det: {top:.6g} vs {bottom:.6g}/{det:.6g}"
        )
    if abs(top) < 1.0 - tol * scale or abs(bottom) < 1.0 - tol * scale:
        raise MinorIdentityError(
            f"principal minors must have magnitude >= 1, got {top:.6g} and {bottom:.6g}"
        )
    det_sign = 1 if det > 0 else -1
    top_sign = 1 if top > 0 else -1
    bottom_sign = 1 if bottom > 0 else -1
    in_so = det_sign > 0
    in_o_plus = top_sign > 0
    return GroupComponent(
        det_sign=det_sign,
        top_minor_sign=top_sign,
        bottom_minor_sign=bottom_sign,
        in_o=True,
        in_so=in_so,
        in_o_plus=in_o_plus,
        in_o_minus=bottom_sign > 0,
        in_so_plus=in_so and in_o_plus,
    )


def frame_vector(matrix: OrthoMatrix, a: int) -> Multivector:
    """The transformed frame vector with coordinates from row a (1-based)."""
    if not 1 <= a <= matrix.sig.n:
        raise ValueError(f"generator index {a} out of range 1..{matrix.sig.n}")
    return Multivector.from_vector(matrix.sig, matrix.entries[a - 1])


def frame_blade(matrix: OrthoMatrix, indices, method: str = "product") -> Multivector:
    """Product of transformed frame vectors over an ascending multi-index.

    method="product" multiplies the frame vectors directly; method="minors"
    builds the same grade-k element as a sum of k x k minors over all column
    multi-indices.  The two agree for pseudo-orthogonal input, which is
    exactly what makes the second form a useful cross-check.
    """
    sig = matrix.sig
    indices = _check_multi_index(indices, sig.n)
    t = _get_tables(sig)
    if method == "product":
        arr = np.zeros(t.size)
        arr[0] = 1.0
        for a in indices:
            arr = _vector_mul_right(t, arr, matrix.entries[a - 1])
        return Multivector(sig, arr)
    if method == "minors":
        arr = np.zeros(t.size)
        for cols in combinations(range(1, sig.n + 1), len(indices)):
            mask = 0
            for b in cols:
                mask |= 1 << (b - 1)
            arr[mask] = minor(matrix, indices, cols)
        return Multivector(sig, arr)
    raise ValueError(f"unknown method {method!r}; expected 'product' or 'minors'")
