"""Independent references, summed term by term, for cross-checking the production routines.

Nothing here is on the production path, and no production module imports
this one.  Each function forms its quantity literally, so that it shares no
shortcut with the routine it checks:

* ``spin_numerator``: the 2^n-term sum of det^|A| * frame blade(A) * e^A
  with every frame blade built from minors (production: the nested form in
  ``recovery``);
* ``frame_blade``: a grade-k frame blade from its k x k minors
  (production: the product of frame vectors in ``matrices``);
* ``average_over_basis`` and ``generator_conjugation``: the averaging sums
  over all blades and over the generators (closed forms:
  ``center_project`` and the eigenvalue (-1)^k (n - 2k) on grade k).
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .algebra import Multivector, _blade_mul_left, _blade_mul_right, _get_tables
from .matrices import OrthoMatrix, _check_multi_index, minor


def frame_blade(matrix: OrthoMatrix, indices) -> Multivector:
    """Product of the frame vectors over an ascending multi-index, as a sum of k x k minors."""
    sig = matrix.sig
    indices = _check_multi_index(indices, sig.n)
    arr = np.zeros(1 << sig.n)
    for cols in combinations(range(1, sig.n + 1), len(indices)):
        arr[sum(1 << (b - 1) for b in cols)] = minor(matrix, indices, cols)
    return Multivector(sig, arr)


def spin_numerator(matrix: OrthoMatrix) -> Multivector:
    """Sum of det^|A| * frame blade(A) * e^A over every blade A, each blade from minors."""
    t = _get_tables(matrix.sig)
    acc = np.zeros(t.size)
    acc[0] = 1.0
    for mask in range(1, t.size):
        indices = [a + 1 for a in range(t.n) if mask >> a & 1]
        factor = float(t.blade_square[mask]) * (matrix.det_sign if len(indices) % 2 else 1)
        acc += _blade_mul_right(t, frame_blade(matrix, indices).coeffs, mask, factor)
    return Multivector(matrix.sig, acc)


def average_over_basis(u: Multivector) -> Multivector:
    """Average of e_A U e^A over all 2**n basis blades; equals ``center_project(u).embed()``."""
    t = _get_tables(u.sig)
    acc = np.zeros(t.size)
    for mask in range(t.size):
        term = _blade_mul_right(t, u.coeffs, mask, float(t.blade_square[mask]))
        acc += _blade_mul_left(t, term, mask)
    return Multivector(u.sig, acc / t.size)


def generator_conjugation(u: Multivector) -> Multivector:
    """Sum of e_a U e^a over the n generators; (-1)^k (n - 2k) times a pure grade-k input."""
    t = _get_tables(u.sig)
    acc = np.zeros(t.size)
    for a in range(t.n):
        bit = 1 << a
        term = _blade_mul_right(t, u.coeffs, bit, float(t.metric[a]))
        acc += _blade_mul_left(t, term, bit)
    return Multivector(u.sig, acc)
