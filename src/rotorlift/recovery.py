"""Recovering double-cover spin elements from pseudo-orthogonal matrices.

The central construction sums, over every ascending multi-index A, the frame
blade built from the matrix rows times the reciprocal basis blade:

    N = sum_A det(P)^|A| * (row-frame blade for A) * e^A      (det factor only
                                                               matters for odd n)

It is summed in nested form, N = (1 + L_1)(1 + L_2)...(1 + L_n)(1) with
L_a(X) = det(P) f_a X e_a^-1 and f_a row a as a vector: n vector products,
O(n^2 2^n) work.  For a matrix P in the image of the twisted adjoint
representation, N equals 2^n * S * (central part of S^-1), so dividing N
by a central square root of sign * reverse(N) * N yields the two preimages
+-S.  Which of the candidate central roots is correct is decided by direct
verification against the matrix.

On strong boosts the sum loses digits to cancellation; where the winner's
residual is above ``_FALLBACK_THRESHOLD``, ``_csd_fallback`` keeps the
better verified of it and ``_csd_lift``, the lift through the hyperbolic CS
decomposition, O(n^2 2^n) with no dense product.  The route's domain
decisions run first and still reject.

The action of an element S, reverse(S)*S with the rows
grade_involution(S) e_a S^-1, is computed once per element by
``_twisted_action`` and shared by the verification residual, the group
classification and the forward map; S and -S share it.  It costs two
products, not n + 1: the grade-1 block of the rows is read in O(n^2 2^n),
and one probe product at fixed weights checks that no row leaves grade 1.
The n full rows are formed only when the probe is not clean at its
reader's bound.  The residual is the larger of the block defect max |M - P|
and the rows' off-vector peak, over max(1, entry peak).

``classify_spin`` and ``forward_matrix``, which are not handed an action,
make no dense product when a commutation-defect certificate settles their
checks (``_Action.certificate``): the scalar of reverse(S)*S comes from the
O(n 2^n) contraction that reads the block, and the defects D_a =
grade_involution(S) e_a - P_a S and E_a = e_a S - grade_involution(S) Q_a
(Q the inverse of the block P) are sums of signed permutations of S,
O(n^2 2^n) in all.  They bound every off-scalar coefficient of
reverse(S)*S and every off-vector coefficient of the rows.  Where a bound is
above its check's tolerance, that check is decided as before: the dense
gram, then the probe, then the rows.

From n0 = ``_LIFT_CERTIFICATE_DIMENSION`` on, ``recover_spin`` verifies its
candidate the same way (``_certified_winner``): the central part of
reverse(N)*N is read from two slots of the product kernel, the candidates
are admitted on lambda and compared on their blocks, and the winner's
certificate, plus the rounding of the dense product each check would make,
settles its admission, the "reverse(N)*N is not central" check
(``_non_central_bound``) and the rows of the residual.  Each check it does
not settle runs its dense form, so every decision is the one below n0; a
lift that the certificate settles makes no dense product.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    MAX_DIMENSION,
    CenterElement,
    Multivector,
    Signature,
    _blade_mul_left,
    _blade_mul_right,
    _central_parts,
    _get_tables,
    _product_arrays,
    _scalar_vector_parts,
    _vector_mul_right,
    pseudoscalar_square,
)
from .errors import (
    CenterProjectionVanishesError,
    HestenesConditionError,
    MixedParityError,
    NoRealRootError,
    NotAFrameError,
    NotInLipschitzGroupError,
    NotInPinError,
    NotPseudoOrthogonalError,
    SignatureMismatchError,
    SpecialOrthogonalRequiredError,
    VerificationFailedError,
    WrongComponentError,
)
from .matrices import (
    DEFAULT_ORTHO_TOLERANCE,
    OrthoMatrix,
    classify_component,
    minor,
    validate_pseudo_orthogonal,
)

DEFAULT_RESIDUAL_TOLERANCE = 1e-8
DEFAULT_DEGENERACY_TOLERANCE = 1e-8
# How far classify_spin and forward_matrix let S miss the Lipschitz group.
DEFAULT_CLASSIFY_TOLERANCE = 1e-8
# Smallest |lambda| = |<reverse(S)*S>_0| at which a candidate's action is formed.
_MIN_LAMBDA = 1e-9
# Residual above which recover_spin and recover_hestenes set the CSD lift
# (_csd_fallback) against their candidate.
_FALLBACK_THRESHOLD = 1e-11
# Fixed weights r_a = 1/sqrt(a + 2) of the probe sum_a r_a e_a (see
# _Action.off_vector): fixed, so that results repeat bit for bit.
_PROBE_WEIGHTS = 1.0 / np.sqrt(np.arange(MAX_DIMENSION) + 2.0)
# Dimension n0 from which recover_spin verifies its candidate by the
# commutation-defect certificate (see _certified_winner) instead of dense
# products.  Below it the certificate's fixed cost, about 20 numpy calls,
# exceeds the dense products it saves.
_LIFT_CERTIFICATE_DIMENSION = 8
# Unit roundoff of float64, and the multiple c of eps |S|^2 (|S| the 2-norm of
# the coefficients) that classify_spin allows for rounding in the scalar of
# reverse(S)*S, and over |lambda| in each computed row.  Over boosts at
# rapidity 0-30 times random_versor(sig, k), k = 0-4, in Cl(1,2) to Cl(5,4),
# the measured ratio peaked at 1.5 (rows) and 5.3 (scalar).
_EPS = float(np.finfo(np.float64).eps)
_ROUNDOFF_FLOOR = 8.0
# Coefficients at or below this are treated as zero when picking the
# canonical representative of the +-S pair.
CANONICAL_COEFF_TOLERANCE = 1e-9


@dataclass(frozen=True)
class SpinGroupTags:
    """Membership flags for the five normalized versor groups."""

    in_pin: bool
    in_spin: bool
    in_spin_plus: bool
    in_pin_plus: bool
    in_pin_minus: bool

    def group_names(self) -> list[str]:
        names = []
        if self.in_pin:
            names.append("Pin")
        if self.in_pin_plus:
            names.append("Pin+")
        if self.in_pin_minus:
            names.append("Pin-")
        if self.in_spin:
            names.append("Spin")
        if self.in_spin_plus:
            names.append("Spin+")
        return names


@dataclass(frozen=True)
class RotorResult:
    """One recovered representative of the +-S pair.

    ``norm_sign`` is the sign of reverse(S)*S (of conjugate(S)*S when
    n = 3 mod 4).  ``residual`` is the largest deviation of the conjugation
    action of S from the rows of the input matrix: the larger of the
    grade-1 block defect max |M - P| and the peak of the rows off grade 1,
    over max(1, entry peak).  Where the commutation-defect certificate
    settles the rows (lifts from n = 8 on), the off-vector peak
    is the certificate's bound on it, with the rounding of the dense rows,
    and the residual is then at most 1e-11 and at most ``residual_tol``.
    """

    spin: Multivector
    norm_sign: int
    residual: float
    groups: SpinGroupTags
    warning: str | None = None


def canonicalize_sign(s: Multivector, tol: float = CANONICAL_COEFF_TOLERANCE) -> Multivector:
    """Pick the representative of {S, -S} whose lowest nonzero blade is positive."""
    for value in s.coeffs:
        if abs(value) > tol:
            return -s if value < 0 else s
    return s


def _numerator_array(matrix: OrthoMatrix) -> np.ndarray:
    """Numerator sum in nested form, n vector products in all.

    N = (1 + L_1)(1 + L_2)...(1 + L_n)(1) with L_a(X) = det * f_a X e_a^-1 and
    f_a row a as a vector; this builds reverse(N) as Y <- Y + det * e_a^-1 Y f_a.
    """
    t = _get_tables(matrix.sig)
    y = np.zeros(t.size)
    y[0] = 1.0
    for a in reversed(range(t.n)):
        f_y = _vector_mul_right(t, y, matrix.entries[a])
        y = y + _blade_mul_left(t, f_y, 1 << a, matrix.det_sign * float(t.metric[a]))
    return y * t.reverse_signs


def spin_numerator(matrix: OrthoMatrix) -> Multivector:
    """The 2^n-term sum of det^|A| * frame blade(A) * e^A, in nested form.

    For even n the matrix must have determinant +1; there is no recovery
    formula for the improper even-dimensional components.  The result is
    always an even element.  ``rotorlift.reference.spin_numerator`` sums the
    terms one by one from minors, as an independent check.
    """
    if matrix.sig.n % 2 == 0 and matrix.det_sign < 0:
        raise SpecialOrthogonalRequiredError(
            "even-dimensional recovery needs det = +1; this matrix has det = -1"
        )
    return Multivector(matrix.sig, _numerator_array(matrix))


def spinor_norm_sign(matrix: OrthoMatrix) -> int:
    """Sign of reverse(S)*S (conjugate(S)*S when n = 3 mod 4) read off the matrix.

    Even n uses the leading p x p principal minor, n = 1 mod 4 the trailing
    q x q one, n = 3 mod 4 the leading one again.  Empty minors count as +1.
    """
    sig = matrix.sig
    p, n = sig.p, sig.n
    if n % 2 == 0 or n % 4 == 3:
        value = minor(matrix, range(1, p + 1), range(1, p + 1))
    else:
        value = minor(matrix, range(p + 1, n + 1), range(p + 1, n + 1))
    return 1 if value > 0 else -1


def central_sqrt_candidates(z: CenterElement, tol: float = 1e-12) -> list[CenterElement]:
    """Square roots of a central element, up to overall sign.

    Even n: the center is the reals, so the scalar must be positive and there
    is one candidate.  Odd n splits on the square of the pseudoscalar w:

    * w^2 = +1: the center is a double-number algebra; diagonalize via the
      idempotents (1 +- w)/2.  Both eigenvalues must be nonnegative and the
      two relative sign choices give up to two candidates.
    * w^2 = -1: the center is the complex numbers; take the principal root.
    """
    sig = z.sig
    if sig.n % 2 == 0:
        if z.scalar_part <= 0.0:
            raise NoRealRootError(
                f"central element {z.scalar_part:.6g} has no positive real square root"
            )
        return [CenterElement(sig, math.sqrt(z.scalar_part))]
    if pseudoscalar_square(sig) > 0:
        lam_plus = z.scalar_part + z.pseudo_part
        lam_minus = z.scalar_part - z.pseudo_part
        scale = max(abs(lam_plus), abs(lam_minus), 1.0)
        if lam_plus < -tol * scale or lam_minus < -tol * scale:
            raise NoRealRootError(
                f"central eigenvalues {lam_plus:.6g}, {lam_minus:.6g} are not both nonnegative"
            )
        root_plus = math.sqrt(max(lam_plus, 0.0))
        root_minus = math.sqrt(max(lam_minus, 0.0))
        first = CenterElement(sig, (root_plus + root_minus) / 2.0, (root_plus - root_minus) / 2.0)
        if root_minus == 0.0:
            return [first]
        second = CenterElement(sig, (root_plus - root_minus) / 2.0, (root_plus + root_minus) / 2.0)
        return [first, second]
    w = cmath.sqrt(complex(z.scalar_part, z.pseudo_part))
    return [CenterElement(sig, w.real, w.imag)]


def _central_inverse(z: CenterElement) -> CenterElement | None:
    """Inverse in the center algebra, or None when z is not invertible."""
    sig = z.sig
    tiny = 1e-300
    if sig.n % 2 == 0:
        if abs(z.scalar_part) < tiny:
            return None
        return CenterElement(sig, 1.0 / z.scalar_part)
    if pseudoscalar_square(sig) > 0:
        mu_plus = z.scalar_part + z.pseudo_part
        mu_minus = z.scalar_part - z.pseudo_part
        if abs(mu_plus) < tiny or abs(mu_minus) < tiny:
            return None
        inv_plus = 1.0 / mu_plus
        inv_minus = 1.0 / mu_minus
        return CenterElement(sig, (inv_plus + inv_minus) / 2.0, (inv_plus - inv_minus) / 2.0)
    denom = z.scalar_part * z.scalar_part + z.pseudo_part * z.pseudo_part
    if denom < tiny:
        return None
    return CenterElement(sig, z.scalar_part / denom, -z.pseudo_part / denom)


def _gram(t, s_arr: np.ndarray) -> np.ndarray:
    """reverse(S)*S."""
    return _product_arrays(t, s_arr * t.reverse_signs, s_arr)


def _gram_scalar(t, s_arr: np.ndarray) -> float:
    """<reverse(S)*S>_0 in O(n 2^n), equal to ``_gram(t, s_arr)[0]`` bit for bit."""
    return _scalar_vector_parts(t, (s_arr * t.reverse_signs)[None], s_arr)[0, 0]


def _product_rounding(t, norm_u: float, norm_v: float) -> float:
    """Rounding in any coefficient of a computed product u * v, from the 2-norms |u|, |v|.

    A coefficient is a sum of 2^n terms u_A v_B over distinct A and distinct
    B, so it is within gamma_{2^n} sum |u_A v_B| <= 2^n eps |u| |v| of the
    exact one (Higham, *Accuracy and Stability of Numerical Algorithms*,
    ch. 3; Cauchy-Schwarz).
    """
    return t.size * _EPS * norm_u * norm_v


def _norm(t, arr: np.ndarray) -> float:
    """2-norm of a coefficient array, times 1 + (n + 14) eps for np.sum's rounding.

    np.sum adds the squares pairwise over blocks of at most 128 (16 terms in
    each of 8 lanes), so the computed norm is within (n + 14) eps / 2 of the
    exact one, relatively; the factor also covers a few rounded operations
    that combine such norms into a bound.
    """
    return math.sqrt(float(np.sum(arr * arr))) * (1.0 + (t.n + 14) * _EPS)


def _off_scalar(gram: np.ndarray) -> float:
    """Largest coefficient of reverse(S)*S off the scalar blade."""
    return float(np.max(np.abs(gram[1:])))


def _usable_gram(gram: np.ndarray, peak: float) -> bool:
    """Whether reverse(S)*S is a nonzero scalar to the residual's tolerance."""
    return _usable(gram[0], _off_scalar(gram), peak)


def _usable(lam: float, off_scalar: float, peak: float) -> bool:
    """``_usable_gram`` from lambda and the (bound on the) largest off-scalar coefficient."""
    lam = abs(lam)
    return not (lam < _MIN_LAMBDA or off_scalar > 1e-6 * max(1.0, lam, peak * peak))


class _Action:
    """The twisted action of S on the generators, shared by S and -S.

    ``lam`` is the scalar of reverse(S)*S and ``gram`` the whole of it, a
    dense product formed on first use; ``_twisted_action`` forms it at once
    to admit S, while the actions that ``_classify`` and the certified lift
    build read ``lam`` alone and form the gram only where their certificate
    does not settle it.  The rest exists only when S is admitted: ``block``,
    ``rows`` and the probe are None otherwise.  ``rows``, the full rows
    grade_involution(S) e_a S^-1 stacked n x 2^n, stay None until
    ``form_rows()`` or ``off_vector()`` forms them.  Each is read from V_a =
    grade_involution(S) e_a, a signed permutation of S, and S^-1 =
    reverse(S) / lam: row a is the product V_a S^-1.
    """

    __slots__ = ("t", "s", "lam", "rows", "norm", "_gram", "_block", "_images", "_inverse",
                 "_probe_off", "_bounds")

    def __init__(self, t, s_arr, lam, gram=None, admitted=True):
        self.t, self.s, self.lam, self._gram = t, s_arr, lam, gram
        self.rows = self.norm = self._block = self._probe_off = self._images = None
        self._inverse = self._bounds = None
        if admitted:
            self._inverse = (s_arr * t.reverse_signs) / lam
            hat = s_arr * t.grade_signs
            self._images = np.stack([_blade_mul_right(t, hat, 1 << a) for a in range(t.n)])

    @property
    def gram(self) -> np.ndarray:
        """reverse(S)*S, one dense product formed on first use."""
        if self._gram is None:
            self._gram = _gram(self.t, self.s)
        return self._gram

    @property
    def gram_formed(self) -> bool:
        return self._gram is not None

    @property
    def block(self) -> np.ndarray | None:
        """The n x n grade-1 block of the rows, formed once.

        Read by ``_scalar_vector_parts`` in O(n^2 2^n) while the rows are not
        formed, and sliced from them after; the two agree bit for bit.
        """
        if self._block is None and self._images is not None:
            if self.rows is None:
                self._block = _scalar_vector_parts(self.t, self._images, self._inverse)[:, 1:]
            else:
                self._block = self.rows[:, self.t.grades == 1]
        return self._block

    def form_rows(self) -> np.ndarray | None:
        """The n full rows, formed once: n products."""
        if self.rows is None and self._images is not None:
            self.rows = np.stack([_product_arrays(self.t, u, self._inverse) for u in self._images])
        return self.rows

    def defects(self) -> tuple[np.ndarray, np.ndarray]:
        """The commutation defects D = V - P U and E = U - Q V, each n x 2^n.

        U_b = e_b S and V_a = grade_involution(S) e_a are signed permutations
        of S, P is the block and Q = eta P^T eta the inverse it stands for
        (eta the metric), so D_a = V_a - P_a S and E_a = U_a -
        grade_involution(S) Q_a with P_a, Q_a the rows as vectors.  Both
        vanish exactly when S is in the Lipschitz group and P is its action.
        O(n^2 2^n), no BLAS.
        """
        t = self.t
        lefts = np.stack([_blade_mul_left(t, self.s, 1 << b) for b in range(t.n)])
        inverse_block = t.metric[:, None] * self.block.T * t.metric
        return (self._images - np.einsum("ab,bk->ak", self.block, lefts),
                lefts - np.einsum("ab,bk->ak", inverse_block, self._images))

    def certificate(self) -> tuple[float, np.ndarray]:
        """Bounds (g, r) that settle the Lipschitz checks with no dense product.

        g bounds every coefficient of G = reverse(S)*S off the scalar blade,
        and r[a] the off-vector peak of row a, for the exact rows
        grade_involution(S) e_a reverse(S) / lam.  With D, E from ``defects()``,
        H = S*reverse(S) and x^ the grade involution, for any S, P and Q:

            G^ e_a - e_a G = reverse(S)^ D_a + reverse(D_a)^ S
            H^ e_a - e_a H = -S^ reverse(E_a)^ - E_a reverse(S)

        For a blade e_B, e_B^ e_a - e_a e_B is +-2 e_B e_a when a is in B and
        0 otherwise, so each coefficient G_B, B nonempty, appears with factor
        +-2 in the left side for every a in B; and a coefficient of a product
        is at most the product of the factors' 2-norms (Cauchy-Schwarz).  So
        |G_B| <= max_a |D_a| |S| = g and |H_B| <= max_a |E_a| |S| = h, with
        |.| the 2-norm.  H has the scalar of G, so H - <H>_0 has no
        coefficient above h, and the rows satisfy

            row_a - P_a = (P_a (H - <H>_0) + D_a reverse(S)) / lam,

        whose off-vector coefficients are at most r[a] = (|P_a|_1 h +
        |D_a| |S|) / |lam|, with |P_a|_1 the row's 1-norm.

        Rounding: a computed coefficient of D_a is V_a - sum_b P_ab U_b up to
        gamma_{n+1} (|V_a| + sum_b |P_ab| |U_b|) (Higham, *Accuracy and
        Stability of Numerical Algorithms*, ch. 3), and U_b, V_a have the
        2-norm |S|, so the computed D_a is within (n + 2) eps (1 + |P_a|_1) |S|
        of the exact one in 2-norm; |Q_a|_1 takes the place of |P_a|_1 for
        E_a.  Each norm is taken as (1 + (n + 14) eps) times its computed
        value (see ``_norm``).  Computed once; ``norm`` keeps |S|.
        """
        if self._bounds is None:
            t, block = self.t, self.block
            grow = 1.0 + (t.n + 14) * _EPS
            slack = (t.n + 2) * _EPS
            norm = self.norm = _norm(t, self.s)
            d, e = (np.sqrt(np.sum(x * x, axis=1)) * grow for x in self.defects())
            p_norms = np.sum(np.abs(block), axis=1)
            d_bounds = (d + slack * (1.0 + p_norms) * norm) * norm
            h = float(np.max((e + slack * (1.0 + np.sum(np.abs(block), axis=0)) * norm) * norm))
            self._bounds = float(np.max(d_bounds)), (p_norms * h + d_bounds) / abs(self.lam)
        return self._bounds

    @property
    def certified(self) -> bool:
        return self._bounds is not None

    def dense_bounds(self) -> tuple[float, np.ndarray]:
        """Bounds (g, r) on what the dense gram and the dense rows would read.

        ``certificate()`` bounds the exact values.  The computed product adds
        at most ``_product_rounding`` to each coefficient, and S^-1 =
        reverse(S) / lam, rounded, adds eps |S|^2 / |lam| to each row.
        """
        g, r = self.certificate()
        rounding = _product_rounding(self.t, self.norm, self.norm)
        return g + rounding, r + (rounding + _EPS * self.norm * self.norm) / abs(self.lam)

    def off_vector(self, bound: float) -> float:
        """Largest coefficient of the rows off grade 1, exact whenever it exceeds ``bound``.

        Read from the rows once they are formed.  Before that, one probe
        product grade_involution(S) (sum_a r_a e_a) S^-1 = sum_a r_a row_a at
        the fixed weights ``_PROBE_WEIGHTS`` stands in for them, formed once
        and shared by every caller.  The probe is clean when its off-vector
        peak is at most ``bound`` times the smallest weight, so that no single
        row leaves grade 1 by more than ``bound``; otherwise the rows are
        formed and read.  A clean probe misses rows only when the off-vector
        parts of several rows cancel at these weights.
        """
        t = self.t
        vector_slots = t.grades == 1
        if self.rows is None:
            weights = _PROBE_WEIGHTS[:t.n]
            if self._probe_off is None:
                probe = _product_arrays(t, np.einsum("a,ak->k", weights, self._images), self._inverse)
                self._probe_off = float(np.max(np.abs(probe[~vector_slots])))
            if self._probe_off <= bound * weights[-1]:
                return self._probe_off
            self.form_rows()
        return float(np.max(np.abs(self.rows[:, ~vector_slots])))


def _twisted_action(t, s_arr: np.ndarray) -> _Action:
    """The action of S: one product for reverse(S)*S, and the rest on demand.

    Only an action whose gram is usable (``_usable_gram``) can form its
    block, rows or probe.
    """
    gram = _gram(t, s_arr)
    return _Action(t, s_arr, gram[0], gram, _usable_gram(gram, float(np.max(np.abs(s_arr)))))


def _entry_scale(matrix: OrthoMatrix) -> float:
    """max(1, entry peak of P): the scale of the residual and of every check relative to P."""
    return max(1.0, float(np.max(np.abs(matrix.entries))))


def _block_defect(action: _Action, matrix: OrthoMatrix) -> float:
    """max |M - P| over the grade-1 block, scaled; inf when absent or not finite."""
    if action.block is None:
        return math.inf
    worst = float(np.max(np.abs(action.block - matrix.entries)))
    scale = _entry_scale(matrix)
    return worst / scale if math.isfinite(worst) else math.inf


def _residual(action: _Action, matrix: OrthoMatrix) -> float:
    """Scaled twisted-adjoint residual: the block defect and the off-vector peak of the rows.

    The off-vector peak comes from the probe where it is clean at
    ``_FALLBACK_THRESHOLD`` of the entry scale, and from the full rows otherwise.
    """
    defect = _block_defect(action, matrix)
    if not math.isfinite(defect):
        return math.inf
    scale = _entry_scale(matrix)
    off = action.off_vector(_FALLBACK_THRESHOLD * scale) / scale
    return max(defect, off) if math.isfinite(off) else math.inf


def twisted_adjoint_residual(s: Multivector, matrix: OrthoMatrix) -> float:
    """Largest deviation of grade_involution(S) e_a S^-1 from the rows of P.

    That is the larger of the grade-1 block defect max |M - P| and the peak
    of the rows off grade 1.  The off-vector peak comes from one probe
    product when that probe is clean at 1e-11 of the matrix's magnitude,
    and from the n full rows otherwise.  The deviation is taken relative to
    the magnitude of the matrix (with a floor of 1, so it coincides with the
    plain absolute deviation whenever the entries are bounded by 1, e.g. for
    rotations).  Entries of strong boosts grow without bound and an absolute
    measure would conflate scale with accuracy.

    Returns inf when S has no usable inverse (reverse(S)*S far from a nonzero
    scalar), so unusable candidates lose any comparison.
    """
    return _residual(_twisted_action(_get_tables(s.sig), s.coeffs), matrix)


def _verified(t, arr, action, residual, residual_tol, norm_sign, warning, matrix) -> RotorResult:
    """Verify a candidate and classify its sign-canonical form by the candidate's action.

    The rows are judged at the residual's scale, max(1, entry peak of P).
    """
    if arr is None or not residual <= residual_tol or not math.isfinite(residual_tol):
        raise VerificationFailedError(residual)
    spin = canonicalize_sign(Multivector(t.sig, arr))
    groups = _classify(t, spin.coeffs, action=action, row_scale=_entry_scale(matrix))[0]
    return RotorResult(spin, norm_sign, residual, groups, warning)


def recover_spin(
    matrix: OrthoMatrix,
    *,
    residual_tol: float = DEFAULT_RESIDUAL_TOLERANCE,
    degeneracy_tol: float = DEFAULT_DEGENERACY_TOLERANCE,
) -> RotorResult:
    """Find the +-S double-cover preimages of a pseudo-orthogonal matrix.

    Builds the numerator sum in nested form (``spin_numerator``),
    normalizes by the central square root whose sign is fixed by the
    component of the group, and keeps the candidate with the smallest
    verification residual, or the CS-decomposition lift where that verifies
    better (``_csd_fallback``).  The returned representative is
    sign-canonicalized; the other preimage is its negative.

    Before a VerificationFailedError is raised, the sum that ``_csd_lift``
    implies is put to the degeneracy gate, as in ``_csd_fallback``.
    """
    sig = matrix.sig
    t = _get_tables(sig)
    numerator = spin_numerator(matrix).coeffs
    # N = 2^n S center(S^-1) grows with the entries, so the gate scales with both.
    scale = float(1 << sig.n) * _entry_scale(matrix)
    peak = float(np.max(np.abs(numerator)))

    def gate(numerator_peak: float) -> None:
        if not numerator_peak >= scale * degeneracy_tol:  # a NaN tolerance rejects
            raise CenterProjectionVanishesError(
                "the numerator sum is numerically zero: the spin element for this matrix "
                "has vanishing central part and cannot be recovered by this construction"
            )

    def guard(s_arr: np.ndarray, lam: float) -> None:  # the lift implies N = 2^n S center(S^-1)
        gate(float(1 << sig.n) * _implied_peak(t, s_arr, lam, sig.n % 2))

    gate(peak)
    warning = None
    if peak < scale * math.sqrt(degeneracy_tol):
        warning = (
            f"numerator peak {peak:.3e} is close to the degeneracy threshold; "
            "the result may be ill-conditioned"
        )
    norm_sign = spinor_norm_sign(matrix)
    certify = sig.n >= _LIFT_CERTIFICATE_DIMENSION
    try:
        if certify:
            scalar, pseudo = _central_parts(t, numerator * t.reverse_signs, numerator)
            central = CenterElement(sig, scalar * norm_sign, pseudo * norm_sign if sig.n % 2 else 0.0)
        else:
            central = _central_gram(t, numerator, norm_sign, peak)
        try:
            roots = central_sqrt_candidates(central)
        except NoRealRootError:
            if certify:  # a non-central reverse(N)*N is reported first, as below n0
                _central_gram(t, numerator, norm_sign, peak)
            raise
        candidates = _candidates(t, numerator, roots)
        # Candidates are compared on their blocks; a winner's block defect above
        # _FALLBACK_THRESHOLD stands as its residual, a lower bound, for the lift.
        if certify:
            best, best_action, best_residual = _certified_winner(
                t, numerator, candidates, matrix, norm_sign, peak, residual_tol)
        else:
            _, best, best_action, best_residual = _choose(t, candidates, matrix, _twisted_action)
            if best_residual <= _FALLBACK_THRESHOLD:
                best_residual = _residual(best_action, matrix)
        if best_residual > _FALLBACK_THRESHOLD:
            best, best_action, best_residual = _csd_fallback(
                t, matrix, best, best_action, best_residual, residual_tol, guard)
        return _verified(t, best, best_action, best_residual, residual_tol, norm_sign, warning,
                         matrix)
    except VerificationFailedError:  # the sum may have cleared the gate on rounding alone
        lift = _csd_lift(t, matrix)
        guard(lift, _gram_scalar(t, lift))
        raise


def _central_gram(t, numerator: np.ndarray, norm_sign: int, peak: float) -> CenterElement:
    """Central part of sign * reverse(N)*N from the dense product, which must be central."""
    gram = _gram(t, numerator) * float(norm_sign)
    off_center = gram.copy()
    off_center[0] = 0.0
    if t.n % 2 == 1:
        off_center[-1] = 0.0
    if float(np.max(np.abs(off_center))) > _non_central_limit(peak):
        raise VerificationFailedError(
            float(np.max(np.abs(off_center))),
            "reverse(N)*N is not central; the input is outside the method's domain",
        )
    return CenterElement(t.sig, float(gram[0]), float(gram[-1]) if t.n % 2 == 1 else 0.0)


def _non_central_limit(peak: float) -> float:
    """Largest non-central coefficient of reverse(N)*N taken for roundoff.

    Roundoff in the gram scales with the square of the numerator peak (the
    intermediate product magnitude), not with the gram itself.
    """
    return 1e-7 * max(1.0, peak * peak)


def _candidates(t, numerator: np.ndarray, roots) -> list:
    """(Z, N / Z) for each central root Z that has an inverse."""
    candidates = []
    for root in roots:
        inverse = _central_inverse(root)
        if inverse is None:
            continue
        arr = numerator * inverse.scalar_part
        if t.n % 2 == 1 and inverse.pseudo_part != 0.0:
            arr = arr + _blade_mul_right(t, numerator, t.full_mask, inverse.pseudo_part)
        candidates.append((root, arr))
    return candidates


def _light_action(t, s_arr: np.ndarray) -> _Action:
    """The action of S without its dense gram: admitted while |lambda| >= ``_MIN_LAMBDA``."""
    lam = _gram_scalar(t, s_arr)
    return _Action(t, s_arr, lam, admitted=not abs(lam) < _MIN_LAMBDA)


def _choose(t, candidates, matrix: OrthoMatrix, make_action, skip_image=False):
    """(root, S, action, block defect) of the candidate whose grade-1 block is closest to P.

    With ``skip_image``, the second candidate is not read where the first
    provably wins (``_image_loses``).
    """
    best = (None, None, None, math.inf)
    for root, arr in candidates:
        if skip_image and best[2] is not None and _image_loses(t, best[2], best[3], matrix):
            break
        action = make_action(t, arr)
        defect = _block_defect(action, matrix)
        if defect < best[3]:
            best = (root, arr, action, defect)
    return best


def _image_loses(t, action: _Action, defect: float, matrix: OrthoMatrix) -> bool:
    """Whether the second candidate, S I, has a larger computed block defect than S.

    Two candidates arise only at odd n with I^2 = +1: the roots are Z and
    Z I, ``_central_inverse`` gives them the same two floats swapped, and so
    the second candidate is exactly S I (up to the sign of zeros).  I is
    central and grade involution negates it, so the exact block of S I is
    -M.  A computed block is within delta = (2^n + 1) eps |S|^2 (2 + max |M|)
    / |lambda| of the exact one, from the product's rounding
    (``_product_rounding``) and lambda's.  So where max |M + P| exceeds
    2 (defect max(1, entry peak) + 2 delta), the computed defect of S I
    exceeds that of S, with room for the rounding of the comparison, and S
    wins as it would if S I were read.
    """
    norm = _norm(t, action.s)
    delta = (_product_rounding(t, norm, norm) * (1.0 + 1.0 / t.size)
             * (2.0 + float(np.max(np.abs(action.block)))) / abs(action.lam))
    scale = _entry_scale(matrix)
    image_defect = float(np.max(np.abs(action.block + matrix.entries)))
    return image_defect > 2.0 * (defect * scale + 2.0 * delta)


def _non_central_bound(t, numerator: np.ndarray, s_arr: np.ndarray, root: CenterElement,
                       g: float) -> float:
    """Bound on each non-central coefficient of the computed reverse(N)*N, from S = N / Z.

    Z = alpha + beta I is the central root that S was divided by (beta = 0 at
    even n, I the pseudoscalar), and g bounds each off-scalar coefficient of
    reverse(S)*S.  N' = S Z has reverse(N') N' = reverse(Z) Z reverse(S) S, as
    Z is central, and reverse(Z) Z = c0 + c1 I with |c0| + |c1| <= (|alpha| +
    |beta|)^2; I maps each non-central blade to another, so each non-central
    coefficient of reverse(N') N' is at most (|alpha| + |beta|)^2 g.  The
    division rounds, so N = N' + Delta, and reverse(N) N - reverse(N') N' =
    reverse(Delta) N + reverse(N') Delta adds at most |Delta| (|N| + |N'|),
    |N'| <= (|alpha| + |beta|) |S|, |.| the 2-norm.  Delta is computed from
    S; that adds 2 eps (|alpha| + |beta|) |S| + eps |Delta| to its norm.  The
    dense product adds its own rounding.
    """
    z = abs(root.scalar_part) + abs(root.pseudo_part)
    s_times_z = s_arr * root.scalar_part
    if root.pseudo_part != 0.0:
        s_times_z = s_times_z + _blade_mul_right(t, s_arr, t.full_mask, root.pseudo_part)
    s_norm, n_norm = _norm(t, s_arr), _norm(t, numerator)
    delta = _norm(t, numerator - s_times_z) * (1.0 + _EPS) + 2.0 * _EPS * z * s_norm
    return z * z * g + delta * (n_norm + z * s_norm) + _product_rounding(t, n_norm, n_norm)


def _certified_winner(t, numerator, candidates, matrix, norm_sign, peak, residual_tol):
    """The winning candidate, its action and residual, verified by the certificate where it can.

    Decides what the dense path decides, with the same dense product as the
    fallback of each check: the candidates are admitted on lambda alone and
    compared on their blocks (the second only where ``_image_loses`` cannot
    rule it out); the winner is admitted by ``_admitted``, its certificate
    settles the non-central check on reverse(N)*N through
    ``_non_central_bound``, and stands in for the probe and the rows where
    the residual it gives is within both ``_FALLBACK_THRESHOLD`` and
    ``residual_tol`` (``_certified_residual``).  A winner whose block defect
    is above the threshold returns that defect, a lower bound on its
    residual, for ``_csd_fallback`` to compare.  If the dense gram rejects
    the winner, every candidate is judged as below n0.
    """
    root, best, action, defect = _choose(t, candidates, matrix, _light_action, skip_image=True)
    if best is not None and not _admitted(action):
        root, best, action, defect = _choose(t, candidates, matrix, _twisted_action)
    if best is None:
        _central_gram(t, numerator, norm_sign, peak)
        return None, None, math.inf
    if action.gram_formed:
        norm = _norm(t, best)
        g = _off_scalar(action.gram) + _product_rounding(t, norm, norm)
    else:
        g = action.certificate()[0]
    if not _non_central_bound(t, numerator, best, root, g) <= _non_central_limit(peak):
        _central_gram(t, numerator, norm_sign, peak)
    return best, action, (defect if defect > _FALLBACK_THRESHOLD
                          else _certified_residual(action, defect, matrix, residual_tol))


def _admitted(action: _Action) -> bool:
    """Whether the dense gram of a light action is usable, settled by its certificate where it can be."""
    peak_s = float(np.max(np.abs(action.s)))
    return _usable(action.lam, action.dense_bounds()[0], peak_s) or _usable_gram(action.gram, peak_s)


def _certified_residual(action: _Action, defect: float, matrix: OrthoMatrix, residual_tol: float) -> float:
    """The residual with the certificate's row bounds where they settle it, ``_residual`` otherwise."""
    if action.certified and defect <= _FALLBACK_THRESHOLD:
        residual = max(defect, float(np.max(action.dense_bounds()[1])) / _entry_scale(matrix))
        if residual <= _FALLBACK_THRESHOLD and residual <= residual_tol:
            return residual
    return _residual(action, matrix)


def _csd_fallback(t, matrix: OrthoMatrix, best, action, residual: float, residual_tol: float, guard):
    """The better verified of a route's candidate and ``_csd_lift``: (S, action, residual).

    Runs where the candidate's residual is above ``_FALLBACK_THRESHOLD`` or
    inf (none admitted).  ``residual`` may be the block defect alone, a lower
    bound; the full one is read only if the lift does not beat it.  The lift
    is verified as the route verifies its candidates; ties keep the
    candidate.  A winning lift must pass ``guard(S, lambda)``, which rejects
    where the sum the lift implies (``_implied_peak``) fails the route's
    degeneracy gate: the computed sum passed it on rounding alone.
    """
    lift = _csd_lift(t, matrix)
    if t.n < _LIFT_CERTIFICATE_DIMENSION:
        lift_action = _twisted_action(t, lift)
        lift_residual = _residual(lift_action, matrix)
    else:  # a unit versor, so its lambda admits it and it has a block
        lift_action = _light_action(t, lift)
        lift_residual = (_certified_residual(lift_action, _block_defect(lift_action, matrix), matrix,
                                             residual_tol) if _admitted(lift_action) else math.inf)
    if not lift_residual < residual and best is not None:
        residual = _residual(action, matrix)
    if not lift_residual < residual:
        return best, action, residual
    guard(lift, lift_action.lam)
    return lift, lift_action, lift_residual


def _implied_peak(t, s_arr: np.ndarray, lam: float, pseudo_sign: float) -> float:
    """Peak of S (x_0 + pseudo_sign x_I I), x = S^-1 = reverse(S) / lambda and I the pseudoscalar.

    pseudo_sign 1 at odd n, 0 at even n gives S center(S^-1), the numerator
    over 2^n; -1 in Cl(1,3) gives the grade-1 contraction over 4.
    """
    pseudo = pseudo_sign * float(t.reverse_signs[-1]) * s_arr[-1] / lam
    return float(np.max(np.abs(s_arr * (s_arr[0] / lam) + _blade_mul_right(t, s_arr, t.full_mask, pseudo))))


def _jacobi_svd(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One-sided Jacobi SVD x V = W of an r x k block, r >= k, in Python floats.

    Rotates pairs of columns until each pair is orthogonal to k eps of its
    norms (Hestenes 1958; Demmel & Veselic, SIAM J. Matrix Anal. Appl. 13
    (1992)); V accumulates the rotations.  Returns W and V with the columns
    ordered by falling norm, so W's column norms are the singular values.
    """
    r, k = x.shape
    cols, rotations = x.T.tolist(), np.eye(k).tolist()
    for _ in range(30):  # sweeps; a 7 x 7 block converges in about 8
        rotated = False
        for i in range(k - 1):
            for j in range(i + 1, k):
                alpha, beta = (sum(a * a for a in col) for col in (cols[i], cols[j]))
                gamma = sum(a * b for a, b in zip(cols[i], cols[j]))
                if abs(gamma) <= k * _EPS * math.sqrt(alpha * beta):
                    continue
                zeta = (beta - alpha) / (2.0 * gamma)
                tan = math.copysign(1.0, zeta) / (abs(zeta) + math.sqrt(1.0 + zeta * zeta))
                cos = 1.0 / math.sqrt(1.0 + tan * tan)
                sin = cos * tan
                for pair in (cols, rotations):
                    u, v = pair[i], pair[j]
                    pair[i] = [cos * a - sin * b for a, b in zip(u, v)]
                    pair[j] = [sin * a + cos * b for a, b in zip(u, v)]
                rotated = True
        if not rotated:
            break
    order = sorted(range(k), key=lambda j: -sum(a * a for a in cols[j]))
    return (np.array([cols[j] for j in order]).reshape(k, r).T,
            np.array([rotations[j] for j in order]).reshape(k, k).T)


def _householder(m: np.ndarray) -> tuple[list, np.ndarray]:
    """Householder QR m = H(v_1)...H(v_k) R of an r x c matrix, r >= c: the unit v_j and R's diagonal.

    H(v) = I - 2 v v^T.  A column already on its axis gets no reflection.
    """
    m = m.copy()
    vectors, diag = [], np.zeros(m.shape[1])
    for j in range(m.shape[1]):
        x = m[j:, j]
        tail = float(np.sum(x[1:] * x[1:]))
        diag[j] = x[0]
        if tail == 0.0:
            continue
        norm = math.copysign(math.sqrt(x[0] * x[0] + tail), x[0])
        v = np.concatenate((np.zeros(j), x))
        v[j] += norm
        v /= math.sqrt(float(np.sum(v * v)))
        m -= 2.0 * np.outer(v, np.einsum("i,ik->k", v, m))
        diag[j] = -norm
        vectors.append(v)
    return vectors, diag


def _lift_orthogonal(t, arr: np.ndarray, block: np.ndarray, offset: int) -> np.ndarray:
    """arr * lift(W) for an orthogonal block W on the generators from ``offset`` on.

    W = H(v_1)...H(v_k) D with D = diag(+-1) (``_householder``), and H(v)
    lifts to the unit vector v in either metric, so lift(W) = lift(D) v_k
    ... v_1, lift(D) the generators where D has -1.
    """
    vectors, diag = _householder(block)
    for i in np.flatnonzero(diag < 0.0):
        arr = _blade_mul_right(t, arr, 1 << (offset + int(i)))
    coords = np.zeros(t.n)
    for v in reversed(vectors):
        coords[offset:offset + len(v)] = v
        arr = _vector_mul_right(t, arr, coords)
    return arr


def _csd_lift(t, matrix: OrthoMatrix) -> np.ndarray:
    """S covering P from the hyperbolic CS decomposition P = L A0 R, in O(n^2 2^n).

    (Higham, "J-orthogonal matrices: properties and generation", SIAM Review
    45 (2003), section 3.)  L = diag(U1, U2) and R = diag(V1, V2)^T are
    orthogonal; A0 has cosh sigma_i on the diagonal and s_i = sinh sigma_i
    at (i, p+i) and (p+i, i), s the singular values of the p x q block B =
    U1 [diag(s) 0] V2^T.  With c = sqrt(1 + s^2), padded with ones, V1^T =
    diag(1/c) U1^T A and U2 = D V2 diag(1/c) for the diagonal blocks A, D:
    every division is by c >= 1, so nothing cancels however strong the boost.
    In the row convention lift(X Y) = lift(Y) lift(X), so S = lift(R)
    lift(A0) lift(L), by right products alone; the boost of plane i lifts to
    cosh(sigma_i / 2) - sinh(sigma_i / 2) e_i e_{p+i}.  S is a unit versor
    on any component of O(p,q).  No dense product, np.linalg or BLAS.
    """
    p, q = t.sig.p, t.sig.q
    a, b, d = matrix.entries[:p, :p], matrix.entries[:p, p:], matrix.entries[p:, p:]
    w, rotations = _jacobi_svd(b if p >= q else b.T)
    vectors, diag = _householder(w)
    # the orthogonal factor with W = completed [diag(s); 0]
    completed = np.diag(np.append(np.where(diag < 0.0, -1.0, 1.0), np.ones(len(w) - len(diag))))
    for v in reversed(vectors):
        completed -= 2.0 * np.outer(v, np.einsum("i,ik->k", v, completed))
    u1, v2 = (completed, rotations) if p >= q else (rotations, completed)
    s = np.abs(diag)
    c = np.ones(max(p, q))
    c[:len(s)] = np.sqrt(1.0 + s * s)
    arr = np.zeros(t.size)
    arr[0] = 1.0
    arr = _lift_orthogonal(t, arr, np.einsum("ji,jk->ik", u1, a) / c[:p, None], 0)
    arr = _lift_orthogonal(t, arr, v2.T, p)
    for i in np.flatnonzero(s):
        half = math.sqrt((c[i] + 1.0) / 2.0)
        arr = arr * half + _blade_mul_right(t, arr, 1 << int(i) | 1 << (p + int(i)), -s[i] / (2.0 * half))
    arr = _lift_orthogonal(t, arr, u1, 0)
    return _lift_orthogonal(t, arr, np.einsum("ij,jk->ik", d, v2) / c[:q], p)


def recover_hestenes(
    matrix: OrthoMatrix,
    *,
    residual_tol: float = DEFAULT_RESIDUAL_TOLERANCE,
    degeneracy_tol: float = DEFAULT_DEGENERACY_TOLERANCE,
) -> RotorResult:
    """Dimension-4 shortcut for proper orthochronous matrices in Cl(1,3).

    Uses only the grade-1 contraction L = sum_a (row_a frame vector) * e^a,
    whose self-product lives in the scalar + pseudoscalar plane (a copy of
    the complex numbers), so a single complex square root normalizes it.
    Works whenever L is nonzero, which is a strictly weaker condition than
    the general path's nonzero scalar part.
    """
    sig = matrix.sig
    if (sig.p, sig.q) != (1, 3):
        raise SignatureMismatchError(
            f"this shortcut is only defined for Cl(1,3), got {sig}"
        )
    component = classify_component(matrix)
    if not component.in_so_plus:
        raise WrongComponentError(
            "the dimension-4 shortcut needs a proper orthochronous matrix (SO+)"
        )
    t = _get_tables(sig)
    rows = np.zeros((t.n, t.size))
    rows[:, t.grades == 1] = matrix.entries
    contraction = sum(_blade_mul_right(t, row, 1 << a, float(t.metric[a])) for a, row in enumerate(rows))

    def gate(contraction_peak: float) -> None:
        if not contraction_peak >= sig.n * degeneracy_tol:
            raise HestenesConditionError(
                "the grade-1 contraction vanishes: the spin element has neither scalar "
                "nor pseudoscalar part, so the dimension-4 shortcut does not apply"
            )

    peak = float(np.max(np.abs(contraction)))
    gate(peak)
    gram = _gram(t, contraction)
    off = gram.copy()
    off[0] = 0.0
    off[-1] = 0.0
    if float(np.max(np.abs(off))) > _non_central_limit(peak):
        raise VerificationFailedError(
            float(np.max(np.abs(off))),
            "reverse(L)*L left the scalar + pseudoscalar plane",
        )
    w = cmath.sqrt(complex(gram[0], gram[-1]))
    if abs(w) == 0.0:
        raise HestenesConditionError("the contraction self-product vanished")
    w_inv = 1.0 / w
    normalized = contraction * w_inv.real + _blade_mul_right(t, contraction, t.full_mask, w_inv.imag)
    action = _twisted_action(t, normalized)
    residual = _block_defect(action, matrix)
    if residual <= _FALLBACK_THRESHOLD:
        residual = _residual(action, matrix)
    if residual > _FALLBACK_THRESHOLD:  # the lift implies the contraction 4 S (x_0 - x_I I)
        normalized, action, residual = _csd_fallback(
            t, matrix, normalized, action, residual, residual_tol,
            lambda s, lam: gate(4.0 * _implied_peak(t, s, lam, -1.0)))
    return _verified(t, normalized, action, residual, residual_tol, spinor_norm_sign(matrix), None,
                     matrix)


def rotor_from_frames(
    frames: list[Multivector],
    *,
    ortho_tol: float = DEFAULT_ORTHO_TOLERANCE,
    residual_tol: float = DEFAULT_RESIDUAL_TOLERANCE,
    degeneracy_tol: float = DEFAULT_DEGENERACY_TOLERANCE,
) -> RotorResult:
    """Rotor S with S e_a reverse(S) = frames[a-1] for a rotated frame.

    The frames must be grade-1, pairwise satisfy the same anticommutation
    relations as the generators (equivalently: their coordinate matrix is
    pseudo-orthogonal), and the coordinate matrix must lie in the proper
    orthochronous component, since only there is the preimage a rotor.
    """
    if not frames:
        raise ValueError("need at least one frame vector")
    sig = frames[0].sig
    n = sig.n
    if len(frames) != n:
        raise NotAFrameError(f"expected {n} frame vectors for {sig}, got {len(frames)}")
    vector_slots = _get_tables(sig).grades == 1
    for a, frame in enumerate(frames):
        if frame.sig != sig:
            raise SignatureMismatchError("frame vectors live in different algebras")
        off_vector = np.where(vector_slots, 0.0, frame.coeffs)
        if float(np.max(np.abs(off_vector))) > ortho_tol * max(1.0, frame.max_abs()):
            raise NotAFrameError(f"frame vector {a + 1} has non-vector components")
    entries = np.array([frame.coeffs[vector_slots] for frame in frames])
    try:
        matrix = validate_pseudo_orthogonal(entries, sig, tol=ortho_tol)
    except NotPseudoOrthogonalError as exc:
        raise NotAFrameError(
            f"frame vectors violate the anticommutation relations (residual {exc.residual:.3e})"
        ) from exc
    component = classify_component(matrix)
    if not component.in_so_plus:
        raise WrongComponentError(
            "the frame is not reachable by a rotor: its matrix lies outside SO+"
        )
    return recover_spin(
        matrix, residual_tol=residual_tol, degeneracy_tol=degeneracy_tol
    )


def classify_spin(s: Multivector, tol: float = DEFAULT_CLASSIFY_TOLERANCE) -> SpinGroupTags:
    """Classify a versor into the five normalized versor groups.

    Checks parity, that reverse(S)*S is a real scalar, and that conjugation
    by S preserves grade-1 vectors; the flags then follow from the signs of
    reverse(S)*S and conjugate(S)*S.  An element passing the structural
    checks but with non-unit scalar gets all-false flags (it is a versor but
    not normalized).  Row a may leave grade 1 by ``tol`` * max(1, its peak)
    and the scalar may miss +-1 by ``tol``, each plus the roundoff floor of
    8 eps |S|^2 (over |lambda| for a row), |S| the 2-norm of the
    coefficients: strong boosts round at that size.  The commutation-defect
    certificate settles both structural checks without a dense product
    for most versors; otherwise the dense gram, the probe and the rows decide.
    """
    return _classify(_get_tables(s.sig), s.coeffs, tol)[0]


def _classify(t, s_arr: np.ndarray, tol: float = DEFAULT_CLASSIFY_TOLERANCE, action=None,
              row_scale=None):
    """classify_spin on a coefficient array, also returning the action.

    ``action`` is the action of S or of -S (they coincide) if already known:
    its dense gram decides the gram check where it is formed, and otherwise
    the dense bounds of the certificate the lift made are tried first.
    Without one, an action is built on the scalar of reverse(S)*S alone and
    its certificate is tried first.  Each row may leave grade 1 by ``tol``
    times ``row_scale``, or times max(1, its own peak) when that is None.
    """
    peak = float(np.max(np.abs(s_arr)))
    if peak == 0.0:
        raise ValueError("cannot classify the zero multivector")
    if not math.isfinite(peak):
        raise ValueError("cannot classify a multivector with non-finite coefficients")
    even_peak = float(np.max(np.abs(np.where(t.grades % 2 == 0, s_arr, 0.0))))
    odd_peak = float(np.max(np.abs(np.where(t.grades % 2 == 1, s_arr, 0.0))))
    if min(even_peak, odd_peak) > tol * max(1.0, peak):
        raise MixedParityError(
            f"element mixes even ({even_peak:.3e}) and odd ({odd_peak:.3e}) content"
        )
    is_even = even_peak >= odd_peak

    def lipschitz(gram: np.ndarray, peak: float) -> None:
        # Roundoff in the products scales with the square of the coefficient peak.
        if _off_scalar(gram) > tol * max(1.0, abs(gram[0]), peak * peak):
            raise NotInLipschitzGroupError("reverse(S)*S is not a real scalar")
        if abs(gram[0]) <= tol:
            raise NotInLipschitzGroupError("S is not invertible")

    bounds = None
    if action is None:
        lam = _gram_scalar(t, s_arr)
        if abs(lam) <= tol:
            lipschitz(_gram(t, s_arr), peak)  # rejects a scalar this small
        action = _Action(t, s_arr, lam)
        bounds = action.certificate()
    elif action.certified:
        bounds = action.dense_bounds()
    g, certified = bounds if bounds is not None else (math.inf, None)
    # Where the certificate does not settle the gram, the dense one decides.
    if action.gram_formed or not g <= tol * max(1.0, abs(action.lam), peak * peak):
        lipschitz(action.gram, peak)
    elif abs(action.lam) <= tol:
        raise NotInLipschitzGroupError("S is not invertible")
    # Rounding adds up to about eps |S|^2 / |lambda| to each computed row.
    spread = _ROUNDOFF_FLOOR * _EPS * float(np.sum(s_arr * s_arr))
    floor = spread / abs(action.lam)
    if row_scale is None:
        limits = tol * np.maximum(1.0, np.max(np.abs(action.block), axis=1))
        probe_limit = float(np.min(limits))
    else:
        limits = probe_limit = tol * row_scale
    if certified is None or not np.all(certified <= limits):
        # The probe must be clean at the smallest row limit; otherwise the rows
        # are formed and checked one by one.
        action.off_vector(probe_limit + floor)
        for a, image in enumerate(() if action.rows is None else action.rows):
            off_vector = float(np.max(np.abs(np.where(t.grades == 1, 0.0, image))))
            scale = max(1.0, float(np.max(np.abs(image)))) if row_scale is None else row_scale
            if off_vector > tol * scale + floor:
                raise NotInLipschitzGroupError(
                    f"conjugation of generator {a + 1} leaves the grade-1 subspace"
                )

    sigma_reverse = action.lam
    # Only the sign of <conjugate(S) S>_0 is read, and only the diagonal
    # blade pairs reach the scalar: O(2^n) instead of a full product.
    sigma_conjugate = np.sum(s_arr * t.conjugate_signs * s_arr * t.blade_square)
    is_unit = abs(abs(sigma_reverse) - 1.0) <= tol + spread
    in_spin = is_unit and is_even
    return SpinGroupTags(
        in_pin=is_unit,
        in_spin=in_spin,
        in_spin_plus=in_spin and sigma_reverse > 0,
        in_pin_plus=is_unit and sigma_conjugate > 0,
        in_pin_minus=is_unit and sigma_reverse > 0,
    ), action


def forward_matrix(
    s: Multivector,
    *,
    tol: float = DEFAULT_CLASSIFY_TOLERANCE,
    ortho_tol: float = DEFAULT_ORTHO_TOLERANCE,
) -> OrthoMatrix:
    """Matrix of the conjugation action: row a holds grade_involution(S) e_a S^-1.

    S must classify into Pin; the result always validates as pseudo-orthogonal.
    The entries are the action's grade-1 block.
    """
    tags, action = _classify(_get_tables(s.sig), s.coeffs, tol)
    if not tags.in_pin:
        raise NotInPinError("the element is a versor but not normalized to Pin")
    return validate_pseudo_orthogonal(action.block, s.sig, tol=ortho_tol)


def random_versor(sig: Signature, k: int, seed=None) -> Multivector:
    """Product of k random unit vectors; an element of Pin(p,q), even iff k is.

    Vectors too close to the null cone (|v^2| < 0.1 before normalization) are
    rejected and redrawn, then each is scaled to v^2 = +-1.  Deterministic
    for a fixed integer seed.
    """
    if k < 0:
        raise ValueError("reflection count must be nonnegative")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    t = _get_tables(sig)
    result = np.zeros(t.size)
    result[0] = 1.0
    for _ in range(k):
        while True:
            coords = rng.standard_normal(sig.n)
            square = float(np.sum(t.metric * coords * coords))
            if abs(square) >= 0.1:
                break
        coords /= math.sqrt(abs(square))
        result = _vector_mul_right(t, result, coords)
    return Multivector(sig, result)
