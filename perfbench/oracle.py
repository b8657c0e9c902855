"""Reference answers for the benchmark, computed without rotorlift.

Everything here is plain numpy and shares no code with the package under
test:

* versors are products of random unit vectors, multiplied out with the
  bitmap reordering sign (Dorst, Fontijne & Mann, *Geometric Algebra for
  Computer Science*, ch. 19);
* their matrices are products of reflection matrices;
* boosts and plane rotations come from cosh/sinh and cos/sin directly;
* group components follow from how many reflecting vectors square to +1
  and to -1, and the spinor norms from closed-form sums of squares.

``check_*`` functions compare a serialized program output with these
references and return an ``Outcome``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

# Round-trip tolerance of acceptance criterion 1: deviations are divided by
# max(1, peak magnitude) of the reference before comparing.  An answer beyond
# it is a failure ("Inaccurate"); beyond WRONG_TOLERANCE it is not the
# reference element at all ("WrongResult").
REL_TOLERANCE = 1e-8
WRONG_TOLERANCE = 1e-4
# The verification tolerance the CLI applies by default.
RESIDUAL_TOLERANCE = 1e-8
# Central part of the reference S relative to its peak coefficient.  Below
# MUST_REJECT the paper's construction does not apply and the documented
# rejection is the only correct answer; above MUST_RECOVER the input is
# inside the domain and must be recovered.  In between either is accepted.
MUST_REJECT = 1e-10
MUST_RECOVER = 1e-4

CORRECT = "correct"
REJECTED = "rejected"
FAILED = "failed"


@dataclass(frozen=True)
class Outcome:
    """How one operation ended, judged against the reference."""

    status: str  # CORRECT, REJECTED (documented, counts as correct) or FAILED
    label: str  # error class name, "Inaccurate", "WrongResult", "AcceptedInvalid" or ""
    rel_error: float = 0.0  # scaled deviation for correct answers


@dataclass
class Reference:
    """One generated input with everything the oracle knows about it."""

    p: int
    q: int
    entries: np.ndarray  # n x n matrix, row a = image of e_a
    spin: np.ndarray  # 2**n coefficients of the generating element
    n_positive: int  # reflecting vectors with v^2 = +1 (boosts: counted as even)
    n_negative: int  # reflecting vectors with v^2 = -1

    @property
    def n(self) -> int:
        return self.p + self.q

    @property
    def parity(self) -> int:
        return (self.n_positive + self.n_negative) % 2


# -- blade arithmetic --------------------------------------------------------

def _popcount(x: np.ndarray) -> np.ndarray:
    count = np.zeros_like(x)
    while np.any(x):
        count += x & 1
        x = x >> 1
    return count


def metric(p: int, q: int) -> np.ndarray:
    return np.concatenate([np.ones(p), -np.ones(q)])


def times_vector(coeffs: np.ndarray, coords: np.ndarray, p: int, q: int) -> np.ndarray:
    """coeffs * v for the grade-1 element v with the given coordinates.

    e_A e_b moves e_b past the generators of A above b, one sign each, and
    contracts with e_b when b is in A.
    """
    n = p + q
    masks = np.arange(1 << n)
    m = metric(p, q)
    out = np.zeros_like(coeffs)
    for b in range(n):
        if coords[b] == 0.0:
            continue
        bit = 1 << b
        sign = np.where(_popcount(masks >> (b + 1)) % 2 == 1, -1.0, 1.0)
        sign = np.where(masks & bit, sign * m[b], sign)
        out[masks ^ bit] += coeffs * sign * coords[b]
    return out


def grades(n: int) -> np.ndarray:
    return _popcount(np.arange(1 << n))


def metric_products(p: int, q: int) -> np.ndarray:
    """Product of the generator squares over each blade."""
    n = p + q
    negatives = ((1 << n) - 1) ^ ((1 << p) - 1)
    return np.where(_popcount(np.arange(1 << n) & negatives) % 2 == 1, -1.0, 1.0)


def spinor_norms(spin: np.ndarray, p: int, q: int) -> tuple[float, float]:
    """Scalar parts of reverse(S) S and conjugate(S) S.

    Only e_A e_A contributes to the scalar part; reversion times the square
    of e_A leaves the metric product, conjugation adds (-1)^grade.
    """
    m = metric_products(p, q)
    g = grades(p + q)
    weights = spin * spin * m
    return float(np.sum(weights)), float(np.sum(np.where(g % 2 == 1, -weights, weights)))


# -- generated inputs --------------------------------------------------------

def random_unit_vector(rng: np.random.Generator, p: int, q: int) -> np.ndarray:
    """Draw as rotorlift.random_versor does: normal coordinates, away from the null cone."""
    m = metric(p, q)
    while True:
        coords = rng.standard_normal(p + q)
        square = float(np.sum(m * coords * coords))
        if abs(square) >= 0.1:
            return coords / math.sqrt(abs(square))


def reflection_matrix(v: np.ndarray, p: int, q: int) -> np.ndarray:
    """Row a: e_a - 2 (v . e_a) / (v . v) v, the twisted action of v on e_a."""
    m = metric(p, q)
    square = float(np.sum(m * v * v))
    return np.eye(p + q) - 2.0 / square * np.outer(m * v, v)


def versor_matrix(vectors: list[np.ndarray], p: int, q: int) -> np.ndarray:
    """Matrix of S = v_1 ... v_k: the last factor acts first, so P = R_k ... R_1."""
    entries = np.eye(p + q)
    for v in vectors:
        entries = reflection_matrix(v, p, q) @ entries
    return entries


def versor_from_vectors(vectors: list[np.ndarray], p: int, q: int) -> Reference:
    spin = np.zeros(1 << (p + q))
    spin[0] = 1.0
    m = metric(p, q)
    positive = 0
    for v in vectors:
        spin = times_vector(spin, v, p, q)
        positive += float(np.sum(m * v * v)) > 0
    return Reference(
        p=p, q=q, entries=versor_matrix(vectors, p, q), spin=spin,
        n_positive=positive, n_negative=len(vectors) - positive,
    )


def random_versor(rng: np.random.Generator, p: int, q: int, k: int) -> Reference:
    return versor_from_vectors([random_unit_vector(rng, p, q) for _ in range(k)], p, q)


def boost_rotation(p: int, q: int, rapidity: float, angle: float) -> Reference:
    """Boost in the (e_1, e_{p+1}) plane times a rotation in (e_{p+2}, e_{p+3}).

    S = (cosh(r/2) + sinh(r/2) e_1 e_{p+1}) (cos(t/2) + sin(t/2) e_{p+2} e_{p+3});
    the two factors commute, and both planes are disjoint.  Needs q >= 3.
    """
    if p < 1 or q < 3:
        raise ValueError("boost x rotation needs p >= 1 and q >= 3")
    n = p + q
    b, j, k = p, p + 1, p + 2  # 0-based generator indices of e_{p+1}, e_{p+2}, e_{p+3}
    ch, sh = math.cosh(rapidity), math.sinh(rapidity)
    c, s = math.cos(angle), math.sin(angle)
    entries = np.eye(n)
    entries[0, 0], entries[0, b] = ch, -sh
    entries[b, 0], entries[b, b] = -sh, ch
    # e_j, e_k both square to -1, so the rotation turns e_j towards +e_k.
    entries[j, j], entries[j, k] = c, s
    entries[k, j], entries[k, k] = -s, c
    ch2, sh2 = math.cosh(rapidity / 2.0), math.sinh(rapidity / 2.0)
    c2, s2 = math.cos(angle / 2.0), math.sin(angle / 2.0)
    spin = np.zeros(1 << n)
    boost_bits, turn_bits = 1 | 1 << b, 1 << j | 1 << k
    spin[0] = ch2 * c2
    spin[boost_bits] = sh2 * c2
    spin[turn_bits] = ch2 * s2
    spin[boost_bits | turn_bits] = sh2 * s2  # e_1 e_b e_j e_k is already ascending
    # Components: the boost and the rotation each preserve both orientations.
    return Reference(p=p, q=q, entries=entries, spin=spin, n_positive=0, n_negative=0)


def entry_peak(ref: Reference) -> float:
    return float(np.max(np.abs(ref.entries)))


# -- expected properties ----------------------------------------------------

def components(ref: Reference) -> dict:
    """det and principal-minor signs of the reference matrix, from the reflections.

    A reflection in a vector with v^2 = +1 reverses the orientation of the
    positive subspace (leading p x p minor); one with v^2 = -1 reverses the
    negative one (trailing q x q minor).
    """
    det = -1 if ref.parity else 1
    top = -1 if ref.n_positive % 2 else 1
    bottom = -1 if ref.n_negative % 2 else 1
    groups = ["O"]
    if det > 0:
        groups.append("SO")
    if top > 0:
        groups.append("O+")
    if bottom > 0:
        groups.append("O-")
    if det > 0 and top > 0:
        groups.append("SO+")
    return {"det_sign": det, "top_minor_sign": top, "bottom_minor_sign": bottom,
            "groups": groups}


def spin_groups(ref: Reference) -> tuple[int, list[str]]:
    """(alpha, group names) that a recovery result for this input must report."""
    sigma_reverse, sigma_conjugate = spinor_norms(ref.spin, ref.p, ref.q)
    n = ref.n
    alpha = int(np.sign(sigma_conjugate if n % 4 == 3 else sigma_reverse))
    even = ref.parity == 0
    names = ["Pin"]
    if sigma_conjugate > 0:
        names.append("Pin+")
    if sigma_reverse > 0:
        names.append("Pin-")
    if even:
        names.append("Spin")
        if sigma_reverse > 0:
            names.append("Spin+")
    return alpha, names


def central_share(ref: Reference) -> float:
    """Central part of S (scalar, plus pseudoscalar for odd n) over its peak."""
    centre = abs(ref.spin[0])
    if ref.n % 2 == 1:
        centre = max(centre, abs(ref.spin[-1]))
    return centre / float(np.max(np.abs(ref.spin)))


def hestenes_share(ref: Reference) -> float:
    """Scalar plus pseudoscalar part of S over its peak (the Cl(1,3) shortcut's condition)."""
    return max(abs(ref.spin[0]), abs(ref.spin[-1])) / float(np.max(np.abs(ref.spin)))


# -- checks ------------------------------------------------------------------

def parse_label(label: str, n: int) -> int:
    if not label:
        return 0
    parts = label.split(",") if n >= 10 else list(label)
    mask = 0
    for part in parts:
        mask |= 1 << (int(part) - 1)
    return mask


def coefficients_from_doc(doc: dict, n: int) -> np.ndarray:
    arr = np.zeros(1 << n)
    for label, value in doc["coefficients"].items():
        arr[parse_label(label, n)] += float(value)
    return arr


def spin_deviation(found: np.ndarray, ref: Reference) -> float:
    """Distance of the returned element from the nearer of +-S, scaled as criterion 1."""
    diff = min(float(np.max(np.abs(found - ref.spin))), float(np.max(np.abs(found + ref.spin))))
    return diff / max(1.0, float(np.max(np.abs(ref.spin))))


def _domain(kind: str, ref: Reference) -> tuple[str | None, bool]:
    """(documented rejection this input may get, whether it must get it)."""
    if kind == "hestenes":
        share = hestenes_share(ref)
        return "HestenesConditionError", share < MUST_REJECT
    if ref.n % 2 == 0 and ref.parity == 1:
        return "SpecialOrthogonalRequiredError", True
    share = central_share(ref)
    if share < MUST_REJECT:
        return "CenterProjectionVanishesError", True
    if share < MUST_RECOVER:
        return "CenterProjectionVanishesError", False
    return None, False


def judge_error(kind: str, ref: Reference, exc: BaseException) -> Outcome:
    """Classify an exception raised by a recovery or forward operation."""
    name = type(exc).__name__
    # forward_matrix is defined on all of Pin, so it has no documented rejection.
    if kind != "forward" and name == _domain(kind, ref)[0]:
        return Outcome(REJECTED, name.removesuffix("Error"))
    return Outcome(FAILED, name.removesuffix("Error"))


def check_rotor_result(kind: str, ref: Reference, text: str) -> Outcome:
    """Judge the JSON document of `rotorlift recover` / `rotorlift frames`."""
    if _domain(kind, ref)[1]:
        return Outcome(FAILED, "AcceptedInvalid")
    doc = json.loads(text)
    found = coefficients_from_doc(doc["S"], ref.n)
    if doc["S"]["signature"] != {"p": ref.p, "q": ref.q}:
        return Outcome(FAILED, "WrongResult")
    error = spin_deviation(found, ref)
    alpha, groups = spin_groups(ref)
    residual = float(doc["residual"])
    if (
        not error <= WRONG_TOLERANCE
        or doc["alpha"] != alpha
        or doc["groups"] != groups
        or not 0.0 <= residual <= RESIDUAL_TOLERANCE
    ):
        return Outcome(FAILED, "WrongResult", error)
    return _by_accuracy(error)


def _by_accuracy(error: float) -> Outcome:
    if not error <= REL_TOLERANCE:
        return Outcome(FAILED, "Inaccurate", error)
    return Outcome(CORRECT, "", error)


def check_forward_result(ref: Reference, text: str) -> Outcome:
    """Judge the JSON document of `rotorlift forward`."""
    doc = json.loads(text)
    matrix = doc["matrix"]
    if (matrix["p"], matrix["q"]) != (ref.p, ref.q):
        return Outcome(FAILED, "WrongResult")
    entries = np.array(matrix["entries"], dtype=np.float64)
    error = float(np.max(np.abs(entries - ref.entries))) / max(1.0, entry_peak(ref))
    if not error <= WRONG_TOLERANCE or doc["component"] != components(ref):
        return Outcome(FAILED, "WrongResult", error)
    return _by_accuracy(error)
