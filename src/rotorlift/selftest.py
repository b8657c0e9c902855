"""The round-trip smoke check behind the `selftest` CLI command.

Random versors in every Cl(p,q) with n <= 6 go to their matrices and are
lifted back; the check passes when every lift verifies and matches its
versor up to sign.  The full acceptance criteria are in the test suite.
"""

from __future__ import annotations

import numpy as np

from .algebra import Signature
from .errors import CenterProjectionVanishesError, RotorLiftError
from .matrices import DEFAULT_ORTHO_TOLERANCE
from .recovery import (
    DEFAULT_RESIDUAL_TOLERANCE,
    canonicalize_sign,
    forward_matrix,
    random_versor,
    recover_spin,
)

MAX_N = 6
VERSORS_PER_SIGNATURE = 8


def run_selftest(
    seed: int = 0,
    tol_residual: float = DEFAULT_RESIDUAL_TOLERANCE,
    tol_ortho: float = DEFAULT_ORTHO_TOLERANCE,
) -> tuple[bool, str]:
    """Whether the round trip passes, and a one-line report."""
    worst = 0.0
    tested = skipped = failures = 0
    for n in range(1, MAX_N + 1):
        for p in range(n + 1):
            sig = Signature(p, n - p)
            counts = (0, 2, 4) if n % 2 == 0 else (0, 1, 2, 3, 4)
            for i in range(VERSORS_PER_SIGNATURE):
                versor_seed = seed * 1000003 + sig.p * 7919 + sig.q * 104729 + i
                s = random_versor(sig, counts[i % len(counts)], seed=versor_seed)
                matrix = forward_matrix(s, ortho_tol=tol_ortho)
                try:
                    result = recover_spin(matrix, residual_tol=tol_residual)
                except CenterProjectionVanishesError:
                    skipped += 1
                    continue
                except RotorLiftError:
                    failures += 1
                    continue
                tested += 1
                diff = canonicalize_sign(s).coeffs - result.spin.coeffs
                worst = max(worst, result.residual, float(np.max(np.abs(diff))) / max(1.0, s.max_abs()))
    passed = tested > 0 and failures == 0 and worst <= tol_residual
    detail = f"{tested} recovered, {skipped} degenerate, {failures} failed, worst {worst:.3e}"
    return passed, f"round-trip  {'PASS' if passed else 'FAIL'}  {detail}"
