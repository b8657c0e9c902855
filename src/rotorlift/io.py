"""JSON/CSV readers and writers for multivectors, matrices, frames, results.

Floats are emitted with 17 significant digits so every value round-trips
exactly; the stdlib encoder has no hook for that, hence the small emitter
at the bottom.  A coefficient map is one numpy selection of the nonzero
coefficients, keyed by blade labels that are built once per n on the first
document of that dimension (``_blade_labels``).  The emitter formats each
container's items into one string apiece, writes plain floats inline, and
joins the items once, so a 2^n-term document costs little more than
formatting its floats.
"""

from __future__ import annotations

import functools
import json
import math
from json.encoder import encode_basestring_ascii

import numpy as np

from .algebra import Multivector, Signature, blade_label
from .errors import ParseError
from .matrices import GroupComponent, OrthoMatrix, validate_pseudo_orthogonal
from .recovery import RotorResult, SpinGroupTags


def parse_blade_label(label: str, n: int) -> int:
    """Inverse of blade_label: '' is the scalar, '12' or '1,12' name blades.

    From n = 10 on, indices are comma-separated, so a label without a comma
    names a single generator ('5' or '10').
    """
    label = label.strip()
    if not label:
        return 0
    if "," in label or n >= 10:
        parts = label.split(",")
    else:
        parts = list(label)
    mask = 0
    prev = 0
    for part in parts:
        part = part.strip()
        if not (part.isascii() and part.isdigit()):
            raise ParseError(f"bad generator index {part!r} in blade label {label!r}")
        a = int(part)
        if not prev < a <= n:
            commas = ", comma-separated when n >= 10" if n >= 10 else ""
            raise ParseError(
                f"blade label {label!r} must list ascending generator indices in 1..{n}{commas}"
            )
        mask |= 1 << (a - 1)
        prev = a
    return mask


def signature_to_doc(sig: Signature) -> dict:
    return {"p": sig.p, "q": sig.q}


def signature_from_doc(doc) -> Signature:
    if not isinstance(doc, dict) or "p" not in doc or "q" not in doc:
        raise ParseError('expected a signature object {"p": int, "q": int}')
    try:
        return Signature(int(doc["p"]), int(doc["q"]))
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad signature: {exc}") from exc


@functools.lru_cache(maxsize=None)
def _blade_labels(n: int) -> tuple[str, ...]:
    """blade_label(mask, n) for every mask below 2^n, built once per n."""
    return tuple(blade_label(mask, n) for mask in range(1 << n))


def _coefficient_map(u: Multivector) -> dict[str, float]:
    """Blade label -> coefficient of ``u.terms(tol=0.0)``: zeros, -0.0 and NaN omitted."""
    terms = u.terms(tol=0.0)
    return dict(zip(map(_blade_labels(u.sig.n).__getitem__, terms), terms.values()))


def multivector_to_doc(u: Multivector) -> dict:
    return {"signature": signature_to_doc(u.sig), "coefficients": _coefficient_map(u)}


def multivector_from_doc(doc) -> Multivector:
    if not isinstance(doc, dict):
        raise ParseError("expected a multivector object")
    sig = signature_from_doc(doc.get("signature"))
    coefficients = doc.get("coefficients")
    if not isinstance(coefficients, dict):
        raise ParseError('multivector object needs a "coefficients" map')
    arr = np.zeros(1 << sig.n)
    for label, value in coefficients.items():
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if not (number and math.isfinite(value)):
            raise ParseError(f"coefficient of blade {label!r} is not a finite number")
        arr[parse_blade_label(label, sig.n)] += float(value)
    return Multivector(sig, arr)


def matrix_to_doc(matrix: OrthoMatrix) -> dict:
    return {
        "p": matrix.sig.p,
        "q": matrix.sig.q,
        "entries": matrix.entries.tolist(),
    }


def matrix_from_doc(doc) -> tuple[np.ndarray, Signature]:
    """Raw entries plus signature; validation is the caller's job."""
    if not isinstance(doc, dict):
        raise ParseError("expected a matrix object")
    sig = signature_from_doc(doc)
    entries = doc.get("entries")
    if not isinstance(entries, list):
        raise ParseError('matrix object needs an "entries" array of rows')
    try:
        arr = np.array(entries, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad matrix entries: {exc}") from exc
    if arr.shape != (sig.n, sig.n):
        raise ParseError(f"expected a {sig.n}x{sig.n} entries array, got shape {arr.shape}")
    return arr, sig


def frames_to_doc(frames: list[Multivector]) -> dict:
    if not frames:
        raise ValueError("need at least one frame vector")
    sig = frames[0].sig
    return {
        "signature": signature_to_doc(sig),
        "frames": [_coefficient_map(frame) for frame in frames],
    }


def frames_from_doc(doc) -> list[Multivector]:
    if not isinstance(doc, dict):
        raise ParseError("expected a frames object")
    sig = signature_from_doc(doc.get("signature"))
    raw = doc.get("frames")
    if not isinstance(raw, list) or not raw:
        raise ParseError('frames object needs a non-empty "frames" list')
    frames = []
    for i, coefficients in enumerate(raw):
        if not isinstance(coefficients, dict):
            raise ParseError(f"frame {i + 1} is not a coefficient map")
        frames.append(
            multivector_from_doc({"signature": signature_to_doc(sig), "coefficients": coefficients})
        )
    return frames


def tags_to_names(tags: SpinGroupTags) -> list[str]:
    return tags.group_names()


def rotor_result_to_doc(result: RotorResult) -> dict:
    doc = {
        "S": multivector_to_doc(result.spin),
        "alpha": int(result.norm_sign),
        "residual": float(result.residual),
        "groups": result.groups.group_names(),
    }
    if result.warning is not None:
        doc["warning"] = result.warning
    return doc


def component_to_doc(component: GroupComponent) -> dict:
    return {
        "det_sign": component.det_sign,
        "top_minor_sign": component.top_minor_sign,
        "bottom_minor_sign": component.bottom_minor_sign,
        "groups": component.group_names(),
    }


def load_matrix_file(path: str, sig: Signature | None = None, tol: float = 1e-9) -> OrthoMatrix:
    """Read a matrix from JSON ({"p","q","entries"}) or CSV (rows of numbers).

    CSV carries no signature, so one must be supplied; for JSON a supplied
    signature must agree with the embedded one.
    """
    text = _read_text(path)
    if path.endswith(".csv"):
        if sig is None:
            raise ParseError("CSV matrices need an explicit signature")
        try:
            arr = np.array(
                [[float(cell) for cell in line.split(",")] for line in text.strip().splitlines()],
                dtype=np.float64,
            )
        except ValueError as exc:
            raise ParseError(f"bad CSV matrix: {exc}") from exc
        if arr.ndim != 2 or arr.shape != (sig.n, sig.n):
            raise ParseError(f"expected a {sig.n}x{sig.n} CSV matrix, got shape {arr.shape}")
        return validate_pseudo_orthogonal(arr, sig, tol=tol)
    arr, file_sig = matrix_from_doc(_parse_json(text))
    if sig is not None and sig != file_sig:
        raise ParseError(f"file signature {file_sig} conflicts with requested {sig}")
    return validate_pseudo_orthogonal(arr, file_sig, tol=tol)


def load_multivector_file(path: str, sig: Signature | None = None) -> Multivector:
    u = multivector_from_doc(_parse_json(_read_text(path)))
    if sig is not None and sig != u.sig:
        raise ParseError(f"file signature {u.sig} conflicts with requested {sig}")
    return u


def load_frames_file(path: str, sig: Signature | None = None) -> list[Multivector]:
    frames = frames_from_doc(_parse_json(_read_text(path)))
    if sig is not None and sig != frames[0].sig:
        raise ParseError(f"file signature {frames[0].sig} conflicts with requested {sig}")
    return frames


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _parse_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc


def dumps(value, indent: int = 2) -> str:
    """Serialize to JSON with floats at 17 significant digits."""
    return _emit(value, indent, 0)


def _emit(value, indent: int, level: int) -> str:
    # A plain float is formatted inline: result documents hold up to 2^n of
    # them.  Every other item goes through _emit, one level deeper.
    if isinstance(value, dict):
        items = [
            f"{encode_basestring_ascii(str(key))}: "
            + (format(item, ".17g") if type(item) is float else _emit(item, indent, level + 1))
            for key, item in value.items()
        ]
        return _block("{", items, "}", indent, level)
    if isinstance(value, (list, tuple)):
        items = [
            format(item, ".17g") if type(item) is float else _emit(item, indent, level + 1)
            for item in value
        ]
        return _block("[", items, "]", indent, level)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    if value is None:
        return "null"
    raise TypeError(f"cannot serialize {type(value)!r}")


def _block(opening: str, items: list[str], closing: str, indent: int, level: int) -> str:
    """One item per line, indented one level deeper than the closing bracket."""
    if not items:
        return opening + closing
    pad = " " * (indent * (level + 1))
    return f"{opening}\n{pad}" + f",\n{pad}".join(items) + "\n" + " " * (indent * level) + closing
