"""Command-line front end.

Commands: recover, frames, forward, classify, selftest.  Results go to
stdout (or --output) as JSON; every failure prints a one-line JSON error on
stderr and maps to a documented exit code:

    0  success
    1  selftest failure
    2  parse/input error
    3  matrix not pseudo-orthogonal / vectors not a frame
    4  degenerate input (vanishing numerator or contraction, no real root)
    5  verification failed
    6  wrong component, signature, or group membership
"""

from __future__ import annotations

import argparse
import math
import sys

from . import io
from .algebra import Signature
from .errors import (
    CenterProjectionVanishesError,
    HestenesConditionError,
    MinorIdentityError,
    MixedParityError,
    NoRealRootError,
    NotAFrameError,
    NotAVersorError,
    NotInLipschitzGroupError,
    NotInPinError,
    NotPseudoOrthogonalError,
    ParseError,
    RotorLiftError,
    SignatureMismatchError,
    SpecialOrthogonalRequiredError,
    VerificationFailedError,
    WrongComponentError,
)
from .matrices import DEFAULT_ORTHO_TOLERANCE, classify_component, validate_pseudo_orthogonal
from .recovery import (
    DEFAULT_RESIDUAL_TOLERANCE,
    classify_spin,
    forward_matrix,
    recover_hestenes,
    recover_spin,
    rotor_from_frames,
)
from .selftest import run_selftest

EXIT_OK = 0
EXIT_SELFTEST = 1
EXIT_PARSE = 2
EXIT_NOT_ORTHOGONAL = 3
EXIT_DEGENERATE = 4
EXIT_VERIFICATION = 5
EXIT_WRONG_COMPONENT = 6

_ERROR_CODES: tuple[tuple[type, int], ...] = (
    (ParseError, EXIT_PARSE),
    (NotPseudoOrthogonalError, EXIT_NOT_ORTHOGONAL),
    (NotAFrameError, EXIT_NOT_ORTHOGONAL),
    (CenterProjectionVanishesError, EXIT_DEGENERATE),
    (HestenesConditionError, EXIT_DEGENERATE),
    (NoRealRootError, EXIT_DEGENERATE),
    (VerificationFailedError, EXIT_VERIFICATION),
    (MinorIdentityError, EXIT_VERIFICATION),
    (SpecialOrthogonalRequiredError, EXIT_WRONG_COMPONENT),
    (SignatureMismatchError, EXIT_WRONG_COMPONENT),
    (WrongComponentError, EXIT_WRONG_COMPONENT),
    (NotInPinError, EXIT_WRONG_COMPONENT),
    (NotInLipschitzGroupError, EXIT_WRONG_COMPONENT),
    (MixedParityError, EXIT_WRONG_COMPONENT),
    (NotAVersorError, EXIT_WRONG_COMPONENT),
)


def _parse_signature(text: str) -> Signature:
    try:
        p_text, q_text = text.split(",")
        p, q = int(p_text), int(q_text)
    except ValueError as exc:
        raise ParseError(f"bad --signature {text!r}: expected 'p,q'") from exc
    try:
        return Signature(p, q)
    except ValueError as exc:
        raise ParseError(f"bad --signature {text!r}: {exc}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rotorlift",
        description="Spin/Pin double-cover elements of pseudo-orthogonal matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, reads_file=True, verifies=True):
        """Give a command the options it reads: a file and its signature, tolerances."""
        if reads_file:
            p.add_argument("--input", required=True, help="input file path")
            p.add_argument("--signature", help="p,q (required for CSV input, optional otherwise)")
        p.add_argument("--output", help="write the result document here instead of stdout")
        p.add_argument("--tol-ortho", type=float, default=DEFAULT_ORTHO_TOLERANCE,
                       help="orthogonality tolerance")
        if verifies:
            p.add_argument("--tol-residual", type=float, default=DEFAULT_RESIDUAL_TOLERANCE,
                           help="verification tolerance")

    recover = sub.add_parser("recover", help="matrix -> spin element")
    add_common(recover)
    recover.add_argument(
        "--method", choices=("general", "hestenes"), default="general",
        help="hestenes is the dimension-4 shortcut, valid only for signature 1,3",
    )

    frames = sub.add_parser("frames", help="rotated frame -> rotor")
    add_common(frames)

    forward = sub.add_parser("forward", help="spin element -> matrix + component")
    add_common(forward, verifies=False)

    classify = sub.add_parser("classify", help="group membership of a matrix or versor")
    add_common(classify, verifies=False)

    selftest = sub.add_parser("selftest", help="round-trip smoke check on random versors, n <= 6")
    add_common(selftest, reads_file=False)
    selftest.add_argument("--seed", type=int, default=0)
    return parser


def _write(text: str, args: argparse.Namespace) -> None:
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _emit(doc, args: argparse.Namespace) -> None:
    _write(io.dumps(doc) + "\n", args)


def _cmd_recover(args: argparse.Namespace) -> int:
    matrix = io.load_matrix_file(args.input, args.signature, tol=args.tol_ortho)
    if args.method == "hestenes":
        result = recover_hestenes(matrix, residual_tol=args.tol_residual)
    else:
        result = recover_spin(matrix, residual_tol=args.tol_residual)
    _emit(io.rotor_result_to_doc(result), args)
    return EXIT_OK


def _cmd_frames(args: argparse.Namespace) -> int:
    frames = io.load_frames_file(args.input, args.signature)
    result = rotor_from_frames(
        frames, ortho_tol=args.tol_ortho, residual_tol=args.tol_residual
    )
    _emit(io.rotor_result_to_doc(result), args)
    return EXIT_OK


def _cmd_forward(args: argparse.Namespace) -> int:
    rotor = io.load_multivector_file(args.input, args.signature)
    matrix = forward_matrix(rotor, ortho_tol=args.tol_ortho)
    component = classify_component(matrix, tol=args.tol_ortho)
    _emit(
        {"matrix": io.matrix_to_doc(matrix), "component": io.component_to_doc(component)},
        args,
    )
    return EXIT_OK


def _cmd_classify(args: argparse.Namespace) -> int:
    doc = io._parse_json(io._read_text(args.input))
    if isinstance(doc, dict) and "entries" in doc:
        entries, sig = io.matrix_from_doc(doc)
        if args.signature is not None and args.signature != sig:
            raise ParseError(f"file signature {sig} conflicts with requested {args.signature}")
        matrix = validate_pseudo_orthogonal(entries, sig, tol=args.tol_ortho)
        _emit(io.component_to_doc(classify_component(matrix, tol=args.tol_ortho)), args)
        return EXIT_OK
    rotor = io.multivector_from_doc(doc)
    if args.signature is not None and args.signature != rotor.sig:
        raise ParseError(f"file signature {rotor.sig} conflicts with requested {args.signature}")
    tags = classify_spin(rotor)
    _emit({"groups": tags.group_names()}, args)
    return EXIT_OK


def _cmd_selftest(args: argparse.Namespace) -> int:
    passed, line = run_selftest(args.seed, args.tol_residual, args.tol_ortho)
    _write(line + "\n", args)
    return EXIT_OK if passed else EXIT_SELFTEST


_COMMANDS = {
    "recover": _cmd_recover,
    "frames": _cmd_frames,
    "forward": _cmd_forward,
    "classify": _cmd_classify,
    "selftest": _cmd_selftest,
}


def _error_exit(exc: Exception) -> int:
    for klass, code in _ERROR_CODES:
        if isinstance(exc, klass):
            break
    else:
        klass, code = type(exc), EXIT_PARSE
    name = type(exc).__name__.removesuffix("Error")
    line = io.dumps({"error": name, "message": str(exc), "exit_code": code}, indent=0)
    sys.stderr.write(line.replace("\n", " ") + "\n")
    return code


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if "signature" in args:
            args.signature = _parse_signature(args.signature) if args.signature else None
        tolerances = [value for name, value in vars(args).items() if name.startswith("tol_")]
        if not all(0 < tol < math.inf for tol in tolerances):
            raise ParseError("tolerances must be positive and finite")
        return _COMMANDS[args.command](args)
    except RotorLiftError as exc:
        return _error_exit(exc)
    except (ValueError, OSError) as exc:
        return _error_exit(ParseError(str(exc)))


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
