"""Command-line front-end.

Subcommands: ``classify``, ``transform``, ``gershgorin``, ``special``.
Exit codes form a total function of the outcome taxonomy:

* 0 - success (classify: strictly or non-strictly achievable)
* 1 - input parse / file error
* 2 - internal numerical failure (message names the error type)
* 3 - refused: impossible verdict, unachievable target, or violated
      structural precondition
* 4 - out of scope: input is (numerically) singular
* 64 - usage error (``EX_USAGE``): argparse rejected an argument, such as a
       non-finite ``--tol``
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

import numpy as np

from .classify import BORDERLINE_TOL, Verdict, classify
from .construct import Target, build_complex_dd_transform, build_real_dd_transform
from .core import Axis, gershgorin_discs
from .errors import (ClusterAmbiguity, IllConditionedJordan, MatrixParseError,
                     NotAchievable, NumericallySingular, PreconditionViolated,
                     SingularInput, SingularTransform)
from .io import complex_matrix_doc, dumps, load_matrix, matrix_rows
from .special import (HURWITZ_TOL, h_matrix_scaling, is_h_matrix, is_hurwitz,
                      is_m_matrix, is_metzler, is_z_matrix,
                      metzler_hurwitz_scaling)
from .svg import render_gershgorin

_NUMERICAL_ERRORS = (ClusterAmbiguity, IllConditionedJordan,
                     NumericallySingular, SingularTransform)
_REFUSED_ERRORS = (NotAchievable, PreconditionViolated)

_VERDICT_EXIT = {
    Verdict.STRICT_ACHIEVABLE: 0,
    Verdict.NON_STRICT_ONLY: 0,
    Verdict.IMPOSSIBLE: 3,
    Verdict.OUT_OF_SCOPE_SINGULAR: 4,
}


def _tolerance(text: str) -> float:
    """``--tol`` value: a finite number, at least 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(
            f"must be a finite number >= 0, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """Return a new parser for the ``ddsim`` command line.

    Each call builds a fresh instance, which the caller may extend;
    :func:`main` parses with a shared one of its own.
    """
    parser = argparse.ArgumentParser(
        prog="ddsim",
        description="Decide and construct real similarity to diagonally "
                    "dominant matrices.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, tol=True):
        p.add_argument("--input", required=True, help="matrix file (JSON or CSV)")
        p.add_argument("--format", choices=("json", "csv"),
                       help="input format; default by file extension")
        if tol:
            p.add_argument("--tol", type=_tolerance, default=None,
                           help="decision tolerance, finite and >= 0 "
                                "(default per subcommand)")
        p.add_argument("--out", help="also write the output document here")

    add_common(sub.add_parser("classify", help="trichotomy verdict with evidence"))

    tp = sub.add_parser("transform", help="build a verified similarity certificate")
    add_common(tp)
    tp.add_argument("--target", choices=("strict", "nonstrict"), default="strict")
    tp.add_argument("--mode", choices=("real", "complex"), default="real")

    gp = sub.add_parser("gershgorin", help="render discs and eigenvalues as SVG")
    add_common(gp, tol=False)
    gp.add_argument("--axis", choices=("row", "column"), default="row")

    sp = sub.add_parser("special", help="structure tests and diagonal scalings")
    add_common(sp)
    sp.add_argument("which", choices=("m-scale", "h-scale", "tests"))
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built on the first main() call, not at import, and never mutated after:
    # parse_args keeps its state in the namespace it returns, and help and
    # usage text read the terminal width when they are formatted.
    return build_parser()


def _evidence_doc(classification) -> list:
    docs = []
    for f in classification.evidence:
        entry = {"kind": f.kind}
        if f.kind == "real":
            entry["value"] = f.value[0]
        else:
            entry["alpha"] = f.value[0]
            entry["beta"] = f.value[1]
        entry.update({"alg_mult": f.alg_mult, "geo_mult": f.geo_mult,
                      "case": f.case, "condition": f.condition, "ok": f.ok})
        docs.append(entry)
    return docs


def _eigenstructure_doc(structure) -> dict:
    return {
        "real": [{"value": e.value, "alg_mult": e.alg_mult, "geo_mult": e.geo_mult}
                 for e in structure.real_eigs],
        "complex_pairs": [{"alpha": p.alpha, "beta": p.beta,
                           "alg_mult": p.alg_mult, "geo_mult": p.geo_mult}
                          for p in structure.complex_pairs],
    }


def _dominance_doc(report) -> dict:
    return {
        "axis": report.axis.value,
        "strict": report.strict,
        "non_strict": report.non_strict,
        "margins": [float(m) for m in report.margins],
    }


def _cmd_classify(a, args):
    tol = BORDERLINE_TOL if args.tol is None else args.tol
    classification = classify(a, tol)
    doc = {
        "verdict": classification.verdict.value,
        "evidence": _evidence_doc(classification),
        "eigenstructure": _eigenstructure_doc(classification.structure),
        "borderline_pairs": [{"alpha": p[0], "beta": p[1]}
                             for p in classification.borderline_pairs],
    }
    return dumps(doc), _VERDICT_EXIT[classification.verdict]


def _cmd_transform(a, args):
    tol = BORDERLINE_TOL if args.tol is None else args.tol
    if args.mode == "real":
        target = Target.STRICT if args.target == "strict" else Target.NON_STRICT
        cert = build_real_dd_transform(a, target, tol)
        p_doc = matrix_rows(cert.P)
        b_doc = matrix_rows(cert.B)
    else:
        cert = build_complex_dd_transform(a, tol)
        p_doc = complex_matrix_doc(cert.P)
        b_doc = complex_matrix_doc(cert.B)
    doc = {
        "target": cert.target.value,
        "mode": args.mode,
        "P": p_doc,
        "B": b_doc,
        "residual": cert.residual,
        "dominance": _dominance_doc(cert.dominance),
    }
    return dumps(doc), 0


def _cmd_special(a, args):
    tol = HURWITZ_TOL if args.tol is None else args.tol
    if args.which == "tests":
        doc = {
            "z": is_z_matrix(a),
            "metzler": is_metzler(a),
            "m_matrix": is_m_matrix(a, tol),
            "h_matrix": is_h_matrix(a, tol),
            "hurwitz": is_hurwitz(a, tol),
        }
        return dumps(doc), 0
    scaling = metzler_hurwitz_scaling if args.which == "m-scale" else h_matrix_scaling
    cert = scaling(a, tol)
    doc = {
        "K": matrix_rows(cert.K),
        "B": matrix_rows(cert.B),
        "dominance": _dominance_doc(cert.dominance),
        "diagonal_sign": cert.diagonal_sign.value,
    }
    return dumps(doc), 0


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a rejected argument, here the code of a numerical failure
        raise SystemExit(64 if exc.code == 2 else exc.code) from None
    try:
        a = load_matrix(args.input, args.format)
    except MatrixParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    try:
        a = np.asarray(a, dtype=float)
        if args.command == "gershgorin":
            if not args.out:
                print("gershgorin requires --out SVG_PATH", file=sys.stderr)
                return 1
            axis = Axis.ROW if args.axis == "row" else Axis.COLUMN
            discs = gershgorin_discs(a, axis)
            svg = render_gershgorin(discs, np.linalg.eigvals(a))
            try:
                Path(args.out).write_text(svg)
            except OSError as exc:
                print(f"write error: {exc}", file=sys.stderr)
                return 1
            return 0
        handler = {"classify": _cmd_classify, "transform": _cmd_transform,
                   "special": _cmd_special}[args.command]
        text, code = handler(a, args)
    except ValueError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except _REFUSED_ERRORS as exc:
        print(f"refused: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except SingularInput as exc:
        print(f"out of scope: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4

    print(text)
    if args.out:
        try:
            Path(args.out).write_text(text + "\n")
        except OSError as exc:
            print(f"write error: {exc}", file=sys.stderr)
            return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
