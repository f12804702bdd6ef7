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
       non-finite ``--tol``, ``--target nonstrict`` with ``--mode complex``,
       or ``gershgorin`` without ``--out``
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .classify import BORDERLINE_TOL, Verdict, classify
from .construct import Target, build_complex_dd_transform, build_real_dd_transform
from .core import Axis, _tolerance
from .errors import (ClusterAmbiguity, IllConditionedJordan, MatrixParseError,
                     NotAchievable, NumericallySingular, PreconditionViolated,
                     SingularInput, SingularTransform)
from .io import dumps, load_matrix
from .special import (HURWITZ_TOL, h_matrix_scaling, is_h_matrix, is_hurwitz,
                      is_m_matrix, is_metzler, is_z_matrix,
                      metzler_hurwitz_scaling)
from .svg import render_matrix

#: (error types, exit code, stderr line) for every failure ``main`` reports.
_OUTCOMES = (
    ((MatrixParseError, ValueError), 1, "parse error: {exc}"),
    ((ClusterAmbiguity, IllConditionedJordan, NumericallySingular, SingularTransform),
     2, "numerical failure: {name}: {exc}"),
    ((NotAchievable, PreconditionViolated), 3, "refused: {name}: {exc}"),
    ((SingularInput,), 4, "out of scope: {name}: {exc}"),
    ((OSError,), 1, "write error: {exc}"),
)
_FAILURES = tuple(t for types, _, _ in _OUTCOMES for t in types)

_VERDICT_EXIT = {
    Verdict.STRICT_ACHIEVABLE: 0,
    Verdict.NON_STRICT_ONLY: 0,
    Verdict.IMPOSSIBLE: 3,
    Verdict.OUT_OF_SCOPE_SINGULAR: 4,
}


def _tol_argument(text: str) -> float:
    """``--tol`` value: a number that :func:`ddsim.core._tolerance` accepts."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    try:
        return _tolerance(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be a finite number >= 0, got {text!r}") from None


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of the ``ddsim`` command line, shared by every :func:`main` call.

    Built on the first call, not at import, and never mutated after:
    ``parse_args`` keeps its state in the namespace it returns, and help and
    usage text read the terminal width when they are formatted.
    """
    parser = argparse.ArgumentParser(
        prog="ddsim",
        description="Decide and construct real similarity to diagonally "
                    "dominant matrices.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(name, summary, handler, tol):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        p.add_argument("--input", required=True, help="matrix file (JSON or CSV)")
        p.add_argument("--format", choices=("json", "csv"),
                       help="input format; default by file extension")
        if tol is not None:
            p.add_argument("--tol", type=_tol_argument, default=tol,
                           help="decision tolerance, finite and >= 0 "
                                "(default per subcommand)")
        svg = name == "gershgorin"
        p.add_argument("--out", required=svg,
                       help="SVG output file (required)" if svg
                       else "also write the output document here")
        return p

    add_common("classify", "trichotomy verdict with evidence", _cmd_classify,
               BORDERLINE_TOL)

    tp = add_common("transform", "build a verified similarity certificate",
                    _cmd_transform, BORDERLINE_TOL)
    tp.add_argument("--target", choices=("strict", "nonstrict"), default="strict")
    tp.add_argument("--mode", choices=("real", "complex"), default="real")

    gp = add_common("gershgorin", "render discs and eigenvalues as SVG",
                    _cmd_gershgorin, None)
    gp.add_argument("--axis", choices=("row", "column"), default="row")

    sp = add_common("special", "structure tests and diagonal scalings",
                    _cmd_special, HURWITZ_TOL)
    sp.add_argument("which", choices=("m-scale", "h-scale", "tests"))
    return parser


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
        "margins": report.margins,
    }


def _json(doc, code=0):
    """A handler's ``(stdout text, --out text, exit code)`` for a JSON document."""
    text = dumps(doc)
    return text, text + "\n", code


def _cmd_classify(a, args):
    classification = classify(a, args.tol)
    doc = {
        "verdict": classification.verdict.value,
        "evidence": _evidence_doc(classification),
        "eigenstructure": _eigenstructure_doc(classification.structure),
        "borderline_pairs": [{"alpha": p[0], "beta": p[1]}
                             for p in classification.borderline_pairs],
    }
    return _json(doc, _VERDICT_EXIT[classification.verdict])


def _cmd_transform(a, args):
    if args.mode == "real":
        target = Target.STRICT if args.target == "strict" else Target.NON_STRICT
        cert = build_real_dd_transform(a, target, args.tol)
        p_doc, b_doc = cert.P, cert.B
    else:
        cert = build_complex_dd_transform(a, args.tol)
        p_doc, b_doc = ({"re": m.real, "im": m.imag} for m in (cert.P, cert.B))
    doc = {
        "target": cert.target.value,
        "mode": args.mode,
        "P": p_doc,
        "B": b_doc,
        "residual": cert.residual,
        "dominance": _dominance_doc(cert.dominance),
    }
    return _json(doc)


def _cmd_special(a, args):
    if args.which == "tests":
        return _json({
            "z": is_z_matrix(a),
            "metzler": is_metzler(a),
            "m_matrix": is_m_matrix(a, args.tol),
            "h_matrix": is_h_matrix(a, args.tol),
            "hurwitz": is_hurwitz(a, args.tol),
        })
    scaling = metzler_hurwitz_scaling if args.which == "m-scale" else h_matrix_scaling
    cert = scaling(a, args.tol)
    doc = {
        "K": cert.K,
        "B": cert.B,
        "dominance": _dominance_doc(cert.dominance),
        "diagonal_sign": cert.diagonal_sign.value,
    }
    return _json(doc)


def _cmd_gershgorin(a, args):
    """The SVG goes to ``--out`` only, which the parser requires."""
    return None, render_matrix(a, Axis.ROW if args.axis == "row" else Axis.COLUMN), 0


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        if args.command == "transform" and args.mode == "complex" and args.target != "strict":
            _parser().error("argument --target: a --mode complex certificate is always strict")
    except SystemExit as exc:
        # argparse exits 2 on a rejected argument, here the code of a numerical failure
        raise SystemExit(64 if exc.code == 2 else exc.code) from None
    try:
        text, document, code = args.handler(load_matrix(args.input, args.format), args)
        if text is not None:
            print(text)
        if args.out:
            Path(args.out).write_text(document)
    except _FAILURES as exc:
        code, line = next((code, line) for types, code, line in _OUTCOMES
                          if isinstance(exc, types))
        print(line.format(name=type(exc).__name__, exc=exc), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
