"""Independent checks of program outputs, written against numpy alone.

Nothing here calls into ``ddsim``: dominance is recomputed from ``B``, the
residual from ``(A, P, B)``, and verdicts, exit codes and oracle outcomes
are compared with the truth the generator knows.
"""

import json

import numpy as np

#: Documented certificate limit: ``||PA - BP||_F / (1 + ||A||_F)`` must stay
#: within ``RESIDUAL_RTOL * (1 + ||A||_F)``.  The same limit holds with the
#: residual also divided by ``||P||_2``, so that shrinking ``P`` cannot pass a
#: wrong ``B``.
RESIDUAL_RTOL = 1e-6
#: ``P`` counts as singular when ``sigma_min < SINGULAR_RTOL * sigma_max``.
SINGULAR_RTOL = 1e-12


def row_margins(b):
    mag = np.abs(b)
    diag = np.diag(mag)
    return diag - (mag.sum(axis=1) - diag)


def certificate_problem(a, p, b, strict=True):
    """None when ``B = P A P^{-1}`` holds and ``B`` is row-dominant, else why not."""
    a, p, b = (np.asarray(m) for m in (a, p, b))
    if not (a.shape == p.shape == b.shape):
        return "certificate shape differs from the input"
    if not (np.isfinite(p).all() and np.isfinite(b).all()):
        return "certificate has non-finite entries"
    sv = np.linalg.svd(p, compute_uv=False)
    if not sv[-1] > SINGULAR_RTOL * sv[0]:
        return "P is singular"
    norm_a = float(np.linalg.norm(a))
    residual = float(np.linalg.norm(p @ a - b @ p)) / (1.0 + norm_a)
    if not residual <= RESIDUAL_RTOL * (1.0 + norm_a):
        return f"residual {residual:.3e} over the limit"
    if not residual / sv[0] <= RESIDUAL_RTOL * (1.0 + norm_a):
        return f"residual {residual / sv[0]:.3e} relative to ||P||_2 over the limit"
    margins = row_margins(b)
    if not (np.all(margins > 0.0) if strict else np.all(margins >= 0.0)):
        return "B is not diagonally dominant"
    return None


def scaling_problem(a, k, b):
    """None when ``K`` is a positive diagonal and ``B = K A K^{-1}`` is strictly
    row-dominant, else why not."""
    k = np.asarray(k)
    if k.shape != np.shape(a) or np.any(k != np.diag(np.diag(k))):
        return "K is not diagonal"
    if not np.all(np.diag(k) > 0.0):
        return "K is not positive"
    return certificate_problem(a, k, b, strict=True)


def parse_json(text):
    """The JSON document on stdout, or None when it does not parse."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return None


def svg_problem(text, discs):
    if not (text.startswith("<svg") and text.rstrip().endswith("</svg>")):
        return "not an SVG document"
    if text.count("<circle") != discs:
        return "wrong number of discs"
    return None


def grid_witness_problem(alpha, beta, x, y):
    """Recheck a 2x2 witness: both rows of the parametrised matrix
    ``[[alpha - x, r / y], [-y r, alpha + x]]``, ``r = hypot(beta, x)``, must be
    non-strictly dominant (up to rounding of the scan's own arithmetic)."""
    r = float(np.hypot(beta, x))
    y = abs(y)
    slack = 1e-12 * (1.0 + abs(alpha) + abs(beta) + abs(x)) * (1.0 + y + 1.0 / y)
    if abs(alpha - x) - r / y < -slack or abs(alpha + x) - r * y < -slack:
        return "grid witness is not dominant"
    return None
