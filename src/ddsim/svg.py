"""Standalone SVG rendering of Gershgorin discs, eigenvalues and the origin.

Pure string generation with fixed-precision coordinates, so output bytes are
a function of the input values alone.  Near the float limit, values are
drawn divided by one power of two (:func:`_exponent`), which moves no pixel.
"""

from __future__ import annotations

import math

import numpy as np

from .core import gershgorin_discs

VIEW = 800
PAD_FRACTION = 0.10

_DISC_STYLE = 'fill="#4878a8" fill-opacity="0.12" stroke="#4878a8" stroke-width="1.5"'
_EIG_STYLE = 'stroke="#b04048" stroke-width="2"'
_ORIGIN_STYLE = 'stroke="#202020" stroke-width="1.5"'


def _fmt(v: float) -> str:
    return f"{v:.4f}"


def _frame(centres, radii, re, im):
    """``(x_mid, y_mid, span)`` of the padded square that holds the origin,
    every disc and every eigenvalue ``re + i im``."""
    xs = [0.0] + [c - r for c, r in zip(centres, radii)] + [
        c + r for c, r in zip(centres, radii)] + re
    ys = [0.0] + [-r for r in radii] + radii + im
    span = max(max(xs) - min(xs), max(ys) - min(ys), 1e-9)
    return ((max(xs) + min(xs)) / 2.0, (max(ys) + min(ys)) / 2.0,
            span * (1.0 + 2.0 * PAD_FRACTION))


def _exponent(values):
    """The binary exponent ``e`` of the largest magnitude in the floats ``values``:
    each of them divided by ``2**e`` lies in (-1, 1)."""
    return math.frexp(max(map(abs, values)))[1]


def render_matrix(a, axis) -> str:
    """:func:`render_gershgorin` of a validated ``a``'s discs along ``axis`` and
    eigenvalues, taken from ``a / 2**_exponent(a)`` when one of them overflows."""
    with np.errstate(over="ignore"):
        discs, eigenvalues = gershgorin_discs(a, axis), np.linalg.eigvals(a)
    if not (np.isfinite([d.radius for d in discs]).all() and np.isfinite(eigenvalues).all()):
        a = np.ldexp(a, -_exponent(a.ravel().tolist()))
        discs, eigenvalues = gershgorin_discs(a, axis), np.linalg.eigvals(a)
    return render_gershgorin(discs, eigenvalues)


def render_gershgorin(discs, eigenvalues) -> str:
    """SVG document with one circle per disc, an x-cross per eigenvalue and a
    plus-cross at the origin, framed to fit everything with 10% padding.

    When the frame overflows (entries near the float limit), everything is
    framed and drawn divided by ``2**_exponent`` of every value."""
    eigenvalues = np.asarray(eigenvalues, dtype=complex)
    values = ([d.center for d in discs], [d.radius for d in discs],
              eigenvalues.real.tolist(), eigenvalues.imag.tolist())
    frame = _frame(*values)
    if not all(map(math.isfinite, frame)):
        exp = _exponent(v for part in values for v in part)
        values = tuple([math.ldexp(v, -exp) for v in part] for part in values)
        frame = _frame(*values)
    centres, radii, re, im = values
    x_mid, y_mid, span = frame
    scale = VIEW / span

    def to_px(x, y):
        return ((x - x_mid) * scale + VIEW / 2.0,
                VIEW / 2.0 - (y - y_mid) * scale)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{VIEW}" height="{VIEW}" '
        f'viewBox="0 0 {VIEW} {VIEW}">',
        f'<rect width="{VIEW}" height="{VIEW}" fill="#ffffff"/>',
    ]
    for c, r in zip(centres, radii):
        cx, cy = to_px(c, 0.0)
        parts.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r * scale)}" '
            f'{_DISC_STYLE}/>')
    ox, oy = to_px(0.0, 0.0)
    arm = VIEW * 0.015
    parts.append(f'<line x1="{_fmt(ox - arm)}" y1="{_fmt(oy)}" '
                 f'x2="{_fmt(ox + arm)}" y2="{_fmt(oy)}" {_ORIGIN_STYLE}/>')
    parts.append(f'<line x1="{_fmt(ox)}" y1="{_fmt(oy - arm)}" '
                 f'x2="{_fmt(ox)}" y2="{_fmt(oy + arm)}" {_ORIGIN_STYLE}/>')
    for x, y in zip(re, im):
        px, py = to_px(x, y)
        parts.append(f'<line x1="{_fmt(px - arm)}" y1="{_fmt(py - arm)}" '
                     f'x2="{_fmt(px + arm)}" y2="{_fmt(py + arm)}" {_EIG_STYLE}/>')
        parts.append(f'<line x1="{_fmt(px - arm)}" y1="{_fmt(py + arm)}" '
                     f'x2="{_fmt(px + arm)}" y2="{_fmt(py - arm)}" {_EIG_STYLE}/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
