"""Self-contained SVG charts: line plots for curves, bars for histograms.

Each chart is a generator of lines (without newlines), so a caller can
write it out without holding the whole document.  Output is a pure
function of the data, so identical inputs give byte-identical files.
A curve is one ``polyline``, its statistic against the density p; a
histogram is one ``rect`` per bin, count against eigenvalue; axes and
tick marks are ``line`` elements in one stroke.
No external resources, scripts, or fonts are referenced.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["line_chart", "bar_chart"]

_W, _H = 640, 480
_ML, _MR, _MT, _MB = 72, 24, 48, 56

_AXIS = 'stroke="#222222" stroke-width="1"'
_CURVE = 'fill="none" stroke="#1f6fb4" stroke-width="1.5"'
_BAR = 'fill="#1f6fb4" stroke="none"'
_TEXT = 'font-family="sans-serif" font-size="12" fill="#222222"'
_TITLE = 'font-family="sans-serif" font-size="14" fill="#222222" text-anchor="middle"'


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _padded(lo: float, hi: float) -> tuple[float, float]:
    if hi > lo:
        return lo, hi
    pad = max(abs(lo), 1.0) * 0.5
    return lo - pad, lo + pad


def _ticks(lo: float, hi: float) -> list[float]:
    # the smallest step of 1, 2, 2.5, 5 or 10 times a power of ten that
    # spans [lo, hi] in at most five steps
    span = hi - lo
    base = 10.0 ** math.floor(math.log10(span / 5))
    step = 10.0 * base
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if span / (mult * base) <= 5:
            step = mult * base
            break
    first = math.ceil(lo / step - 1e-9) * step
    ticks = []
    k = 0
    while first + k * step <= hi + 1e-9 * span:
        ticks.append(first + k * step)
        k += 1
    return ticks


def _header(title: str):
    yield (f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
           f'viewBox="0 0 {_W} {_H}">')
    yield f'<text x="{_W / 2:.2f}" y="24" {_TITLE}>{_escape(title)}</text>'


def _axes_and_ticks(px, py, xlo, xhi, ylo, yhi, x_label, y_label):
    x0, x1 = px(xlo), px(xhi)
    y0, y1 = py(ylo), py(yhi)
    yield f'<line x1="{x0:.2f}" y1="{y0:.2f}" x2="{x1:.2f}" y2="{y0:.2f}" {_AXIS}/>'
    yield f'<line x1="{x0:.2f}" y1="{y0:.2f}" x2="{x0:.2f}" y2="{y1:.2f}" {_AXIS}/>'
    for t in _ticks(xlo, xhi):
        x = px(t)
        yield f'<line x1="{x:.2f}" y1="{y0:.2f}" x2="{x:.2f}" y2="{y0 + 5:.2f}" {_AXIS}/>'
        yield f'<text x="{x:.2f}" y="{y0 + 18:.2f}" text-anchor="middle" {_TEXT}>{t:.6g}</text>'
    for t in _ticks(ylo, yhi):
        y = py(t)
        yield f'<line x1="{x0 - 5:.2f}" y1="{y:.2f}" x2="{x0:.2f}" y2="{y:.2f}" {_AXIS}/>'
        yield f'<text x="{x0 - 8:.2f}" y="{y + 4:.2f}" text-anchor="end" {_TEXT}>{t:.6g}</text>'
    yield (f'<text x="{(x0 + x1) / 2:.2f}" y="{_H - 12}" text-anchor="middle" {_TEXT}>'
           f"{_escape(x_label)}</text>")
    yield (f'<text x="14" y="{(y0 + y1) / 2:.2f}" {_TEXT} '
           f'transform="rotate(-90 14 {(y0 + y1) / 2:.2f})" text-anchor="middle">'
           f"{_escape(y_label)}</text>")


def _scales(xlo, xhi, ylo, yhi):
    def px(x):
        return _ML + (x - xlo) / (xhi - xlo) * (_W - _ML - _MR)

    def py(y):
        return _H - _MB - (y - ylo) / (yhi - ylo) * (_H - _MT - _MB)

    return px, py


def line_chart(xs, ys, title: str, y_label: str):
    """Yield the lines of an SVG with one polyline through all (x, y)
    points, axes and ticks; the x axis is the density p."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    xlo, xhi = _padded(float(xs.min()), float(xs.max()))
    ylo, yhi = _padded(min(0.0, float(ys.min())), float(ys.max()))
    px, py = _scales(xlo, xhi, ylo, yhi)
    yield from _header(title)
    yield from _axes_and_ticks(px, py, xlo, xhi, ylo, yhi, "p", y_label)
    points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
    yield f'<polyline points="{points}" {_CURVE}/>'
    yield "</svg>"


def bar_chart(bin_edges, counts, title: str):
    """Yield the lines of an SVG with one rect per bin (zero-count bins
    give zero-height rects), axes and ticks: count against eigenvalue."""
    edges = np.asarray(bin_edges, dtype=float)
    counts = np.asarray(counts, dtype=float)
    xlo, xhi = _padded(float(edges[0]), float(edges[-1]))
    ylo, yhi = _padded(0.0, float(max(counts.max(), 1.0)))
    px, py = _scales(xlo, xhi, ylo, yhi)
    yield from _header(title)
    yield from _axes_and_ticks(px, py, xlo, xhi, ylo, yhi, "eigenvalue", "count")
    base = py(0.0)
    # the scales act elementwise on arrays with the same float operations;
    # a memoryview yields Python floats one at a time, so no list is held
    xs = memoryview(px(edges))
    for left, right, top in zip(xs, xs[1:], memoryview(py(counts))):
        yield (f'<rect x="{left:.2f}" y="{top:.2f}" width="{right - left:.2f}" '
               f'height="{base - top:.2f}" {_BAR}/>')
    yield "</svg>"
