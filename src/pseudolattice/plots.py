"""Deterministic SVG rendering of clouds, residuals and loop coverings.

All output is plain hand-assembled SVG with fixed viewports and fixed
decimal formatting, so identical inputs give byte-identical documents
(golden-file friendly, no plotting library in the dependency chain).
"""

from __future__ import annotations

import numpy as np

WIDTH, HEIGHT = 800.0, 600.0
PAD = 50.0


def _fmt(x: float) -> str:
    return f"{x:.3f}"


def _svg_open() -> list:
    w, h = int(WIDTH), int(HEIGHT)
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" viewBox="0 0 {w} {h}">',
        f'<rect x="0" y="0" width="{w}" height="{h}" fill="white"/>',
    ]


class _Frame:
    """Affine data-to-pixel transform with padded bounds."""

    def __init__(self, xs, ys):
        x0, x1 = float(np.min(xs)), float(np.max(xs))
        y0, y1 = float(np.min(ys)), float(np.max(ys))
        dx = (x1 - x0) or 1.0
        dy = (y1 - y0) or 1.0
        self.x0, self.y0 = x0 - 0.05 * dx, y0 - 0.05 * dy
        self.sx = (WIDTH - 2 * PAD) / (1.1 * dx)
        self.sy = (HEIGHT - 2 * PAD) / (1.1 * dy)

    def __call__(self, x, y):
        px = PAD + (x - self.x0) * self.sx
        py = HEIGHT - PAD - (y - self.y0) * self.sy
        return px, py


def plot_spectrum(cloud, hchart=None) -> str:
    """Cloud of eigenvalues, optionally with fitted lattice lines.

    Each lattice line joins the labeled points that share one value of one
    label, in order along the other label: one line per label value on
    each axis.
    """
    if len(cloud) == 0:
        raise ValueError("empty cloud")
    mu = cloud.points
    frame = _Frame(mu.real, mu.imag)
    parts = _svg_open()

    if hchart is not None:
        px, py = frame(hchart.u[:, 0], hchart.epsilon * hchart.u[:, 1])
        xy = [f"{_fmt(x)},{_fmt(y)}" for x, y in zip(px.tolist(), py.tolist())]
        k = hchart.labels
        for axis in (0, 1):
            order = np.lexsort((k[:, 1 - axis], k[:, axis]))  # by this label, then along the other
            for line in np.split(order, np.flatnonzero(np.diff(k[order, axis])) + 1):
                d = " ".join(xy[i] for i in line.tolist())
                parts.append(f'<polyline points="{d}" fill="none" stroke="#bbccee" stroke-width="0.6"/>')

    for z in mu:
        px, py = frame(z.real, z.imag)
        parts.append(f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="2.0" fill="#203060"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def plot_residuals(hchart) -> str:
    """Histogram of per-point residuals in units of h, in 20 bins."""
    bins = 20
    res = np.asarray(hchart.residuals, dtype=float)
    top = max(float(res.max()), 1e-12)
    counts, edges = np.histogram(res, bins=bins, range=(0.0, top))
    parts = _svg_open()
    cmax = max(int(counts.max()), 1)
    bw = (WIDTH - 2 * PAD) / bins
    for i, c in enumerate(counts):
        bh = (HEIGHT - 2 * PAD) * c / cmax
        x = PAD + i * bw
        y = HEIGHT - PAD - bh
        parts.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(bw * 0.9)}" height="{_fmt(bh)}" fill="#406090"/>'
        )
    parts.append(
        f'<text x="{_fmt(PAD)}" y="{_fmt(PAD - 15)}" font-size="14">'
        f"residuals / h, max = {float(res.max()):.3e}</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def plot_loop(vertices, centers, singular_points) -> str:
    """Loop polygon in the value plane with chart centers and marked
    singular values (``(n, 2)`` each; there may be no singular values)."""
    vertices, centers, sp = (np.asarray(p, dtype=float).reshape(-1, 2) for p in (vertices, centers, singular_points))
    frame = _Frame(*np.concatenate([vertices, centers, sp]).T)
    parts = _svg_open()
    ring = np.vstack([vertices, vertices[:1]])
    d = " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in (frame(v[0], v[1]) for v in ring))
    parts.append(f'<polyline points="{d}" fill="none" stroke="#808080" stroke-width="1.0"/>')
    for c in centers:
        px, py = frame(c[0], c[1])
        parts.append(f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="2.5" fill="#2060a0"/>')
    for s in sp:
        px, py = frame(s[0], s[1])
        parts.append(
            f'<rect x="{_fmt(px - 4)}" y="{_fmt(py - 4)}" width="8.000" height="8.000" fill="#c03030"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
