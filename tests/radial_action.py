"""The champagne radial action by quadrature: the oracle of the shipped table.

The package never integrates the radial action; it reads the well depth 1
grid that ``action_grid`` computes from ``models.ACTION_GRID``.  The tests
check the file against this module bit for bit, and the table against its
quadrature.  After a change to the grid or the quadrature, regenerate the
file with ``PYTHONPATH=src python tests/radial_action.py``.
"""

import functools
import math

import numpy as np
from numpy.polynomial.legendre import leggauss

from pseudolattice.models import ACTION_GRID, BLOCK, GRID_E, GRID_L


@functools.cache
def _gauss_legendre(n: int):
    x, w = leggauss(n)
    # map from (-1, 1) to (0, pi/2)
    return 0.25 * math.pi * (x + 1.0), 0.25 * math.pi * w


def _radial_roots(E, l, b):
    """Roots of u^3 - b u^2 - E u + l^2/2 (u = r^2), sorted ascending.

    Returns (u3, um, up): for regular values u3 <= 0 <= um < up and the
    motion takes place on [um, up].  NaN triple where no real motion exists.
    """
    E = np.asarray(E, dtype=float)
    l = np.asarray(l, dtype=float)
    E, l = np.broadcast_arrays(E, l)
    a2, a1, a0 = -b * np.ones_like(E), -E, 0.5 * l * l
    # depressed cubic t^3 + p t + q, u = t - a2/3
    p = a1 - a2 * a2 / 3.0
    q = 2.0 * a2**3 / 27.0 - a2 * a1 / 3.0 + a0
    disc = -(4.0 * p**3 + 27.0 * q * q)
    roots = np.full(E.shape + (3,), np.nan)
    ok = disc > 0
    if np.any(ok):
        pm = p[ok]
        qm = q[ok]
        m = 2.0 * np.sqrt(-pm / 3.0)
        arg = np.clip(3.0 * qm / (pm * m), -1.0, 1.0)
        theta = np.arccos(arg) / 3.0
        shift = -a2[ok] / 3.0
        for k in range(3):
            roots[ok, k] = m * np.cos(theta - 2.0 * math.pi * k / 3.0) + shift
    roots = np.sort(roots, axis=-1)
    # l == 0, E > 0: double structure u=0 is a root; treat analytically
    deg = (np.abs(l) < 1e-14) & (E > 0)
    if np.any(deg):
        up = 0.5 * (b + np.sqrt(b * b + 4.0 * E[deg]))
        u3 = 0.5 * (b - np.sqrt(b * b + 4.0 * E[deg]))  # negative for E > 0
        roots[deg, 0] = u3
        roots[deg, 1] = 0.0
        roots[deg, 2] = up
    return roots[..., 0], roots[..., 1], roots[..., 2]


def _radial_action_quad(E, l, b, n: int = 100):
    """Radial action I_r = (1/pi) * integral of p_r dr between turning radii.

    Vectorized Gauss-Legendre quadrature.  A ``sin^2`` substitution removes
    the square-root turning-point singularities; when the inner turning
    radius is small relative to the outer one (near the focus-focus cut) a
    ``cosh`` substitution resolves the inner boundary layer.  Points are
    taken in blocks of ``BLOCK // n`` and the weighted sums are ``einsum``
    reductions, so a point gets the same bits in any batch.
    """
    E = np.atleast_1d(np.asarray(E, dtype=float))
    l = np.atleast_1d(np.asarray(l, dtype=float))
    E, l = np.broadcast_arrays(E, l)
    out = np.empty(E.shape)
    rows = BLOCK // n
    for s in range(0, E.size, rows):
        out.flat[s : s + rows] = _radial_action_block(E.flat[s : s + rows], l.flat[s : s + rows], b, n)
    return out


def _radial_action_block(E, l, b, n):
    """``_radial_action_quad`` on one block of 1-d ``E``, ``l``."""
    u3, um, up = _radial_roots(E, l, b)
    out = np.full(E.shape, np.nan)
    good = np.isfinite(up) & (up > um) & (um >= -1e-12)
    if not np.any(good):
        return out
    u3g, umg, upg = u3[good], np.maximum(um[good], 0.0), up[good]
    rm, rp = np.sqrt(umg), np.sqrt(upg)
    theta, w = _gauss_legendre(n)
    vals = np.empty(rm.shape)

    # rm == 0 takes the sin^2 branch: its integrand is then regular at the origin
    layer = (rm > 1e-300) & (rm < 0.05 * rp)
    if np.any(layer):
        rmL, rpL, u3L = rm[layer], rp[layer], u3g[layer]
        # cosh substitution r = rm*cosh(T sin(phi))
        T = np.arccosh(rpL / rmL)
        t = T[:, None] * np.sin(theta)[None, :]
        r = rmL[:, None] * np.cosh(t)
        u = r * r
        # rp - r = rm*(cosh T - cosh t), in a cancellation-free form
        dtop = rmL[:, None] * 2.0 * np.sinh(0.5 * (T[:, None] + t)) * np.sinh(0.5 * (T[:, None] - t))
        integ = (
            np.sqrt(2.0 * (u - u3L[:, None]) * dtop * (rpL[:, None] + r))
            * (rmL[:, None] * np.sinh(t)) ** 2
            * (T[:, None] * np.cos(theta)[None, :])
            / r
        )
        vals[layer] = np.einsum("ij,j->i", integ, w) / math.pi
    if np.any(~layer):
        rmS, rpS, u3S = rm[~layer], rp[~layer], u3g[~layer]
        s, c = np.sin(theta), np.cos(theta)
        r = rmS[:, None] + (rpS[:, None] - rmS[:, None]) * (s * s)[None, :]
        u = r * r
        # exact factorizations: u-um=(r-rm)(r+rm), up-u=(rp-r)(rp+r)
        amp = (rpS - rmS)[:, None] * (s * c)[None, :]
        pr_dr = (
            np.sqrt(2.0 * (u - u3S[:, None]) * (r + rmS[:, None]) * (rpS[:, None] + r))
            * amp
            / r
            * 2.0
            * amp
        )
        vals[~layer] = np.einsum("ij,j->i", pr_dr, w) / math.pi
    out[good] = vals
    return out


def action_grid():
    """The well depth 1 radial action ``I_r(E, |l|)`` on the grid
    ``GRID_E x GRID_L`` by quadrature, 0 below the boundary curve: the
    array the package ships as ``ACTION_GRID``."""
    gE, gl = np.meshgrid(GRID_E, GRID_L, indexing="ij")
    vals = _radial_action_quad(gE.ravel(), gl.ravel(), 1.0).reshape(gE.shape)
    vals[~np.isfinite(vals)] = 0.0
    return vals


if __name__ == "__main__":
    np.save(ACTION_GRID, action_grid())
