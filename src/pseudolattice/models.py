"""Reference integrable systems and their local action-angle charts.

Two 2-degree-of-freedom models are provided:

* a *flat* model, defined directly in angle-action variables, with global
  action coordinates (trivial monodromy);
* a *champagne-bottle* model ``H = (p_r^2 + p_theta^2/r^2)/2 + r^4 - b r^2``
  whose momentum map has an isolated focus-focus critical value at the
  origin of the value plane (nontrivial monodromy).

A chart maps between the value plane ``a = (E, G)`` -- energy and torus
average of the perturbation -- and local action variables ``xi``.  For the
champagne model the radial action is computed by Gauss-Legendre quadrature
with turning-point substitutions, on a grid at well depth 1 that the package
ships (``action_grid.npy``), interpolated by a not-a-knot bicubic and read
for every depth by exact scaling, through a table of its per-cell
polynomials.  Each model's ``jet`` gives the chart derivatives
analytically; frequencies and their derivatives are read off it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.polynomial.legendre import leggauss

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0

# Elements per (points x nodes) temporary of a batch kernel.  Every kernel
# that broadcasts points against quadrature nodes, sweep integers or labels
# works in blocks of this size, which keeps its temporaries in the
# cache and bounds peak memory; no result depends on the block it is in.
BLOCK = 2**17
CURVE_RUN = 30  # consecutive boundary-curve samples per box of the distance search


class ModelError(ValueError):
    """Raised for invalid model parameters or values outside the model range; ``index`` names a failing center."""

    reason: str | None = None
    index: int | None = None


class ParameterError(ModelError):
    """A run parameter outside its range, raised by the object it configures.

    ``key`` names the parameter as a config file does.
    """

    def __init__(self, key: str, message: str):
        super().__init__(message)
        self.key = key


@dataclass
class Rect:
    """Axis-aligned rectangle given by center and half-sizes."""

    center: np.ndarray
    half: np.ndarray

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float)
        self.half = np.asarray(self.half, dtype=float)

    def contains(self, pts, margin: float = 0.0) -> np.ndarray:
        pts, c, w = np.asarray(pts, dtype=float), self.center, self.half + margin
        x, y = (np.abs(pts[..., j] - c[..., j]) - w[..., j] <= 0.0 for j in (0, 1))
        return x & y

    def grid(self, n: int) -> np.ndarray:
        """The n x n grid of each rectangle (x major): ``(..., n * n, 2)``."""
        lo, hi = self.center - self.half, self.center + self.half
        xs, ys = (np.linspace(lo[..., k], hi[..., k], n, axis=-1) for k in (0, 1))
        return np.stack(np.broadcast_arrays(xs[..., :, None], ys[..., None, :]), axis=-1).reshape(xs.shape[:-1] + (n * n, 2))


class AnglePolynomial:
    """Trigonometric polynomial in the angles with action-dependent coefficients.

    ``q(x, xi) = sum_m coeff_m(xi) * cos(m1*x1 + m2*x2)``.  The ``(0, 0)``
    coefficient is the torus average.
    """

    def __init__(self, terms):
        # terms: list of ((m1, m2), coeff) with coeff a float or callable(xi)
        self.terms = [
            (tuple(m), c if callable(c) else (lambda xi, _c=float(c): np.full(np.shape(xi)[:-1], _c)))
            for m, c in terms
        ]

    def __call__(self, x, xi):
        x = np.asarray(x, dtype=float)
        xi = np.asarray(xi, dtype=float)
        out = np.zeros(np.broadcast_shapes(x.shape[:-1], xi.shape[:-1]))
        for m, coeff in self.terms:
            phase = m[0] * x[..., 0] + m[1] * x[..., 1]
            out = out + coeff(xi) * np.cos(phase)
        return out

    def mean(self, xi):
        """Exact torus average: the constant-in-angle coefficient."""
        xi = np.asarray(xi, dtype=float)
        out = np.zeros(np.shape(xi)[:-1])
        for m, coeff in self.terms:
            if m == (0, 0):
                out = out + coeff(xi)
        return out


# ---------------------------------------------------------------------------
# model base
# ---------------------------------------------------------------------------


class ModelSystem:
    """Base class for integrable reference systems.

    Subclasses provide the perturbation symbol ``q_symbol``, the Maslov
    indices ``maslov_eta`` and the critical values ``singular_values``, and
    the methods ``dist_to_singular(a)``, ``is_regular(a)``,
    ``xi_from_value(a, shear=0)``, ``value_from_xi(xi, shear=0,
    seed_E=None)`` and ``jet(a, shear=0)``, vectorized over the leading
    axes of ``a`` and ``xi``; ``shear`` and the Newton ``seed_E`` may be per
    point.  ``jet`` returns ``(xi, dxi_da, hess)``: the actions ``xi(a)``,
    the Jacobian ``d xi / d a`` with shape ``(..., 2, 2)``, and the Hessian
    of ``p = E`` with respect to ``xi`` (the frequency derivative
    ``d omega / d xi``), also ``(..., 2, 2)``.
    """

    name: str
    q_symbol: AnglePolynomial
    maslov_eta: np.ndarray
    singular_values: list


class FlatModel(ModelSystem):
    """Globally chart-able model ``p(xi) = <omega_star, xi> + |xi|^2 / 2``."""

    def __init__(self, omega_star, q_choice: str):
        omega_star = np.asarray(omega_star, dtype=float)
        if not np.all(np.isfinite(omega_star)) or np.allclose(omega_star, 0.0):
            raise ParameterError("omega_star", f"omega_star = {' '.join(map(str, omega_star))} must be finite and nonzero")
        self.name = "flat"
        self.omega_star = omega_star
        self.q_symbol = _flat_q(q_choice)
        self.maslov_eta = np.array([0, 0])
        self.singular_values = []  # empty critical-value set

    def dist_to_singular(self, a):
        a = np.asarray(a, dtype=float)
        return np.full(np.shape(a)[:-1], np.inf)

    def is_regular(self, a):
        a = np.asarray(a, dtype=float)
        E, G = a[..., 0], a[..., 1]
        w1, w2 = self.omega_star
        disc = w1 * w1 + 2.0 * E - 2.0 * w2 * G - G * G
        return disc > 1e-8

    def xi_from_value(self, a, shear=0):
        # G = <q>(xi) = xi_2 ; E = p(xi) solved for xi_1 (branch with xi_1 > -w1)
        a = np.asarray(a, dtype=float)
        E, G = a[..., 0], a[..., 1]
        w1, w2 = self.omega_star
        disc = w1 * w1 + 2.0 * E - 2.0 * w2 * G - G * G
        if np.any(disc <= 0):
            raise ModelError("value outside the flat model's regular range")
        xi1 = -w1 + np.sqrt(disc)
        return np.stack([xi1, G], axis=-1)

    def value_from_xi(self, xi, shear=0, seed_E=None):
        xi = np.asarray(xi, dtype=float)
        x0, x1 = xi[..., 0], xi[..., 1]
        return np.stack([xi @ self.omega_star + 0.5 * (x0 * x0 + x1 * x1), x1], axis=-1)

    def jet(self, a, shear=0):
        # omega = omega_star + xi and d<q>/dxi = (0, 1), so d xi/d a is the
        # inverse of [[omega_1, omega_2], [0, 1]]; the Hessian is the identity
        xi = self.xi_from_value(a)
        w = self.omega_star + xi
        J = np.zeros(xi.shape + (2,))
        J[..., 0, 0] = 1.0 / w[..., 0]
        J[..., 0, 1] = -w[..., 1] / w[..., 0]
        J[..., 1, 1] = 1.0
        return xi, J, np.broadcast_to(np.eye(2), J.shape)


def _flat_q(q_choice: str) -> AnglePolynomial:
    if q_choice == "cos_x1":
        return AnglePolynomial([((1, 0), 1.0)])
    if q_choice == "cos_x2":
        return AnglePolynomial([((0, 1), 1.0)])
    if q_choice == "xi_weighted":
        return AnglePolynomial([((0, 0), lambda xi: xi[..., 1]), ((1, 0), 0.1)])
    if q_choice == "const3":
        return AnglePolynomial([((0, 0), 3.0)])
    raise ParameterError("q_choice", f"unknown q_choice {q_choice!r}")


def make_flat_model(omega_star, q_choice: str = "xi_weighted") -> FlatModel:
    """Flat reference model; trivial classical monodromy by construction."""
    return FlatModel(omega_star, q_choice)


# ---------------------------------------------------------------------------
# champagne-bottle model
# ---------------------------------------------------------------------------

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


def _not_a_knot(x):
    """Values to per-interval coefficients of the not-a-knot cubic
    interpolating them at the nodes ``x``: ``T[i, p, a]`` is the coefficient
    of ``(t - x[i])^p`` on ``[x[i], x[i+1]]`` per unit value at ``x[a]``.

    The slopes at the nodes solve the usual system: continuous second
    derivatives at the interior nodes, a continuous third derivative at
    ``x[1]`` and ``x[-2]``.  Each interval's Hermite cubic follows from its
    two values and slopes.
    """
    n, dx = len(x), np.diff(x)
    eye = np.eye(n)
    m = np.diff(eye, axis=0) / dx[:, None]  # secant slopes, per unit value
    A, rhs = np.zeros((n, n)), np.empty((n, n))
    r = np.arange(1, n - 1)
    A[r, r - 1], A[r, r], A[r, r + 1] = dx[1:], 2.0 * (dx[:-1] + dx[1:]), dx[:-1]
    rhs[1:-1] = 3.0 * (dx[1:, None] * m[:-1] + dx[:-1, None] * m[1:])
    d = x[2] - x[0]
    A[0, :2] = dx[1], d
    rhs[0] = ((dx[0] + 2.0 * d) * dx[1] * m[0] + dx[0] ** 2 * m[1]) / d
    d = x[-1] - x[-3]
    A[-1, -2:] = d, dx[-2]
    rhs[-1] = (dx[-1] ** 2 * m[-2] + (2.0 * d + dx[-1]) * dx[-2] * m[-1]) / d
    s = np.linalg.solve(A, rhs)  # slopes, per unit value
    h = dx[:, None]
    c2, c3 = (3.0 * m - 2.0 * s[:-1] - s[1:]) / h, (s[:-1] + s[1:] - 2.0 * m) / (h * h)
    return np.stack([eye[:-1], s[:-1], c2, c3], axis=1)


def _cell_table(x, y, vals):
    """Per-cell polynomials of the not-a-knot bicubic interpolating
    ``vals[a, b]`` at ``(x[a], y[b])``, the function FITPACK fits with s = 0.

    Returns ``(x, y, C)``: ``C[p, q, i, j]`` is the coefficient of
    ``(x - x[i])^p (y - y[j])^q`` on cell ``[x[i], x[i+1]] x [y[j], y[j+1]]``.
    The 2-d interpolant is the tensor product of the 1-d ones.
    """
    C = np.einsum("ipa,ab,jqb->pqij", _not_a_knot(x), vals, _not_a_knot(y), optimize=True)
    return x, y, np.ascontiguousarray(C)


# (x order, y order) of the partials ``_cell_eval`` returns by default
PARTIALS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


def _cell_eval(table, x, y, partials=PARTIALS):
    """Partials of a tabled bicubic at ``(x, y)``, one per ``(x order,
    y order)`` pair of ``partials``: by default ``(f, f_x, f_y, f_xx, f_xy,
    f_yy)``.

    Each has the broadcast shape of ``x`` and ``y``.  Points outside the knot
    box are clamped to it, as FITPACK does.  Every output element depends on
    its own point only, and its bits do not depend on the other partials
    asked for.
    """
    xb, yb, C = table
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    xf = np.minimum(np.maximum(x.ravel(), xb[0]), xb[-1])
    yf = np.minimum(np.maximum(y.ravel(), yb[0]), yb[-1])
    i = xb[1:-1].searchsorted(xf, "right")
    j = yb[1:-1].searchsorted(yf, "right")
    # the cells' coefficients gathered point-last, so that every Horner step
    # below runs over contiguous rows
    c = np.take(C.reshape(16, -1), i * C.shape[3] + j, axis=1).reshape(4, 4, -1)
    u, v = xf - xb[i], yf - yb[j]
    # Horner in y for each power of x: the polynomial in y and its
    # y-derivatives up to the highest y order asked for; then Horner in x,
    # for each x order over the y orders within the highest total order
    order, ny = max(p + q for p, q in partials), 1 + max(q for _, q in partials)
    c0, c1, c2, c3 = c[:, 0], c[:, 1], c[:, 2], c[:, 3]
    g = [((c3 * v + c2) * v + c1) * v + c0]
    if ny > 1:
        g.append((3.0 * c3 * v + 2.0 * c2) * v + c1)
    if ny > 2:
        g.append(6.0 * c3 * v + 2.0 * c2)
    g0, g1, g2, g3 = np.stack(g, axis=1)  # row q: the q-th y-derivative
    f = {0: ((g3 * u + g2) * u + g1) * u + g0}
    if order > 0:
        f[1] = (3.0 * g3[:order] * u + 2.0 * g2[:order]) * u + g1[:order]
    if order > 1:
        f[2] = 6.0 * g3[:1] * u + 2.0 * g2[:1]
    return tuple(f[p][q].reshape(x.shape) for p, q in partials)


# The well depth 1 radial action on the table's grid, as ``action_grid``
# computes it; the package ships the array so that no process integrates it.
ACTION_GRID = Path(__file__).with_name("action_grid.npy")
GRID_E = np.linspace(-0.26, 0.95, 220)
GRID_L = np.linspace(0.0, 0.72, 160)


def action_grid():
    """The well depth 1 radial action ``I_r(E, |l|)`` on the grid
    ``GRID_E x GRID_L`` by quadrature, 0 below the boundary curve.

    The package reads this array from ``ACTION_GRID`` and never computes it.
    After a change to the grid or the quadrature, regenerate the file with
    ``python -c "from pseudolattice import models as m; m.np.save(m.ACTION_GRID, m.action_grid())"``.
    """
    gE, gl = np.meshgrid(GRID_E, GRID_L, indexing="ij")
    vals = _radial_action_quad(gE.ravel(), gl.ravel(), 1.0).reshape(gE.shape)
    vals[~np.isfinite(vals)] = 0.0
    return vals


@functools.cache
def _action_table():
    """Cell table (see ``_cell_table``) of the bicubic interpolant of the
    shipped action grid on ``[-0.26, 0.95] x [0, 0.72]``; raises
    :class:`ModelError` naming the file if it is missing or malformed."""
    try:
        vals = np.load(ACTION_GRID, allow_pickle=False)
    except (OSError, ValueError) as exc:
        raise ModelError(f"cannot read the action grid {ACTION_GRID}: {exc}") from exc
    if vals.shape != (len(GRID_E), len(GRID_L)) or vals.dtype != np.float64:
        raise ModelError(f"action grid {ACTION_GRID} holds {vals.dtype} {vals.shape}, not float64 {(len(GRID_E), len(GRID_L))}")
    return _cell_table(GRID_E, GRID_L, vals)


def _tabled(E, al):
    """The action table; raises :class:`ModelError` unless the b = 1 points ``(E, |l|)`` lie in its box."""
    xb, yb, _ = table = _action_table()
    if np.any((E < xb[0]) | (E > xb[-1]) | (al > yb[-1])):
        raise ModelError(f"value outside the tabled range {xb[0]:g} b^2 <= E <= {xb[-1]:g} b^2, |l| <= {yb[-1]:g} b^1.5")
    return table


class ChampagneModel(ModelSystem):
    """Champagne-bottle system with a focus-focus value at the origin.

    Action variables: ``xi_1 = l`` (angular momentum) and ``xi_2 = I_r``
    (radial action).  The symmetric branch ``I_r(E, |l|)`` is continuous
    everywhere but has a derivative jump across ``{l = 0, E > 0}``; charts
    whose domain straddles that ray use the smooth continuation
    ``I_r + max(l, 0)`` (the ``shear`` flag), which is exactly where the
    classical monodromy shows up.
    """

    def __init__(self, well_depth: float):
        if not 0.0 < well_depth < math.inf:
            raise ParameterError("well_depth", f"well_depth = {well_depth} must be positive and finite")
        self.name = "champagne"
        self.b = float(well_depth)
        self.q_symbol = AnglePolynomial([((0, 0), lambda xi: xi[..., 0]), ((0, 1), 0.1)])
        self.maslov_eta = np.array([0, 2])
        self.singular_values = [("focus_focus_point", (0.0, 0.0)), ("minimum_energy_curve", None)]
        ls = self.b**1.5 * np.linspace(-0.8, 0.8, 600)  # boundary-curve samples
        self._curve = np.stack([self.min_energy(ls), ls], axis=-1)
        # (coordinate, box) bounds of each run of CURVE_RUN samples, then of
        # the run middles and the focus-focus value as boxes of one point
        self._runs = self._curve.reshape(-1, CURVE_RUN, 2).transpose(0, 2, 1).copy()  # (run, coordinate, sample)
        ends = np.concatenate([self._runs[:, :, CURVE_RUN // 2], [(0.0, 0.0)]])
        self._box_lo = np.concatenate([self._runs.min(axis=2), ends]).T.copy()
        self._box_hi = np.concatenate([self._runs.max(axis=2), ends]).T.copy()

    # -- critical set -----------------------------------------------------

    def min_energy(self, l):
        """Lower boundary E_min(l) of the momentum-map image."""
        l = np.asarray(l, dtype=float)
        b = self.b
        # the stationary radius u = r^2 is the positive root of
        # 4u^3 - 2b u^2 - l^2 = 0, the only real one for l != 0; Cardano's
        # hyperbolic form is u = b/6 + (b/3) cosh(arccosh(1 + x)/3) with
        # x = 27 l^2 / b^3, and arccosh(1 + x) = log1p(x + sqrt(x (2 + x)))
        # keeps full precision for small l
        x = 27.0 * l * l / b**3
        u = b / 6.0 + (b / 3.0) * np.cosh(np.log1p(x + np.sqrt(x * (2.0 + x))) / 3.0)
        return 0.5 * l * l / u + u * u - b * u

    def dist_to_singular(self, a):
        """Distance to the focus-focus value or the nearest boundary-curve
        sample, the bits of a loop over all the samples: the squared
        distance to a run's box (to the point clamped into it) rounds to at
        most any of its samples', as rounding is monotone, so only the runs
        whose box is no farther than a run middle or the focus-focus value
        (``<=``: on a run middle both are 0) are scanned, with the loop's
        ``dx*dx + dy*dy``.  A point that is not finite gets nan or inf."""
        a = np.asarray(a, dtype=float)
        pts = a.reshape(-1, 2)
        nruns = len(self._runs)
        d2 = np.empty(len(pts))
        rows = BLOCK // len(self._curve)  # a row scans all the samples at most
        for s in range(0, len(pts), rows):
            p, d2s = pts[s : s + rows, :, None], d2[s : s + rows]
            g = p - np.minimum(np.maximum(p, self._box_lo), self._box_hi)
            g *= g
            g = g[:, 0] + g[:, 1]
            d2s[:] = g[:, -1]  # px*px + py*py, the focus-focus term
            r, k = np.nonzero(g[:, :nruns] <= np.minimum.reduce(g[:, nruns:], axis=1, keepdims=True))
            dk = self._runs[k]
            dk -= p[r]
            dk *= dk
            np.minimum.at(d2s, r, np.minimum.reduce(dk[:, 0] + dk[:, 1], axis=1))
        return np.sqrt(d2).reshape(a.shape[:-1])

    def is_regular(self, a):
        a = np.asarray(a, dtype=float)
        E, l = a[..., 0], a[..., 1]
        reg = E > self.min_energy(l) + 1e-10
        at_ff = (np.abs(E) < 1e-12) & (np.abs(l) < 1e-12)
        return reg & ~at_ff

    # -- actions ----------------------------------------------------------

    def _action_jet(self, E, l, partials=PARTIALS):
        """``I_r(E, |l|)`` and its ``partials`` in ``(E, |l|)``, as ``_cell_eval``
        gives them: ``r = sqrt(b) rho``, ``p_r = b p``, ``l = b^1.5 m`` give
        ``H_b = b^2 H_1``, so ``I_r(E, l; b) = b^1.5 I_r(E / b^2, l / b^1.5; 1)``
        (b = 1 table)."""
        b = self.b
        E, al = np.asarray(E, dtype=float) / b**2, np.abs(l) / b**1.5
        out = _cell_eval(_tabled(E, al), E, al, partials)
        # each E-derivative scales by b^-2, each l-derivative by b^-1.5
        return tuple(f * b ** (1.5 - 2.0 * p - 1.5 * q) for f, (p, q) in zip(out, partials))

    def xi_from_value(self, a, shear=0):
        """Table-backed ``xi = (l, I_r(E, |l|) + shear * max(l, 0))``."""
        a = np.asarray(a, dtype=float)
        E, l = a[..., 0], a[..., 1]
        return np.stack([l, self._action_jet(E, l, ((0, 0),))[0] + shear * np.maximum(l, 0.0)], axis=-1)

    def value_from_xi(self, xi, shear=0, seed_E=None):
        """Invert the action map: solve I_r(E, l) = xi_2 for E (Newton).

        Each point iterates until its own residual is below 1e-14; raises
        :class:`ModelError` if any point has not converged after 60 steps.
        """
        xi = np.asarray(xi, dtype=float)
        b2, b32 = self.b**2, self.b**1.5  # the solve runs in b = 1 units
        l = xi[..., 0]
        target = xi[..., 1] - shear * np.maximum(l, 0.0)
        E = np.array(np.broadcast_to(0.3 if seed_E is None else seed_E / b2, l.shape), dtype=float).ravel()
        l, target = np.ravel(l), np.ravel(target) / b32
        lo, al = self.min_energy(l) / b2 + 1e-6, np.abs(l) / b32
        table = _tabled(lo, al)
        top = table[0][-1]  # Newton keeps E in [lo, the table's last E knot]
        todo = np.arange(E.size)
        for _ in range(60):
            Et = E[todo]
            f, df = _cell_eval(table, Et, al[todo], ((0, 0), (1, 0)))
            f = f - target[todo]
            step = np.clip(f / np.maximum(df, 1e-12), -0.2, 0.2)
            E[todo] = np.clip(Et - step, lo[todo], top)
            todo = todo[np.abs(f) >= 1e-14]
            if todo.size == 0:
                break
        else:
            raise ModelError(
                f"action inversion did not converge at {todo.size} of {E.size} points "
                f"(max residual {np.max(np.abs(f)):.2e})"
            )
        return np.stack([b2 * E.reshape(xi.shape[:-1]), xi[..., 0]], axis=-1)

    def jet(self, a, shear=0):
        # xi = (l, I_r(E, |l|) + shear * max(l, 0)).  On l = 0 the sign of l
        # is taken as +1 and the shear term as present, the right-hand limit,
        # which the sheared chart continues smoothly to l < 0.
        a = np.asarray(a, dtype=float)
        E, l = a[..., 0], a[..., 1]
        s = np.where(l >= 0.0, 1.0, -1.0)
        I_r, A, I_l, A_E, A_l, B_l = self._action_jet(E, l)  # A = d xi_2 / dE
        xi2 = I_r + shear * np.maximum(l, 0.0)
        B = s * I_l + shear * (l >= 0.0)  # d xi_2 / dl
        A_l = s * A_l
        J = np.zeros(a.shape + (2,))
        J[..., 0, 1] = 1.0
        J[..., 1, 0] = A
        J[..., 1, 1] = B
        # implicit-function theorem: omega = dE/dxi = (-B/A, 1/A), so along
        # the actions d/dxi_1 = omega_1 d/dE + d/dl and d/dxi_2 = omega_2 d/dE,
        # and d^2 E/dxi_i dxi_j = -(v_i K v_j) / A with v_1 = (omega_1, 1),
        # v_2 = (omega_2, 0) and K the (E, l) Hessian of xi_2
        w1, w2 = -B / A, 1.0 / A
        hess = np.empty_like(J)
        hess[..., 0, 0] = -(w1 * w1 * A_E + 2.0 * w1 * A_l + B_l) / A
        hess[..., 0, 1] = hess[..., 1, 0] = -w2 * (w1 * A_E + A_l) / A
        hess[..., 1, 1] = -w2 * w2 * A_E / A
        return np.stack([l, xi2], axis=-1), J, hess


def make_champagne_model(well_depth: float = 1.0) -> ChampagneModel:
    """Champagne-bottle reference model; parabolic classical monodromy."""
    return ChampagneModel(well_depth)


# ---------------------------------------------------------------------------
# charts
# ---------------------------------------------------------------------------


@dataclass
class ActionChart:
    """One local action-angle chart around a regular value ``c``.

    ``xi_of_c`` maps values ``a=(E, G)`` to actions; ``phi`` is its inverse.
    ``S`` holds the action integrals of the fundamental cycles at ``c`` and
    ``tau_c = S/(2 pi) - xi_c`` (constant over the chart).
    """

    model: ModelSystem
    c: np.ndarray
    domain: Rect
    S: np.ndarray
    eta: np.ndarray
    tau_c: np.ndarray
    shear: int = 0
    grid_xi: np.ndarray = field(default=None, repr=False)
    grid_values: np.ndarray = field(default=None, repr=False)
    xi_box: Rect = field(default=None, repr=False)

    def xi_of_c(self, a):
        return self.model.xi_from_value(a, shear=self.shear)

    def phi(self, xi):
        return self.model.value_from_xi(xi, shear=self.shear, seed_E=self.c[0])

    def d_xi(self, a):
        """Jacobian d(xi)/d(a), vectorized over value points."""
        return self.model.jet(a, shear=self.shear)[1]


def _chart_radius(model: ModelSystem, c):
    # 0.1 * distance to the critical-value set, capped for models with an
    # empty critical set; an array for centers of shape (n, 2)
    r = np.minimum(0.1, 0.1 * model.dist_to_singular(c))
    return r if np.ndim(c) == 2 else float(r)


def _check_centers(cs, bad, what, reason=None):
    """Raise :class:`ModelError` naming the first center of ``cs`` flagged in ``bad`` (its ``index``) and ``reason``."""
    if np.any(bad):
        i = int(np.argmax(bad))
        err = ModelError(f"center {i} at {tuple(cs[i].tolist())}: {what}")
        err.reason, err.index = reason, i
        raise err


def _chart_domains(model: ModelSystem, cs):
    """Radius and shear of the action charts at the centers ``cs``, shape
    ``(n, 2)``, with each chart's 9 x 9 grid of values and its actions.

    Raises :class:`ModelError`, naming the first such center, if a center is
    singular or too close to the critical-value set, or if its domain
    touches that set or its chart map degenerates on the domain.
    """
    _check_centers(cs, ~model.is_regular(cs), f"not a regular value of {model.name}")
    radius = _chart_radius(model, cs)
    _check_centers(cs, radius < 1e-4, "too close to the singular set")  # distance below 1e-3
    # a champagne domain that straddles the nonsmooth ray {l = 0, E > 0} of
    # the symmetric action branch uses the smooth continuation on l > 0
    shear = ((np.abs(cs[:, 1]) < radius) & (cs[:, 0] + radius > 0) & isinstance(model, ChampagneModel)).astype(int)

    grid_values = Rect(cs, np.stack([radius, radius], axis=-1)).grid(9)
    _check_centers(cs, ~np.all(model.is_regular(grid_values), axis=1), "chart domain touches the singular set")
    grid_xi, J, _ = model.jet(grid_values, shear=shear[:, None])
    _check_centers(cs, np.any(np.abs(np.linalg.det(J)) < 1e-10, axis=1), "chart map is degenerate on the requested domain")
    return radius, shear, grid_values, grid_xi


def action_coords(model: ModelSystem, c):
    """Local action charts at one regular value ``c``, shape ``(2,)``, or at
    ``n``, shape ``(n, 2)`` (a list), built in one pass over all their grids.

    Raises :class:`ModelError`, naming the first such center, for the
    reasons of ``_chart_domains`` or if the chart inversion fails on the
    domain (``reason`` ``chart_inversion``).
    """
    cs = np.atleast_2d(np.asarray(c, dtype=float))
    radius, shear, grid_values, grid_xi = _chart_domains(model, cs)
    lo, hi = grid_xi.min(axis=1), grid_xi.max(axis=1)

    xi_c = model.xi_from_value(cs, shear=shear)
    S = 2.0 * math.pi * xi_c
    if isinstance(model, ChampagneModel):
        # direct quadrature for the action integrals (independent of the
        # table used by xi_of_c)
        xi2 = _radial_action_quad(cs[:, 0], np.abs(cs[:, 1]), model.b, n=140) + shear * np.maximum(cs[:, 1], 0.0)
        S = 2.0 * math.pi * np.stack([cs[:, 1], xi2], axis=-1)
    tau_c = S / (2.0 * math.pi) - xi_c

    # round-trip sanity on the grids
    err = np.max(np.abs(model.value_from_xi(grid_xi, shear=shear[:, None], seed_E=cs[:, :1]) - grid_values), axis=(1, 2))
    bad = err > 1e-6 * (1.0 + np.max(np.abs(grid_values), axis=(1, 2)))
    _check_centers(cs, bad, f"chart inversion failed to converge (max error {np.max(err[bad], initial=0.0):.2e})", "chart_inversion")

    charts = [
        ActionChart(model=model, c=cs[i], domain=Rect(cs[i], radius[[i, i]]), S=S[i], eta=np.asarray(model.maslov_eta),
                    tau_c=tau_c[i], shear=int(shear[i]), grid_xi=grid_xi[i], grid_values=grid_values[i],
                    xi_box=Rect(0.5 * (lo[i] + hi[i]), 0.5 * (hi[i] - lo[i]) + 1e-12))
        for i in range(len(cs))
    ]
    return charts if np.ndim(c) == 2 else charts[0]


def _frequencies_at(model: ModelSystem, a, shear=0):
    """Frequency, ``d<q>/dxi`` and ``d omega/d xi`` at value points ``a``,
    from the jet of the chart with ``shear`` (which may be per point)."""
    _, J, hess = model.jet(a, shear=shear)
    dphi = np.linalg.inv(J)
    return dphi[..., 0, :], dphi[..., 1, :], hess


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def chart_to_text(chart: ActionChart) -> str:
    """Serialize a chart to the structured-text format used by the CLI."""
    lines = [
        "[action-chart]",
        f"model = {chart.model.name}",
        f"c = {float(chart.c[0])!r} {float(chart.c[1])!r}",
        f"S = {float(chart.S[0])!r} {float(chart.S[1])!r}",
        f"eta = {int(chart.eta[0])} {int(chart.eta[1])}",
        f"tau_c = {float(chart.tau_c[0])!r} {float(chart.tau_c[1])!r}",
        f"shear = {chart.shear}",
        "[grid]",
        "# xi1\txi2\tE\tG",
    ]
    for xi, a in zip(chart.grid_xi, chart.grid_values):
        lines.append(f"{float(xi[0])!r}\t{float(xi[1])!r}\t{float(a[0])!r}\t{float(a[1])!r}")
    return "\n".join(lines) + "\n"
