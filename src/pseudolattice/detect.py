"""Recover lattice structure from a raw eigenvalue cloud.

The cloud in a good rectangle is a smoothly deformed copy of ``h Z^2`` once
rescaled by ``chi^{-1}``.  Detection proceeds in three steps: estimate a
local lattice basis from nearest-neighbor difference vectors, unwind integer
labels outward from an anchor point (refitting a quadratic map each round so
smooth curvature never accumulates), and least-squares fit the chart map
``f`` sending points to ``h`` times their labels.  The leading term of the
fitted map can be gauge-aligned against a reference action chart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .models import ActionChart
from .synth import GoodRectangle, SpectrumCloud


class DetectionError(ValueError):
    """Raised when a cloud fails lattice detection or labeling."""


def chi(u, epsilon: float):
    """Identify ``(u1, u2)`` with the complex number ``u1 + i*eps*u2``."""
    u = np.asarray(u, dtype=float)
    return u[..., 0] + 1j * epsilon * u[..., 1]


def chi_inverse(z, epsilon: float):
    """Exact inverse of :func:`chi`; requires a positive ``epsilon``."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    z = np.asarray(z, dtype=complex)
    return np.stack([z.real, z.imag / epsilon], axis=-1)


# ---------------------------------------------------------------------------
# basis detection
# ---------------------------------------------------------------------------


def _direction_peak(vs, ang, ang_tol: float = 0.15):
    """Centroid of the densest angular cluster among vectors ``vs`` with angles ``ang`` (mod pi)."""
    nb = 60
    idx = np.minimum((ang / math.pi * nb).astype(int), nb - 1)
    hist = np.bincount(idx, minlength=nb)
    # wrap-around smoothing over adjacent bins
    smooth = hist + np.roll(hist, 1) + np.roll(hist, -1)
    peak = np.argmax(smooth)
    theta = (peak + 0.5) * math.pi / nb
    dist = np.abs(np.mod(ang - theta + math.pi / 2, math.pi) - math.pi / 2)
    members = vs[dist < max(ang_tol, 1.5 * math.pi / nb)]
    if len(members) == 0:
        raise DetectionError("degenerate cloud: no difference cluster found")
    # average with consistent orientation along the peak direction
    direction = np.array([math.cos(theta), math.sin(theta)])
    members = members * np.sign(members @ direction)[:, None]
    return members.mean(axis=0)


def _gauss_reduce(b1, b2):
    """Lagrange/Gauss reduction to a shortest acute basis, |b1| <= |b2|."""
    b1, b2 = np.asarray(b1, float), np.asarray(b2, float)
    for _ in range(60):
        if np.dot(b1, b1) > np.dot(b2, b2):
            b1, b2 = b2, b1
        m = round(np.dot(b1, b2) / np.dot(b1, b1))
        if m == 0:
            break
        b2 = b2 - m * b1
    if np.dot(b1, b2) < 0:
        b2 = -b2
    return b1, b2


def detect_basis(cloud: SpectrumCloud, k_neighbors: int = 12):
    """Estimate the two shortest lattice vectors of the rescaled cloud.

    Nearest-neighbor difference vectors are clustered by direction; the two
    densest independent directions give candidate vectors which are then
    Gauss-reduced.  Rejects clouds whose basis is too ill-conditioned to
    label reliably.
    """
    eps = cloud.params.epsilon
    u = chi_inverse(cloud.points, eps)
    n = len(u)
    if n < 25:
        raise DetectionError(f"insufficient points for basis detection ({n} < 25)")
    tree = cKDTree(u)
    kq = min(k_neighbors + 1, n)
    _, idx = tree.query(u, k=kq)
    diffs = (u[idx[:, 1:]] - u[:, None, :]).reshape(-1, 2)
    flip = (diffs[:, 1] < 0) | ((diffs[:, 1] == 0) & (diffs[:, 0] < 0))
    np.negative(diffs, out=diffs, where=flip[:, None])  # into the upper half-plane
    lens = np.linalg.norm(diffs, axis=1)
    ang = np.mod(np.arctan2(diffs[:, 1], diffs[:, 0]), math.pi)
    L0 = np.median(lens[:: kq - 1])  # first-neighbor distances

    short = (lens > 0.5 * L0) & (lens < 1.45 * L0)
    if not np.any(short):
        raise DetectionError("degenerate cloud: no short difference vectors")
    b1 = _direction_peak(diffs[short], ang[short])

    # second direction: strip everything collinear with b1, then take the
    # densest direction among the shortest remaining vectors
    theta1 = math.atan2(b1[1], b1[0]) % math.pi
    away = np.abs(np.mod(ang - theta1 + math.pi / 2, math.pi) - math.pi / 2) > 0.35
    rest = away & (lens < 4.0 * L0)
    if not np.any(rest):
        raise DetectionError("degenerate cloud: only one difference direction")
    rest &= lens < 1.45 * np.min(lens[rest])
    b2 = _direction_peak(diffs[rest], ang[rest])

    b1, b2 = _gauss_reduce(b1, b2)
    B = np.column_stack([b1, b2])
    if abs(np.linalg.det(B)) < 1e-300 or np.linalg.cond(B) > 50.0:
        raise DetectionError("lattice basis rejected: condition number > 50")
    return b1, b2


# ---------------------------------------------------------------------------
# labeling
# ---------------------------------------------------------------------------


def _features(t):
    t = np.atleast_2d(t)
    x, y = t[:, 0], t[:, 1]
    return np.stack([np.ones_like(x), x, y, x * x, x * y, y * y], axis=-1)


def _feature_jac(coeffs, t, scale):
    """Jacobian of the quadratic map w.r.t. unscaled coordinates, per point."""
    t = np.atleast_2d(t)
    n = t.shape[0]
    J = np.empty((n, 2, 2))
    c = coeffs  # (6, 2)
    dt1 = np.stack(
        [np.zeros(n), np.ones(n), np.zeros(n), 2 * t[:, 0], t[:, 1], np.zeros(n)], axis=-1
    )
    dt2 = np.stack(
        [np.zeros(n), np.zeros(n), np.ones(n), np.zeros(n), t[:, 0], 2 * t[:, 1]], axis=-1
    )
    J[:, :, 0] = dt1 @ c / scale[0]
    J[:, :, 1] = dt2 @ c / scale[1]
    return J


@dataclass
class LabelResult:
    labels: np.ndarray  # (n, 2) integers; undefined where not labeled
    labeled: np.ndarray  # boolean mask
    residuals: np.ndarray  # |poly prediction - label|, units of one lattice step


def label_lattice(cloud: SpectrumCloud, basis, anchor: complex, max_unlabeled: float = 0.01) -> LabelResult:
    """Integer labels by breadth-first unwinding from the anchor point.

    A quadratic map from rescaled points to label space is refit on every
    growth round, so the acceptance test for a new point always uses the
    locally correct basis.  Conflicts (a refit that disagrees with an
    already-assigned label) reject the rectangle.
    """
    eps = cloud.params.epsilon
    u = chi_inverse(cloud.points, eps)
    n = len(u)
    b1, b2 = basis
    B = np.column_stack([b1, b2])
    Binv = np.linalg.inv(B)

    ua = chi_inverse(np.asarray(anchor, dtype=complex), eps)
    i0 = int(np.argmin(np.linalg.norm(u - ua, axis=1)))
    u0 = u[i0]

    labels = np.zeros((n, 2), dtype=np.int64)
    labeled = np.zeros(n, dtype=bool)
    residuals = np.zeros(n)
    labeled[i0] = True

    # seed: direct rounding in the constant basis close to the anchor,
    # where chart curvature is negligible
    seed_r = 4.5 * max(np.linalg.norm(b1), np.linalg.norm(b2))
    d0 = np.linalg.norm(u - u0, axis=1)
    kf = (u - u0) @ Binv.T
    kr = np.rint(kf).astype(np.int64)
    res = np.max(np.abs(kf - kr), axis=1)
    seed = (d0 <= seed_r) & (res <= 0.25)
    labels[seed] = kr[seed]
    labeled |= seed
    residuals[seed] = res[seed]

    # grow outward, refitting the quadratic map each round
    center = u0
    scale = np.maximum(u.max(axis=0) - u.min(axis=0), 1e-300) / 2.0
    t = (u - center) / scale
    X = _features(t)
    for _ in range(200):
        if labeled.sum() < 8:
            break
        C, _, rank, _ = np.linalg.lstsq(X[labeled], labels[labeled].astype(float), rcond=None)
        if rank < X.shape[1] and labeled.sum() >= 12:
            raise DetectionError("labeling fit is rank deficient")
        pred = X @ C
        # consistency on already-labeled points
        back = np.rint(pred[labeled]).astype(np.int64)
        if np.any(back != labels[labeled]):
            raise DetectionError("label conflict: refit disagrees with assigned labels")
        r_max = 1.6 * np.max(d0[labeled]) + seed_r
        cand = ~labeled & (d0 <= r_max)
        if not np.any(cand):
            break
        kr_c = np.rint(pred[cand]).astype(np.int64)
        res_c = np.max(np.abs(pred[cand] - kr_c), axis=1)
        ok = res_c <= 0.25
        if not np.any(ok):
            break
        ci = np.flatnonzero(cand)[ok]
        labels[ci] = kr_c[ok]
        residuals[ci] = res_c[ok]
        labeled[ci] = True

    if labeled.sum() < n:
        frac = 1.0 - labeled.sum() / n
        if frac > max_unlabeled:
            raise DetectionError(f"unlabeled fraction {frac:.3f} exceeds {max_unlabeled}")
    # injectivity: sorted by both columns, equal labels are adjacent
    k = labels[labeled]
    k = k[np.lexsort((k[:, 1], k[:, 0]))]
    if np.any(np.all(k[1:] == k[:-1], axis=1)):
        raise DetectionError("label conflict: duplicate integer labels")
    return LabelResult(labels=labels, labeled=labeled, residuals=residuals)


# ---------------------------------------------------------------------------
# chart fitting
# ---------------------------------------------------------------------------


@dataclass
class HChart:
    """Fitted local chart certifying lattice structure of one rectangle."""

    rectangle: GoodRectangle
    h: float
    epsilon: float
    u: np.ndarray  # rescaled points (n, 2)
    labels: np.ndarray  # (n, 2) integers (labeled subset)
    residuals: np.ndarray  # dist(f(mu), h*label) in units of h
    basis: tuple
    coeffs: np.ndarray  # (6, 2): quadratic map t -> h*k on scaled coords
    center: np.ndarray
    scale: np.ndarray
    affine: np.ndarray  # df/du at the rectangle center
    offset: np.ndarray  # f at the rectangle center
    gauge_M: np.ndarray | None = None  # integer alignment vs a reference chart
    gauge_c: np.ndarray | None = None
    eta: np.ndarray | None = None
    labeled_fraction: float = 1.0

    def f(self, u) -> np.ndarray:
        """Fitted chart map: rescaled point -> approximately h * Z^2."""
        u = np.asarray(u, dtype=float)
        t = (np.atleast_2d(u) - self.center) / self.scale
        out = _features(t) @ self.coeffs
        return out if u.ndim > 1 else out[0]

    def df(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        t = (np.atleast_2d(u) - self.center) / self.scale
        J = _feature_jac(self.coeffs, t, self.scale)
        return J if u.ndim > 1 else J[0]

    # leading-term views ---------------------------------------------------

    def f_tilde0(self, u) -> np.ndarray:
        """Leading-term estimate of the chart map.

        If a gauge alignment against a reference action chart was computed,
        the integer change of basis and offset are removed so the result
        targets ``tau_c + phi^{-1}``; otherwise the raw fit is returned (it
        is the same map up to the label gauge).
        """
        val = self.f(u)
        if self.gauge_M is None:
            return val
        corr = self.h * (self.gauge_c + (self.eta if self.eta is not None else 0.0) / 4.0)
        return val @ np.linalg.inv(self.gauge_M).T - corr

    def f_inverse(self, target, tol: float = 1e-13, max_iter: int = 60) -> np.ndarray:
        """Invert the fitted quadratic map by Newton iteration.

        Converged when the residual is below ``tol * h`` or the Newton step is
        within 16 ulps of ``u``: at fine ``h`` the residual of the nearest
        representable ``u`` can exceed ``tol * h``.  Raises
        :class:`DetectionError` if neither happens within ``max_iter`` steps.
        """
        target = np.asarray(target, dtype=float)
        tgt = np.atleast_2d(target)
        u = np.tile(self.center, (tgt.shape[0], 1))
        for _ in range(max_iter):
            r = self.f(u) - tgt
            err = np.max(np.abs(r))
            if err < tol * self.h:
                break
            step = np.linalg.solve(self.df(u), r[..., None])[..., 0]
            u = u - step
            if np.max(np.abs(step)) <= 16 * np.spacing(np.max(np.abs(u))):
                break
        else:
            raise DetectionError(f"chart inversion did not converge in {max_iter} iterations (max residual {err / self.h:.3g} h)")
        return u if target.ndim > 1 else u[0]

    def max_residual(self) -> float:
        return float(np.max(self.residuals)) if len(self.residuals) else 0.0

    def to_text(self) -> str:
        b1, b2 = self.basis
        lines = [
            "[h-chart]",
            f"h = {self.h!r}",
            f"epsilon = {self.epsilon!r}",
            f"center = {self.rectangle.center.real!r} {self.rectangle.center.imag!r}",
            f"basis1 = {float(b1[0])!r} {float(b1[1])!r}",
            f"basis2 = {float(b2[0])!r} {float(b2[1])!r}",
            f"max_residual = {self.max_residual()!r}",
            f"labeled_fraction = {self.labeled_fraction!r}",
            "# u1\tu2\tk1\tk2\tresidual",
        ]
        for ui, ki, ri in zip(self.u, self.labels, self.residuals):
            lines.append(
                f"{float(ui[0])!r}\t{float(ui[1])!r}\t{int(ki[0])}\t{int(ki[1])}\t{float(ri)!r}"
            )
        return "\n".join(lines) + "\n"


def fit_hchart(
    cloud: SpectrumCloud,
    a=None,
    chart_hint: ActionChart | None = None,
    residual_limit: float = 0.05,
) -> HChart:
    """Detect, label and fit the chart map of one good rectangle.

    With ``chart_hint`` the fit is additionally gauge-aligned: the integer
    change of label basis and offset relative to the reference action chart
    are solved for, making ``f_tilde0`` directly comparable to the ground
    truth ``tau_c + phi^{-1}``.
    """
    params = cloud.params
    h, eps = params.h, params.epsilon
    rect = cloud.rectangle
    basis = detect_basis(cloud)
    lab = label_lattice(cloud, basis, rect.center)
    u = chi_inverse(cloud.points, eps)

    m = lab.labeled
    center = chi_inverse(np.asarray(rect.center, dtype=complex), eps)
    scale = np.array([rect.half_width, rect.half_height / eps])
    t = (u[m] - center) / scale
    X = _features(t)
    target = h * lab.labels[m].astype(float)
    C, _, rank, _ = np.linalg.lstsq(X, target, rcond=None)
    if rank < X.shape[1]:
        raise DetectionError("chart fit is rank deficient")
    residuals = np.linalg.norm(X @ C - target, axis=1) / h
    if np.max(residuals) > residual_limit:
        raise DetectionError(
            f"chart rejected: max residual {np.max(residuals):.4f} > {residual_limit} (units of h)"
        )

    affine = _feature_jac(C, np.zeros((1, 2)), scale)[0]
    if abs(np.linalg.det(affine)) < 1e-300:
        raise DetectionError("fitted chart is not a local diffeomorphism")
    offset = _features(np.zeros((1, 2)))[0] @ C

    hc = HChart(
        rectangle=rect,
        h=h,
        epsilon=eps,
        u=u[m],
        labels=lab.labels[m],
        residuals=residuals,
        basis=basis,
        coeffs=C,
        center=center,
        scale=scale,
        affine=affine,
        offset=offset,
        labeled_fraction=float(np.mean(m)),
    )

    if chart_hint is not None:
        J = chart_hint.d_xi(center)  # Jacobian of the ground-truth leading term
        M_pre = affine @ np.linalg.inv(J)
        M = np.rint(M_pre).astype(np.int64)
        if abs(round(float(np.linalg.det(M)))) != 1:
            raise DetectionError("gauge alignment failed: non-unimodular label basis")
        gt = chart_hint.tau_c + chart_hint.xi_of_c(u[m])
        eta = np.asarray(chart_hint.eta, dtype=float)
        diff = (X @ C) @ np.linalg.inv(M).T - gt
        c = np.rint(np.mean(diff, axis=0) / h - eta / 4.0).astype(np.int64)
        hc.gauge_M = M
        hc.gauge_c = c
        hc.eta = eta
    return hc


# ---------------------------------------------------------------------------
# exact leading-term inversion
# ---------------------------------------------------------------------------


def invert_leading(chart: ActionChart, target, tol: float = 1e-12, max_iter: int = 50):
    """Solve ``phi(xi) = target`` by Newton iteration, seeded from the grid.

    The Newton matrix ``(d phi/d xi)^-1`` is the chart's ``d xi/d a`` at
    ``phi(xi)``.
    """
    target = np.asarray(target, dtype=float)
    seeds = chart.grid_values
    i = int(np.argmin(np.linalg.norm(seeds - target, axis=1)))
    xi = chart.grid_xi[i].copy()
    for _ in range(max_iter):
        a = chart.phi(xi)
        r = a - target
        if np.max(np.abs(r)) < tol:
            return xi
        xi = xi - chart.d_xi(a) @ r
    raise DetectionError(f"Newton inversion did not converge in {max_iter} iterations")
