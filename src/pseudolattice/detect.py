"""Recover lattice structure from a raw eigenvalue cloud.

The cloud in a good rectangle is a smoothly deformed copy of ``h Z^2`` once
rescaled by ``chi^{-1}`` into the value plane, where the rectangle lives;
:func:`fit_hchart` rescales the cloud once and every step works on the
rescaled points.  Detection proceeds in three steps: estimate a local
lattice basis from the difference vectors of the points around an anchor,
label the points near the anchor by rounding in that basis and the rest of
the cloud by two predictions of a quadratic map fitted to the labels so far
(so smooth curvature never accumulates), and least-squares fit the chart
map ``f`` sending points to ``h`` times their labels.  The predictions and
the chart fit share one feature matrix.  The leading term of the fitted map
is gauge-aligned against a reference action chart by
:func:`gauge_alignment`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import ActionChart, PipelineError, Rect
from .synth import SpectrumCloud, chi_inverse


class DetectionError(PipelineError):
    """Raised when a cloud fails lattice detection or labeling.

    ``reason`` is its code: ``too_few_points``, ``ill_conditioned_basis``,
    ``label_conflict``, ``unlabeled_fraction`` or ``residual``.  ``index`` is
    the position of the failing rectangle in a batch of them.
    """


# ---------------------------------------------------------------------------
# basis detection
# ---------------------------------------------------------------------------


def _row_norm(x):
    """Lengths of the rows of an ``(n, 2)`` array, bit for bit ``np.linalg.norm(x, axis=1)``."""
    return np.sqrt(x[:, 0] * x[:, 0] + x[:, 1] * x[:, 1])


def _direction_peak(vs, ang):
    """Centroid of the densest angular cluster among vectors ``vs`` with angles ``ang`` (mod pi):
    the vectors within 0.15 rad of the peak of the smoothed 60-bin histogram."""
    idx = np.minimum((ang / math.pi * _BINS).astype(int), _BINS - 1)
    hist = np.bincount(idx, minlength=_BINS)
    smooth = hist[_NEIGHBORS].sum(axis=0)  # wrap-around smoothing over adjacent bins
    peak = np.argmax(smooth)
    theta = (peak + 0.5) * math.pi / _BINS
    dist = np.abs(np.mod(ang - theta + math.pi / 2, math.pi) - math.pi / 2)
    members = vs[dist < max(0.15, 1.5 * math.pi / _BINS)]  # never empty: the peak's three bins lie within 1.5 bins
    # average with consistent orientation along the peak direction
    direction = np.array([math.cos(theta), math.sin(theta)])
    members = members * np.sign(members @ direction)[:, None]
    return members.sum(axis=0) / len(members)  # the mean, bit for bit


def _gauss_reduce(b1, b2):
    """Lagrange/Gauss reduction to a shortest acute basis, |b1| <= |b2|."""
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


# Points nearest the anchor that the basis is estimated from.  The basis only
# has to be right near the anchor: it seeds the labels there, and the
# quadratic predictions absorb the curvature further out.
BASIS_PATCH = 30
PATCH_PAIRS = np.flatnonzero(np.triu(np.ones((BASIS_PATCH, BASIS_PATCH)), 1))  # pairs i < j, flat; built once
_BINS = 60  # angle bins of _direction_peak's histogram over [0, pi)
_NEIGHBORS = (np.arange(_BINS) + np.arange(-1, 2)[:, None]) % _BINS  # each bin and its two neighbors, wrapping around


def detect_basis(u, anchor):
    """Estimate the two shortest lattice vectors of the rescaled cloud ``u``.

    The pairwise difference vectors of the ``BASIS_PATCH`` points nearest
    the ``anchor`` (the labeling anchor, the rectangle's center) are
    clustered by direction; the two densest independent directions give
    candidate vectors which are then Gauss-reduced.  Rejects clouds whose
    basis is too ill-conditioned to label reliably.
    """
    n = len(u)
    if n < 25:
        raise DetectionError(f"insufficient points for basis detection ({n} < 25)", "too_few_points")
    if n > BASIS_PATCH:
        d0, d1 = u[:, 0] - anchor[0], u[:, 1] - anchor[1]
        d2 = d0 * d0 + d1 * d1
        # sorted, so the patch keeps cloud order whatever lies outside it
        u = u[np.sort(np.argpartition(d2, BASIS_PATCH - 1)[:BASIS_PATCH])]
    m, dx, dy = len(u), u[:, 0] - u[:, :1], u[:, 1] - u[:, 1:]  # entry (i, j) is u[j] - u[i]; (j, i) its negation
    pairs = PATCH_PAIRS if m == BASIS_PATCH else np.flatnonzero(np.triu(np.ones((m, m)), 1))
    sq = dx * dx + dy * dy
    diffs, lens = np.stack([dx.take(pairs), dy.take(pairs)], axis=-1), np.sqrt(sq.take(pairs))
    flip = (diffs[:, 1] < 0) | ((diffs[:, 1] == 0) & (diffs[:, 0] < 0))
    np.negative(diffs, out=diffs, where=flip[:, None])  # into the upper half-plane
    ang = np.mod(np.arctan2(diffs[:, 1], diffs[:, 0]), math.pi)
    sq.flat[:: m + 1] = np.inf
    nn = np.sort(np.min(sq, axis=1))  # squared nearest-neighbor distances in the patch
    L0 = 0.5 * (math.sqrt(nn[(m - 1) // 2]) + math.sqrt(nn[m // 2]))  # their median

    short = (lens > 0.5 * L0) & (lens < 1.45 * L0)
    if not np.any(short):
        raise DetectionError("degenerate cloud: no short difference vectors", "ill_conditioned_basis")
    b1 = _direction_peak(diffs[short], ang[short])

    # second direction: strip everything collinear with b1, then take the
    # densest direction among the shortest remaining vectors
    theta1 = math.atan2(b1[1], b1[0]) % math.pi
    away = np.abs(np.mod(ang - theta1 + math.pi / 2, math.pi) - math.pi / 2) > 0.35
    rest = away & (lens < 4.0 * L0)
    if not np.any(rest):
        raise DetectionError("degenerate cloud: only one difference direction", "ill_conditioned_basis")
    rest &= lens < 1.45 * np.min(lens[rest])
    b2 = _direction_peak(diffs[rest], ang[rest])

    b1, b2 = _gauss_reduce(b1, b2)
    if _ill_conditioned(b1, b2):
        raise DetectionError("lattice basis rejected: condition number > 50", "ill_conditioned_basis")
    return b1, b2


def _ill_conditioned(b1, b2) -> bool:
    """``|det B| < 1e-300`` or ``cond(B) = s1/s2 > 50`` for ``B = [b1 b2]``, as ``s1/s2 + s2/s1 = |B|_F^2 / |det B|``."""
    (a, c), (b, d) = b1.tolist(), b2.tolist()
    det = abs(a * d - b * c)
    return det < 1e-300 or a * a + b * b + c * c + d * d > (50.0 + 1.0 / 50.0) * det


# ---------------------------------------------------------------------------
# labeling
# ---------------------------------------------------------------------------


def _features(t):
    x, y = t[:, 0], t[:, 1]
    X = np.empty((len(t), 6))
    X[:, 0] = 1.0
    X[:, 1:3] = t
    X[:, 3] = x * x
    X[:, 4] = x * y
    X[:, 5] = y * y
    return X


def _feature_jac(coeffs, t, scale):
    """Jacobian of the quadratic map w.r.t. unscaled coordinates, per point;
    the ``(..., 6, 2)`` coefficients broadcast with the points and scales."""
    c, x, y = coeffs, t[..., :1], t[..., 1:]  # rows of c: 1, x, y, x^2, xy, y^2
    dx = (c[..., 1, :] + 2.0 * x * c[..., 3, :] + y * c[..., 4, :]) / scale[..., :1]
    dy = (c[..., 2, :] + x * c[..., 4, :] + 2.0 * y * c[..., 5, :]) / scale[..., 1:]
    return np.stack([dx, dy], axis=-1)


MAX_UNLABELED = 0.01  # largest fraction of a cloud left without a label
RESIDUAL_LIMIT = 0.05  # largest chart-fit residual, in units of h


def _near_integer(k):
    """The rows of ``k`` rounded, and which lie within 0.25 of them in both coordinates."""
    kr = np.rint(k)
    r = np.abs(k - kr)
    return kr, np.maximum(r[:, 0], r[:, 1]) <= 0.25


def label_lattice(u, basis, rect: Rect):
    """Integer labels of the rescaled cloud ``u``, counted from the point
    ``u0`` nearest the center of ``rect``; returns ``(labels, labeled, X)``,
    the ``(n, 2)`` labels (0 where not labeled), the labeled mask and the
    :func:`_features` of ``u`` centered and scaled by ``rect``, which the
    chart fit reuses.

    The seed rounds the points within 4.5 basis lengths of ``u0`` in the
    basis, where chart curvature is negligible.  Two predictions follow:
    each fits a quadratic map to the labeled points, checks it against their
    labels and labels every point it sends near an integer.  This gives the
    labels of a region grown round by round on every cloud whose chart
    passes ``RESIDUAL_LIMIT`` that was checked, up to 199 lattice spacings
    in half-width.  A cloud too curved for a quadratic chart can lose labels
    that growth would find; where that was seen, growth's chart failed the
    residual limit too.
    """
    n, x, y = len(u), u[:, 0], u[:, 1]
    dx, dy = x - rect.center[0], y - rect.center[1]
    u0 = u[np.argmin(np.sqrt(dx * dx + dy * dy))]
    ex, ey = x - u0[0], y - u0[1]
    (a, c), (b, d) = (v.tolist() for v in basis)  # the basis matrix [[a, b], [c, d]]
    near = np.flatnonzero(np.sqrt(ex * ex + ey * ey) <= 4.5 * math.sqrt(max(a * a + c * c, b * b + d * d)))
    kr, ok = _near_integer((u[near] - u0) @ (np.array([[d, -c], [-b, a]]) / (a * d - b * c)))  # B^-T
    labels, labeled = np.zeros((n, 2)), np.zeros(n, dtype=bool)
    labels[near[ok]], labeled[near[ok]] = kr[ok], True
    X = _features(np.stack([dx / rect.half[0], dy / rect.half[1]], axis=-1))
    if np.count_nonzero(labeled) >= 8:
        for _ in range(2):
            Xl, kl = X.compress(labeled, axis=0), labels.compress(labeled, axis=0)
            # the normal equations square cond(Xl); the seed's fit is the worst
            # conditioned, its points within 4.5 spacings of the center in
            # features scaled by the rectangle: cond(XtX) ~ 1e7 at 199 spacings
            C, _, rank, _ = np.linalg.lstsq(Xl.T @ Xl, Xl.T @ kl, rcond=None)
            if rank < X.shape[1] and len(kl) >= 12:
                raise DetectionError("labeling fit is rank deficient", "too_few_points")
            kr, ok = _near_integer(X @ C)
            if np.any(kr.compress(labeled, axis=0) != kl):
                raise DetectionError("label conflict: refit disagrees with assigned labels", "label_conflict")
            new = ok & ~labeled
            labels[new], labeled[new] = kr[new], True

    frac = 1.0 - np.count_nonzero(labeled) / n
    if frac > MAX_UNLABELED:
        raise DetectionError(f"unlabeled fraction {frac:.3f} exceeds {MAX_UNLABELED}", "unlabeled_fraction")
    labels = labels.astype(np.int64)
    # injectivity: one int64 key per label (labels are far below 2^31)
    key = np.sort(((labels[:, 0] << 32) + labels[:, 1])[labeled])
    if np.any(key[1:] == key[:-1]):
        raise DetectionError("label conflict: duplicate integer labels", "label_conflict")
    return labels, labeled, X


# ---------------------------------------------------------------------------
# chart fitting
# ---------------------------------------------------------------------------


@dataclass
class HChart:
    """Fitted local chart certifying lattice structure of one rectangle."""

    rectangle: Rect  # in the value plane; its center and half-sizes scale the fit
    h: float
    epsilon: float
    u: np.ndarray  # rescaled points (n, 2)
    labels: np.ndarray  # (n, 2) integers (labeled subset)
    residuals: np.ndarray  # dist(f(mu), h*label) in units of h
    basis: tuple
    coeffs: np.ndarray  # (6, 2): quadratic map t -> h*k on scaled coords
    affine: np.ndarray  # df/du at the rectangle center
    labeled_fraction: float = 1.0

    def f(self, u) -> np.ndarray:
        """Fitted chart map: ``(n, 2)`` rescaled points -> approximately h * Z^2."""
        return _features((u - self.rectangle.center) / self.rectangle.half) @ self.coeffs

    # leading-term views ---------------------------------------------------

    def f_tilde0(self, u, M, c, eta) -> np.ndarray:
        """Leading-term estimate of the chart map, targeting ``phi^{-1}`` (the
        offset ``tau_c`` is zero) of a reference chart with Maslov indices
        ``eta``: the fit with the integer label basis ``M`` and offset ``c``
        of :func:`gauge_alignment` removed."""
        return self.f(u) @ np.linalg.inv(M).T - self.h * (c + np.asarray(eta, dtype=float) / 4.0)

    def max_residual(self) -> float:
        return float(np.max(self.residuals)) if len(self.residuals) else 0.0

    def to_text(self) -> str:
        b1, b2 = self.basis
        E, G = map(float, self.rectangle.center)
        lines = [
            "[h-chart]",
            f"h = {self.h!r}",
            f"epsilon = {self.epsilon!r}",
            f"center = {E!r} {self.epsilon * G!r}",  # the spectral window's
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


def fit_hchart(cloud: SpectrumCloud) -> HChart:
    """Detect, label and fit the chart map of one good rectangle; rejects a
    fit whose residual exceeds ``RESIDUAL_LIMIT``."""
    h, eps = cloud.params.h, cloud.params.epsilon
    rect = cloud.rectangle
    u = chi_inverse(cloud.points, eps)
    basis = detect_basis(u, rect.center)
    labels, m, X = label_lattice(u, basis, rect)
    u, labels, X = (a.compress(m, axis=0) for a in (u, labels, X))

    target = h * labels.astype(float)
    C, _, rank, _ = np.linalg.lstsq(X, target, rcond=None)
    if rank < X.shape[1]:
        raise DetectionError("chart fit is rank deficient", "too_few_points")
    residuals = _row_norm(X @ C - target) / h
    if np.max(residuals) > RESIDUAL_LIMIT:
        raise DetectionError(
            f"chart rejected: max residual {np.max(residuals):.4f} > {RESIDUAL_LIMIT} (units of h)", "residual"
        )

    affine = np.stack([C[1] / rect.half[0], C[2] / rect.half[1]], axis=-1)  # _feature_jac at the center
    if abs(affine[0, 0] * affine[1, 1] - affine[0, 1] * affine[1, 0]) < 1e-300:
        raise DetectionError("fitted chart is not a local diffeomorphism", "residual")

    return HChart(
        rectangle=rect,
        h=h,
        epsilon=eps,
        u=u,
        labels=labels,
        residuals=residuals,
        basis=basis,
        coeffs=C,
        affine=affine,
        labeled_fraction=float(np.count_nonzero(m) / len(m)),
    )


def gauge_alignment(hchart: HChart, chart: ActionChart) -> tuple:
    """Integer label basis ``M`` and offset ``c`` between a fitted chart and
    the action chart of its rectangle: to leading order ``hchart.f`` is
    ``M (phi^{-1} + h (c + eta/4))``, which :meth:`HChart.f_tilde0`
    undoes.

    ``M`` rounds the fit's affine part against the action chart's Jacobian
    at the rectangle center and ``c`` the mean offset over the labeled
    points.  Raises :class:`DetectionError` unless ``M`` is unimodular.
    """
    J = chart.d_xi(hchart.rectangle.center)  # Jacobian of the ground-truth leading term
    M = np.rint(hchart.affine @ np.linalg.inv(J)).astype(np.int64)
    if abs(round(float(np.linalg.det(M)))) != 1:
        raise DetectionError("gauge alignment failed: non-unimodular label basis", "label_conflict")
    diff = hchart.f(hchart.u) @ np.linalg.inv(M).T - chart.xi_of_c(hchart.u)
    c = np.rint(np.mean(diff, axis=0) / hchart.h - np.asarray(chart.eta, dtype=float) / 4.0).astype(np.int64)
    return M, c


# ---------------------------------------------------------------------------
# exact leading-term inversion
# ---------------------------------------------------------------------------


def invert_leading(chart: ActionChart, target):
    """The ``xi`` with ``phi(xi) = target``: the chart map ``xi_of_c`` at ``target``."""
    return chart.xi_of_c(target)
