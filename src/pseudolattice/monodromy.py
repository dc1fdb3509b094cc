"""Transition matrices, cocycle checks and monodromy along loops.

An atlas is a finite covering of a region of the value plane by local
charts, held as arrays of rectangles and one Jacobian of all chart maps.
Transitions between overlapping charts are integer matrices obtained by
differentiating ``f_i o f_j^{-1}`` on overlap samples and rounding, for
arrays of pairs at once; composing them around a loop gives the monodromy
class, well-defined modulo GL(2,Z) conjugacy.  The classical monodromy of
the action atlas is computed by the same scheme applied to the exact action
maps (with the transpose-inverse convention for the torus-bundle
trivializations) and serves as the independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import BLOCK, MIN_RADIUS, ModelSystem, PipelineError, Rect, _chart_domains, _chart_radius


class MonodromyError(PipelineError):
    """Raised for inconsistent transitions or broken coverings.  A failure at
    one rectangle or edge of a loop carries its ``reason`` code and ``index``."""


OVERLAP_SHRINK = 0.05  # keeps the transition samples inside both domains


@dataclass
class PseudoChartAtlas:
    """Charts on the rectangles ``center[k] +- half[k]`` (``(n, 2)`` arrays);
    ``jac(idx, pts)`` is the Jacobian of chart ``idx[...]`` at ``pts[...]``,
    with ``idx`` broadcast against ``pts.shape[:-1]``."""

    center: np.ndarray
    half: np.ndarray
    jac: object

    def __len__(self):
        return len(self.center)

    def overlap(self, i, j):
        """Intersections of domains ``i`` and ``j`` (indices or index arrays),
        shrunk by ``OVERLAP_SHRINK``: ``(center, half)``, with a half-size
        ``<= 0`` where the domains do not overlap."""
        lo = np.maximum(self.center[i] - self.half[i], self.center[j] - self.half[j])
        hi = np.minimum(self.center[i] + self.half[i], self.center[j] + self.half[j])
        return 0.5 * (lo + hi), 0.5 * (hi - lo) * (1.0 - OVERLAP_SHRINK)


@dataclass
class TransitionMatrix:
    i: int
    j: int
    M: np.ndarray  # 2x2 integer
    pre_round: np.ndarray
    rounding_error: float


@dataclass
class MonodromyClass:
    """A loop's integer product; its normal form and invariants are read
    off the product (see ``_normal_form``)."""

    product: np.ndarray  # 2x2 integer
    edges: list  # TransitionMatrix per loop edge, k -> k + 1 (mod n)

    normal_form = property(lambda self: _normal_form(self.product)[0])
    invariants = property(lambda self: _normal_form(self.product)[1])  # (trace, det)
    parabolic_m = property(lambda self: _normal_form(self.product)[2])  # |m| for (conjugates of) +-[[1,m],[0,1]], else None


ROUNDING_TOL = 0.1
PAIR_BLOCK = BLOCK // 512  # chart pairs per block: a pair's 9 jet samples take ~440 elements


def _pre_round(atlas: PseudoChartAtlas, ii, jj, orders: int = 1):
    """:func:`transition_matrix`'s averages of the pairs ``(ii, jj)``, then with ``orders=2`` of ``(jj, ii)`` on the same grids."""
    pre = np.broadcast_to(np.eye(2), (orders,) + ii.shape + (2, 2)).copy()
    sel = np.flatnonzero(ii != jj)
    for s in range(0, sel.size, PAIR_BLOCK):
        blk = sel[s : s + PAIR_BLOCK]
        c, half = atlas.overlap(ii[blk], jj[blk])
        gap = blk[~np.all(half > 0, axis=-1)]
        if gap.size:
            raise MonodromyError(f"charts {ii[gap[0]]} and {jj[gap[0]]} do not overlap", "no_overlap", int(gap[0]))
        pts = Rect(c, half).grid(3)
        J = [atlas.jac(k[blk, None], pts) for k in (ii, jj)]
        pre[:, blk] = [np.mean(J[o] @ np.linalg.inv(J[1 - o]), axis=1) for o in range(orders)]
    return pre


def _rounded(ii, jj, pre):
    """``M`` and rounding errors of the averages ``pre`` of the pairs ``(ii, jj)``; the first pair that does not round raises."""
    M = np.rint(pre).astype(np.int64)
    err = np.max(np.abs(pre - M), axis=(1, 2))
    det = M[:, 0, 0] * M[:, 1, 1] - M[:, 0, 1] * M[:, 1, 0]
    for k in np.flatnonzero((err > ROUNDING_TOL) | (np.abs(det) != 1))[:1]:  # the first failing pair
        what = f"not integral: rounding error {err[k]:.3f} > {ROUNDING_TOL}" if err[k] > ROUNDING_TOL else f"has det {det[k]}, expected +-1"
        raise MonodromyError(f"transition {ii[k]}->{jj[k]} {what}", "non_integral", int(k))
    return M, err


def transition_matrix(atlas: PseudoChartAtlas, i, j) -> list:
    """Integer differentials of ``f_i o f_j^{-1}`` for the pairs of the index arrays ``i`` and ``j``:
    ``J_i J_j^{-1}`` averaged on a 3 x 3 grid of the overlap (the exact identity where ``i == j``), rounded,
    with the average and its distance to the integer matrix.  The first pair that does not overlap, round
    or have det +-1 raises :class:`MonodromyError`, with reason ``no_overlap`` or ``non_integral`` and the
    pair's position as index."""
    ii, jj = (np.asarray(x, dtype=np.int64) for x in (i, j))
    (pre,) = _pre_round(atlas, ii, jj)
    return [TransitionMatrix(int(a), int(b), m, p, float(e)) for a, b, p, m, e in zip(ii, jj, pre, *_rounded(ii, jj, pre))]


@dataclass
class CocycleReport:
    triples_checked: int
    violations: list  # (i, j, k, M_ik, M_ij @ M_jk)

    @property
    def ok(self) -> bool:
        return len(self.violations) == 0


def cocycle_check(atlas: PseudoChartAtlas) -> CocycleReport:
    """Verify ``M_ik = M_ij M_jk`` on every triple overlap, exactly.

    Overlapping pairs are the centers within twice the largest half-size
    of each other (L-infinity) that pass the exact rectangle test, found by
    a sweep over the centers sorted on E; an overlap's Jacobians give both
    orders, as it and its grid are symmetric in the pair.  Each ordered
    pair (i, j) is joined with the pairs (j, k), in (i, j, k) order.
    """
    n = len(atlas)
    # rounding can make rectangles that touch within an ulp overlap, so the
    # search radius has a margin and the exact test decides
    radius = 2.0 * np.max(atlas.half) * (1.0 + 1e-9)
    order = np.argsort(atlas.center[:, 0], kind="stable")
    x = atlas.center[order, 0]
    # the centers after each one in E order and within the radius of it in E
    deg = np.searchsorted(x, x + radius, side="right") - np.arange(1, n + 1)
    first = np.repeat(np.arange(n), deg)
    second = np.arange(len(first)) + np.repeat(np.arange(1, n + 1) - (np.cumsum(deg) - deg), deg)
    ij = order[np.stack([first, second], axis=1)]
    ij = ij[np.max(np.abs(atlas.center[ij[:, 0]] - atlas.center[ij[:, 1]]), axis=1) <= radius]
    ij = ij[np.all(atlas.overlap(ij[:, 0], ij[:, 1])[1] > 0, axis=1)]
    pre = _pre_round(atlas, ij[:, 0], ij[:, 1], orders=2).reshape(-1, 2, 2)  # each pair in both orders
    ij = np.concatenate([ij, ij[:, ::-1]])
    order = np.lexsort((ij[:, 1], ij[:, 0]))
    i, j = ij[order].T
    M, _ = _rounded(i, j, pre[order])
    oc, oh = atlas.overlap(i, j)
    lo, hi = oc - oh, oc + oh
    key = i * n + j
    start = np.searchsorted(i, np.arange(n + 1))  # pairs (j, k) are the rows start[j]:start[j + 1]
    checked, violations = 0, []
    for s in range(0, len(i), PAIR_BLOCK):
        r = np.arange(s, min(s + PAIR_BLOCK, len(i)))
        # each row (i, j) repeated over the rows (j, k), then the row (i, k)
        deg = start[j[r] + 1] - start[j[r]]
        r_ij = np.repeat(r, deg)
        r_jk = np.arange(len(r_ij)) + np.repeat(start[j[r]] - (np.cumsum(deg) - deg), deg)
        want = i[r_ij] * n + j[r_jk]
        r_ik = np.minimum(np.searchsorted(key, want), len(key) - 1)
        # k != i, (i, k) overlap, and the triple-wise intersection is nonempty
        meet = np.all(np.minimum(hi[r_ik], hi[r_ij]) - np.maximum(lo[r_ik], lo[r_ij]) > 0, axis=1)
        keep = (j[r_jk] != i[r_ij]) & (key[r_ik] == want) & meet
        r_ij, r_jk, r_ik = r_ij[keep], r_jk[keep], r_ik[keep]
        checked += len(r_ij)
        prod = M[r_ij] @ M[r_jk]
        violations += [
            (int(i[r_ij[t]]), int(j[r_ij[t]]), int(j[r_jk[t]]), M[r_ik[t]], prod[t])
            for t in np.flatnonzero(np.any(prod != M[r_ik], axis=(1, 2)))
        ]
    return CocycleReport(triples_checked=checked, violations=violations)


def _det(P) -> int:
    """Exact determinant of a 2 x 2 integer matrix, in Python integers."""
    (a, b), (c, d) = (map(int, row) for row in P)
    return a * d - b * c


def _normal_form(P: np.ndarray):
    """Canonical representative and invariants of the GL(2,Z) class of P.

    Full classification for the det 1, trace +-2 classes: these are
    conjugate to ``s [[1, m], [0, 1]]`` with ``s = trace/2`` and ``|m|``
    the gcd of the entries of ``P - s I`` (``m = 0`` for ``+-I``).  Other
    classes are reported by (trace, det) with P itself as the representative.
    """
    P = np.asarray(P, dtype=np.int64)
    tr, det = int(P[0, 0]) + int(P[1, 1]), _det(P)
    if det == 1 and abs(tr) == 2:
        s = tr // 2
        m = int(np.gcd.reduce(np.abs(P - s * np.eye(2, dtype=np.int64)).ravel()))
        return s * np.array([[1, m], [0, 1]], dtype=np.int64), (tr, det), m
    return P, (tr, det), None


def loop_monodromy(atlas: PseudoChartAtlas) -> MonodromyClass:
    """Ordered product of the transitions around the atlas, in its chart
    order: the edges are chart k -> k + 1 (mod n)."""
    if len(atlas) < 1:
        raise MonodromyError("empty atlas")
    k = np.arange(len(atlas))
    edges = transition_matrix(atlas, k, np.roll(k, -1))
    P = np.eye(2, dtype=np.int64)
    for t in edges:
        P = P @ t.M
    return MonodromyClass(P, edges)


# ---------------------------------------------------------------------------
# loop coverings and the classical oracle
# ---------------------------------------------------------------------------


MAX_CHARTS = 4000  # a covering with more centers raises MonodromyError


def cover_loop(
    model: ModelSystem,
    vertices,
    spacing_factor: float = 0.4,
    radius_fn=None,
):
    """Chart centers along a polygonal loop, spaced by a fraction of the
    local chart radius (which shrinks near the critical-value set).

    ``radius_fn(c, r)`` maps a center and its chart radius ``r`` to the
    spacing radius instead; the spectral pipeline passes the rectangle
    half-width so consecutive rectangles overlap.  Raises
    :class:`MonodromyError` with reason ``bad_loop`` for fewer than two
    vertices or zero length, ``singular_set`` where the loop comes within
    the distance at which ``models._chart_domains`` refuses a center, and
    ``chart_budget`` for more than ``MAX_CHARTS`` centers.
    """
    vertices = np.atleast_2d(np.asarray(vertices, dtype=float))
    if len(vertices) < 2:
        raise MonodromyError("loop needs at least 2 vertices", "bad_loop")
    pts = np.vstack([vertices, vertices[:1]])
    seg = np.diff(pts, axis=0)
    seglen = np.linalg.norm(seg, axis=1)
    cum = np.concatenate([[0.0], np.cumsum(seglen)])
    total = cum[-1]
    if total == 0:
        raise MonodromyError("degenerate loop of zero length", "bad_loop")

    def radius(c):
        r = _chart_radius(model, c)
        if r < MIN_RADIUS:  # the radius is 0.1 of the distance
            E, G = c
            raise MonodromyError(f"loop passes within {10 * MIN_RADIUS:g} of the singular set at ({E:.6g}, {G:.6g})", "singular_set")
        return r if radius_fn is None else radius_fn(c, r)

    def point_at(s):
        i = int(np.searchsorted(cum, s, side="right")) - 1
        i = min(i, len(seglen) - 1)
        frac = (s - cum[i]) / seglen[i] if seglen[i] > 0 else 0.0
        return pts[i] + frac * seg[i]

    centers, s = [point_at(0.0)], 0.0
    r = r0 = radius(centers[0])
    while True:
        s += spacing_factor * r
        if s >= total:
            break
        centers.append(point_at(s))
        if len(centers) > MAX_CHARTS:
            raise MonodromyError(f"loop covering exceeds the chart budget of {MAX_CHARTS} centers", "chart_budget")
        r = radius(centers[-1])
    # drop a final center that crowds the starting chart
    if len(centers) > 2 and np.linalg.norm(centers[-1] - centers[0]) < 0.25 * spacing_factor * r0:
        centers.pop()
    return np.array(centers)


def action_atlas(model: ModelSystem, centers) -> PseudoChartAtlas:
    """Atlas of exact action charts at the given centers: each batch of
    Jacobians is one ``jet`` call, with the shear of each point's chart.

    Only the domains and shears are built, with the checks they rest on
    (``models._chart_domains``); the charts' action integrals and round trip
    are not needed here.
    """
    center = np.array(centers, dtype=float, ndmin=2)
    radius, shear = _chart_domains(model, center)[:2]
    return PseudoChartAtlas(center, np.stack([radius, radius], axis=-1), lambda idx, pts: model.jet(pts, shear=shear[idx])[1])


def classical_monodromy(model: ModelSystem, loop_vertices) -> MonodromyClass:
    """Monodromy of the torus bundle over a polygonal loop of regular values.

    The action charts are trivializations of the bundle; their transitions
    are the transpose-inverses of the rounded action-map differentials, so
    the classical monodromy is the transpose-inverse of the action atlas's
    loop product, ``prod M_t^{-T} = (prod M_t)^{-T}``.  ``edges`` keeps the
    action-map transitions ``M_t``.
    """
    centers = cover_loop(model, loop_vertices)
    cls = loop_monodromy(action_atlas(model, centers))
    (a, b), (c, d) = cls.product
    det = _det(cls.product)  # +-1, so the integer inverse is exact
    P = det * np.array([[d, -c], [-b, a]], dtype=np.int64)
    return MonodromyClass(P, cls.edges)


def compare_monodromies(spectral: MonodromyClass, classical: MonodromyClass) -> bool | None:
    """Whether the spectral product is GL(2,Z)-conjugate to the transpose
    of the classical product; ``None`` where this is not decided.

    Different (trace, det) pairs are never conjugate.  The det 1,
    |trace| <= 2 classes are decided exactly: at trace +-2 (``+-I`` and
    ``+-[[1, m], [0, 1]]``) (trace, |m|) is a complete invariant, and each
    elliptic trace 0, +-1 is a single GL(2,Z) class.  The det -1, trace 0
    involutions form two classes, ``[[1, 0], [0, -1]]`` and
    ``[[0, 1], [1, 0]]``, told apart by the gcd of the entries of ``P - I``
    (2 and 1), a conjugacy invariant.  The hyperbolic classes and the other
    det -1 classes need more than (trace, det) and are left undecided.
    Trace, det, |m| and that gcd do not change under transposition, so the
    classes' own invariants are compared.
    """
    if spectral.invariants != classical.invariants:
        return False
    trace, det = spectral.invariants
    if (trace, det) == (0, -1):
        eye = np.eye(2, dtype=np.int64)
        g_s, g_c = (np.gcd.reduce((c.product - eye).ravel()) for c in (spectral, classical))
        return bool(g_s == g_c)
    if det != 1 or abs(trace) > 2:
        return None
    return spectral.parabolic_m == classical.parabolic_m


VERDICT_TEXT = {True: "true", False: "false", None: "undecided"}


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def _fmt_mat(M) -> str:
    M = np.asarray(M)
    return f"[[{M[0,0]}, {M[0,1]}], [{M[1,0]}, {M[1,1]}]]"


def monodromy_report(spectral: MonodromyClass, classical: MonodromyClass) -> str:
    """Structured-text report: loop, per-edge transitions, product, verdict."""
    lines = ["[monodromy]", f"loop = {' '.join(str(t.i) for t in spectral.edges)}", "[transitions]"]
    lines += [f"{t.i} -> {t.j}: M = {_fmt_mat(t.M)}  rounding_error = {t.rounding_error:.3e}" for t in spectral.edges]
    lines += [
        "[class]",
        f"product = {_fmt_mat(spectral.product)}",
        f"normal_form = {_fmt_mat(spectral.normal_form)}",
        f"trace = {spectral.invariants[0]}",
        f"det = {spectral.invariants[1]}",
        f"parabolic_m = {spectral.parabolic_m}",
        "[classical]",
        f"product = {_fmt_mat(classical.product)}",
        f"normal_form = {_fmt_mat(classical.normal_form)}",
        f"parabolic_m = {classical.parabolic_m}",
        f"conjugate = {VERDICT_TEXT[compare_monodromies(spectral, classical)]}",
    ]
    return "\n".join(lines) + "\n"
