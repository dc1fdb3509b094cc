"""Transition matrices, cocycle checks and monodromy along loops.

An atlas is a finite covering of a region of the value plane by local
charts, each carrying a leading-term map and its Jacobian.  Transitions
between overlapping charts are integer matrices obtained by differentiating
``f_i o f_j^{-1}`` on overlap samples and rounding; composing them around a
loop gives the monodromy class, well-defined modulo GL(2,Z) conjugacy.  The
classical monodromy of the action atlas is computed by the same scheme
applied to the exact action maps (with the transpose-inverse convention for
the torus-bundle trivializations) and serves as the independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .models import ModelSystem, Rect, _chart_radius, action_coords


class MonodromyError(ValueError):
    """Raised for inconsistent transitions or broken coverings."""


@dataclass
class AtlasChart:
    """One covering element: a domain in the value plane plus the Jacobian
    of its chart map, which is all that overlaps and transitions read."""

    domain: Rect
    df0: object  # callable u -> 2x2 Jacobian (vectorized over points)


@dataclass
class PseudoChartAtlas:
    charts: list

    def __len__(self):
        return len(self.charts)

    def overlap(self, i: int, j: int, shrink: float = 0.05):
        """Intersection rectangle of domains i and j, slightly shrunk.

        Returns None for an empty intersection.  The shrink factor keeps
        finite-difference stencils of transition sampling inside both
        domains.
        """
        di, dj = self.charts[i].domain, self.charts[j].domain
        lo = np.maximum(di.center - di.half, dj.center - dj.half)
        hi = np.minimum(di.center + di.half, dj.center + dj.half)
        if np.any(hi - lo <= 0):
            return None
        c = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo) * (1.0 - shrink)
        if np.any(half <= 0):
            return None
        return Rect(c, half)


@dataclass
class TransitionMatrix:
    i: int
    j: int
    M: np.ndarray  # 2x2 integer
    pre_round: np.ndarray
    rounding_error: float


@dataclass
class MonodromyClass:
    loop: list
    product: np.ndarray  # 2x2 integer
    normal_form: np.ndarray
    invariants: tuple  # (trace, det)
    parabolic_m: int | None = None  # |m| for (conjugates of) +-[[1,m],[0,1]]
    edges: list = field(default_factory=list)  # TransitionMatrix per loop edge


ROUNDING_TOL = 0.1


def transition_matrix(atlas: PseudoChartAtlas, i: int, j: int) -> TransitionMatrix:
    """Integer differential of ``f_i o f_j^{-1}`` on a 3 x 3 grid of the overlap.

    The Jacobians of both charts are averaged over the samples before
    rounding; the pre-rounding matrix and its distance to the integer
    matrix are recorded.
    """
    if i == j:
        eye = np.eye(2, dtype=np.int64)
        return TransitionMatrix(i, j, eye, eye.astype(float), 0.0)
    ov = atlas.overlap(i, j)
    if ov is None:
        raise MonodromyError(f"charts {i} and {j} do not overlap")
    pts = ov.grid(3)
    Ji = np.asarray(atlas.charts[i].df0(pts))
    Jj = np.asarray(atlas.charts[j].df0(pts))
    T = Ji @ np.linalg.inv(Jj)
    pre = T.mean(axis=0)
    M = np.rint(pre).astype(np.int64)
    err = float(np.max(np.abs(pre - M)))
    if err > ROUNDING_TOL:
        raise MonodromyError(
            f"transition {i}->{j} not integral: rounding error {err:.3f} > {ROUNDING_TOL}"
        )
    det = int(round(float(np.linalg.det(M))))
    if det not in (-1, 1):
        raise MonodromyError(f"transition {i}->{j} has det {det}, expected +-1")
    return TransitionMatrix(i=i, j=j, M=M, pre_round=pre, rounding_error=err)


@dataclass
class CocycleReport:
    pairs: list  # computed TransitionMatrix objects
    triples_checked: int
    violations: list  # (i, j, k, M_ik, M_ij @ M_jk)

    @property
    def ok(self) -> bool:
        return len(self.violations) == 0


def cocycle_check(atlas: PseudoChartAtlas) -> CocycleReport:
    """Verify ``M_ik = M_ij M_jk`` on every triple overlap, exactly.

    Triples are walked along the overlap graph: for each overlapping pair
    (i, j), only the charts k overlapping j are candidates.
    """
    n = len(atlas)
    trans = {}
    overlaps = {}
    pairs = []
    for i in range(n):
        for j in range(n):
            ov = atlas.overlap(i, j) if i != j else None
            if ov is not None:
                overlaps[(i, j)] = ov
                t = transition_matrix(atlas, i, j)
                trans[(i, j)] = t.M
                if i < j:
                    pairs.append(t)
    nbrs = [[] for _ in range(n)]
    for i, j in sorted(trans):
        nbrs[i].append(j)
    violations = []
    checked = 0
    for i in range(n):
        for j in nbrs[i]:
            ov_ij = overlaps[(i, j)]
            for k in nbrs[j]:
                if k == i or (i, k) not in trans:
                    continue
                # the triple-wise intersection must be nonempty
                ov = overlaps[(i, k)]
                lo = np.maximum(ov.center - ov.half, ov_ij.center - ov_ij.half)
                hi = np.minimum(ov.center + ov.half, ov_ij.center + ov_ij.half)
                if np.any(hi - lo <= 0):
                    continue
                checked += 1
                prod = trans[(i, j)] @ trans[(j, k)]
                if not np.array_equal(prod, trans[(i, k)]):
                    violations.append((i, j, k, trans[(i, k)], prod))
    return CocycleReport(pairs=pairs, triples_checked=checked, violations=violations)


def _normal_form(P: np.ndarray):
    """Canonical representative and invariants of the GL(2,Z) class of P.

    Full classification for the det 1, trace +-2 classes: these are
    conjugate to ``s [[1, m], [0, 1]]`` with ``s = trace/2`` and ``|m|``
    the gcd of the entries of ``P - s I`` (``m = 0`` for ``+-I``).  Other
    classes are reported by (trace, det) with P itself as the representative.
    """
    P = np.asarray(P, dtype=np.int64)
    tr = int(P[0, 0] + P[1, 1])
    det = int(round(float(np.linalg.det(P))))
    if det == 1 and abs(tr) == 2:
        s = tr // 2
        m = int(np.gcd.reduce(np.abs(P - s * np.eye(2, dtype=np.int64)).ravel()))
        return s * np.array([[1, m], [0, 1]], dtype=np.int64), (tr, det), m
    return P, (tr, det), None


def loop_monodromy(atlas: PseudoChartAtlas, loop) -> MonodromyClass:
    """Ordered product of transitions along a cyclic chart sequence."""
    loop = [int(i) for i in loop]
    if len(loop) < 1:
        raise MonodromyError("empty loop")
    closed = loop + [loop[0]] if loop[-1] != loop[0] else loop
    P = np.eye(2, dtype=np.int64)
    edges = []
    for a, b in zip(closed[:-1], closed[1:]):
        if atlas.overlap(a, b) is None:
            raise MonodromyError(f"gap in the loop: charts {a} and {b} do not overlap")
        edges.append(transition_matrix(atlas, a, b))
        P = P @ edges[-1].M
    nf, inv, m = _normal_form(P)
    return MonodromyClass(loop=loop, product=P, normal_form=nf, invariants=inv, parabolic_m=m, edges=edges)


# ---------------------------------------------------------------------------
# loop coverings and the classical oracle
# ---------------------------------------------------------------------------


def cover_loop(
    model: ModelSystem,
    vertices,
    spacing_factor: float = 0.4,
    max_charts: int = 4000,
    radius_fn=None,
):
    """Chart centers along a polygonal loop, spaced by a fraction of the
    local chart radius (which shrinks near the critical-value set).

    ``radius_fn`` overrides the default chart-radius rule; the spectral
    pipeline passes the rectangle half-width so consecutive rectangles
    overlap.
    """
    if radius_fn is None:
        radius_fn = lambda c: _chart_radius(model, c)
    vertices = np.atleast_2d(np.asarray(vertices, dtype=float))
    if len(vertices) < 2:
        raise MonodromyError("loop needs at least 2 vertices")
    pts = np.vstack([vertices, vertices[:1]])
    seg = np.diff(pts, axis=0)
    seglen = np.linalg.norm(seg, axis=1)
    cum = np.concatenate([[0.0], np.cumsum(seglen)])
    total = cum[-1]
    if total == 0:
        raise MonodromyError("degenerate loop of zero length")

    def point_at(s):
        i = int(np.searchsorted(cum, s, side="right")) - 1
        i = min(i, len(seglen) - 1)
        frac = (s - cum[i]) / seglen[i] if seglen[i] > 0 else 0.0
        return pts[i] + frac * seg[i]

    centers = [point_at(0.0)]
    s = 0.0
    while True:
        r = radius_fn(centers[-1])
        if r <= 0:
            raise MonodromyError("loop touches the singular set")
        s += spacing_factor * r
        if s >= total:
            break
        centers.append(point_at(s))
        if len(centers) > max_charts:
            raise MonodromyError("loop covering exceeds the chart budget")
    # drop a final center that crowds the starting chart
    if len(centers) > 2:
        r0 = radius_fn(centers[0])
        if np.linalg.norm(centers[-1] - centers[0]) < 0.25 * spacing_factor * r0:
            centers.pop()
    return np.array(centers)


def action_atlas(model: ModelSystem, centers) -> PseudoChartAtlas:
    """Atlas of exact action charts at the given centers."""
    charts = action_coords(model, np.atleast_2d(np.asarray(centers, dtype=float)))
    return PseudoChartAtlas(charts=[AtlasChart(domain=ac.domain, df0=ac.d_xi) for ac in charts])


def classical_monodromy(model: ModelSystem, loop_vertices) -> MonodromyClass:
    """Monodromy of the torus bundle over a polygonal loop of regular values.

    The action charts are trivializations of the bundle; their transitions
    are the transpose-inverses of the rounded action-map differentials, so
    the classical monodromy is the transpose-inverse of the action atlas's
    loop product, ``prod M_t^{-T} = (prod M_t)^{-T}``.  ``edges`` keeps the
    action-map transitions ``M_t``.
    """
    centers = cover_loop(model, loop_vertices)
    cls = loop_monodromy(action_atlas(model, centers), range(len(centers)))
    (a, b), (c, d) = cls.product
    det = a * d - b * c  # +-1, so the integer inverse is exact
    P = det * np.array([[d, -c], [-b, a]], dtype=np.int64)
    nf, invs, m = _normal_form(P)
    return MonodromyClass(
        loop=cls.loop, product=P, normal_form=nf, invariants=invs, parabolic_m=m, edges=cls.edges
    )


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
    """
    A = np.asarray(spectral.product, dtype=np.int64)
    B = np.asarray(classical.product, dtype=np.int64).T
    _, inv_a, m_a = _normal_form(A)
    _, inv_b, m_b = _normal_form(B)
    if inv_a != inv_b:
        return False
    trace, det = inv_a
    if (trace, det) == (0, -1):
        eye = np.eye(2, dtype=np.int64)
        return bool(np.gcd.reduce((A - eye).ravel()) == np.gcd.reduce((B - eye).ravel()))
    if det != 1 or abs(trace) > 2:
        return None
    return m_a == m_b


VERDICT_TEXT = {True: "true", False: "false", None: "undecided"}


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def _fmt_mat(M) -> str:
    M = np.asarray(M)
    return f"[[{M[0,0]}, {M[0,1]}], [{M[1,0]}, {M[1,1]}]]"


def monodromy_report(
    spectral: MonodromyClass,
    classical: MonodromyClass | None = None,
) -> str:
    """Structured-text report: loop, per-edge transitions, product, verdict."""
    lines = ["[monodromy]", f"loop = {' '.join(str(i) for i in spectral.loop)}"]
    if spectral.edges:
        lines.append("[transitions]")
        for t in spectral.edges:
            lines.append(
                f"{t.i} -> {t.j}: M = {_fmt_mat(t.M)}  rounding_error = {t.rounding_error:.3e}"
            )
    lines += [
        "[class]",
        f"product = {_fmt_mat(spectral.product)}",
        f"normal_form = {_fmt_mat(spectral.normal_form)}",
        f"trace = {spectral.invariants[0]}",
        f"det = {spectral.invariants[1]}",
        f"parabolic_m = {spectral.parabolic_m}",
    ]
    if classical is not None:
        verdict = compare_monodromies(spectral, classical)
        lines += [
            "[classical]",
            f"product = {_fmt_mat(classical.product)}",
            f"normal_form = {_fmt_mat(classical.normal_form)}",
            f"parabolic_m = {classical.parabolic_m}",
            f"conjugate = {VERDICT_TEXT[verdict]}",
        ]
    return "\n".join(lines) + "\n"
