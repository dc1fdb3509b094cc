"""Diophantine frequency tests, the good-value margin and bad-set measure.

The non-resonance condition on a frequency vector ``omega`` is
``|<omega, k>| >= alpha / |k|^(1+d)`` for all nonzero integer ``k`` with
``|k| <= k_max`` (a truncated decision: beyond the truncation radius the
test is necessary-only).  The sweep is reduced exactly to O(k_max)
candidates: for each value of one component of ``k`` only the integers
nearest the resonance line can violate the bound (anything two or more
steps away exceeds the margin of an axis vector, and both axis vectors are
among the candidates).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import BLOCK, ActionChart, ModelSystem, ParameterError, _frequencies_at


@dataclass
class DiophantineParams:
    alpha: float = 1e-3
    d: float = 1.0
    k_max: int = 1000

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise ParameterError("alpha", f"alpha = {self.alpha} must be positive")
        if not 0.0 < self.d < np.inf:
            raise ParameterError("d", f"d = {self.d} must be positive and finite")
        if not self.k_max >= 100:
            raise ParameterError("k_max", f"k_max = {self.k_max} must be at least 100")


def diophantine_margin(omega, params: DiophantineParams):
    """Worst margin ``min_k |<omega,k>| * |k|^(1+d)`` over the truncated sweep.

    Returns ``(margin, k_witness)``; the frequency passes the test iff
    ``margin >= alpha``.  The witness is a ``k`` attaining the margin; among
    exact ties, which one is returned depends on the order of the sweep.
    """
    omega = np.asarray(omega, dtype=float)
    if np.all(omega == 0.0):
        raise ValueError("omega must be nonzero")
    margin, witness = _margins(omega[None, :], params)
    return float(margin[0]), tuple(int(x) for x in witness[0])


def _margins(omegas, params: DiophantineParams):
    """Vectorized worst margins and witnesses for a batch of frequency vectors.

    Each margin is a minimum of per-``(row, k)`` values, so it does not
    depend on the batch or the chunking; each witness is a ``k`` attaining
    it, and among exact ties the first one visited.
    """
    omegas = np.asarray(omegas, dtype=float)
    n = omegas.shape[0]
    km = params.k_max
    power = 1.0 + params.d

    best = np.full(n, np.inf)
    best_k = np.zeros((n, 2), dtype=np.int64)

    # solve for the component with the larger coefficient so that the
    # non-candidate integers are >= 1.5*max|omega| away in value; the swept
    # index starts at 0, so both axis vectors are among the candidates
    swap = np.abs(omegas[:, 1]) < np.abs(omegas[:, 0])
    wa = np.where(swap, omegas[:, 1], omegas[:, 0])  # coefficient of the swept index
    wb = np.where(swap, omegas[:, 0], omegas[:, 1])  # larger coefficient, solved index
    ks = np.arange(0, km + 1, dtype=np.int64)
    rows = np.arange(n)
    # sweep in chunks of BLOCK (row, k) pairs
    chunk = max(1, BLOCK // max(n, 1))
    for start in range(0, km + 1, chunk):
        kc = ks[start : start + chunk]
        ratio = -(wa[:, None] * kc[None, :]) / wb[:, None]
        base = np.floor(ratio)
        for off in (0.0, 1.0):
            kb = (base + off).astype(np.int64)
            val = wa[:, None] * kc[None, :] + wb[:, None] * kb
            normk = np.sqrt(kc.astype(float) ** 2 + kb.astype(float) ** 2)
            inside = (normk > 0) & (normk <= km)
            m = np.where(inside, np.abs(val) * normk**power, np.inf)
            idx = np.argmin(m, axis=1)
            mv = m[rows, idx]
            upd = mv < best
            best = np.where(upd, mv, best)
            best_k[upd, 0] = kc[idx][upd]
            best_k[upd, 1] = kb[rows, idx][upd]
    best_k[swap] = best_k[swap, ::-1]  # kept as (swept, solved) until here
    return best, best_k


def good_margin(model: ModelSystem, a, params: DiophantineParams, shear=0) -> np.ndarray:
    """Good-value margin at value points ``a``, with shape ``a.shape[:-1]``.

    The smallest of the four clause quantities: the Diophantine margin of
    the frequency (see ``diophantine_margin``), ``|d<q>/dxi|``, the smallest
    singular value of ``d omega/d xi`` and the distance to the critical
    values, read off the jet of the chart with ``shear`` (which may be per
    point).  A point is a good value at ``alpha`` iff its margin is
    ``>= params.alpha``: on the tori that pass the non-resonance test the
    flow is ergodic, so the admissible vertical position reduces to the
    torus average itself.
    """
    a = np.asarray(a, dtype=float)
    omegas, d_avg, wprime = _frequencies_at(model, a, shear)
    margins, _ = _margins(omegas.reshape(-1, 2), params)
    clauses = (margins.reshape(a.shape[:-1]), np.linalg.norm(d_avg, axis=-1), wprime, model.dist_to_singular(a))
    return np.min(np.stack(clauses), axis=0)


def good_values(model: ModelSystem, chart: ActionChart, params: DiophantineParams, points) -> np.ndarray:
    """Mask of the good values among the ``(n, 2)`` ``points``, which must lie
    in the chart domain (``chart.domain.grid(n)`` gives an n x n grid)."""
    points = np.asarray(points, dtype=float)
    if points.size == 0:
        raise ValueError("no points to decide")
    if not np.all(chart.domain.contains(points, margin=1e-9)):
        raise ValueError("points must lie inside the chart domain")
    return good_margin(model, points, params, chart.shear) >= params.alpha


def bad_measure_estimate(
    model: ModelSystem,
    chart: ActionChart,
    d: float,
    alpha_list,
    samples: int = 10_000,
    rng=None,
    k_max: int = 500,
):
    """Monte-Carlo fraction of bad values per alpha (for the O(alpha) check).

    Common random nodes are used across the alpha list, so monotonicity in
    alpha is exact rather than up to sampling noise.
    """
    alpha_list = list(alpha_list)
    if any(a2 >= a1 for a1, a2 in zip(alpha_list, alpha_list[1:])):
        raise ValueError("alpha_list must be strictly decreasing")
    if samples < 10_000:
        raise ValueError("need at least 1e4 Monte-Carlo nodes")
    rng = np.random.default_rng(rng)
    lo = chart.domain.center - chart.domain.half
    hi = chart.domain.center + chart.domain.half
    pts = lo + (hi - lo) * rng.random((samples, 2))
    params0 = DiophantineParams(alpha=min(alpha_list), d=d, k_max=k_max)
    margin = good_margin(model, pts, params0, chart.shear)
    return [(float(alpha), float(np.mean(margin < alpha))) for alpha in alpha_list]
