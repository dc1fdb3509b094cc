"""Diophantine frequency tests, the good-value margin and bad-set measure.

The non-resonance condition on a frequency vector ``omega`` is
``|<omega, k>| >= alpha / |k|^(1+d)`` for all nonzero integer ``k`` with
``|k| <= k_max`` (a truncated decision: beyond the truncation radius the
test is necessary-only).  For each value of one component of ``k`` only
the two integers next to the resonance line can attain the worst margin,
which makes an O(k_max) sweep; of its swept values only 0, 1, 2 and the
continued-fraction denominators of the frequency ratio can, which leaves
O(log k_max) of them.  Frequencies within rounding of a resonance are swept
in full, so every margin is the sweep's, bit for bit (see ``_margins``).
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
        if not 100 <= self.k_max < 2**24:  # the range where ``_margins`` is exact
            raise ParameterError("k_max", f"k_max = {self.k_max} out of range [100, 2^24)")


# A row whose smallest candidate |<omega, k>| is below this many units of
# |wb| * k_max^2 may have its minimum decided by rounding; see ``_margins``.
RESOLUTION = 64 * np.finfo(float).eps
CF_STEPS = 64  # the denominators grow at least like Fibonacci numbers: F_64 > 2^43
TWIST_SLACK = 32 * np.finfo(float).eps  # rounding allowance of the twist bound; see good_margin


def _sweep(wa, wb, x, km, power):
    """Smallest sweep value of each row over its swept values ``x``.

    ``x`` holds integers as floats, one row per frequency or one row for
    all.  Each swept value ``x`` takes the two solved integers
    ``y = floor(ratio)`` and ``floor(ratio) + 1`` of the resonance line.
    Returns the smallest ``|wa x + wb y| * |(x, y)|^power`` over the ``k``
    with ``0 < |k| <= km``, the first ``(x, y)`` attaining it (``x`` in the
    given order, the lower ``y`` first) and the smallest ``|wa x + wb y|``
    over those ``k``.
    """
    x = np.broadcast_to(x, (len(wa), x.shape[-1]))
    wax = wa[:, None] * x
    y = np.floor(-wax / wb[:, None])[..., None] + (0.0, 1.0)
    val = wb[:, None, None] * y
    val += wax[..., None]
    np.abs(val, out=val)
    normk = y**2
    normk += (x**2)[..., None]
    np.sqrt(normk, out=normk)
    outside = ~((normk > 0) & (normk <= km))
    m = normk**power
    m *= val
    m[outside] = np.inf
    val[outside] = np.inf
    m = m.reshape(len(wa), -1)
    idx = np.argmin(m, axis=1)
    rows = np.arange(len(wa))
    return m[rows, idx], x[rows, idx // 2], y.reshape(len(wa), -1)[rows, idx], np.min(val.reshape(len(wa), -1), axis=1)


def _candidates(ratio, km):
    """Swept values that can attain the margin of rows with ``|wa/wb|`` ``ratio``.

    0, 1, 2 and the continued-fraction denominators ``<= km`` of
    ``min(ratio, 1 - ratio)``, which has the same distances to the integers;
    rows with fewer denominators are padded with ``km + 1``, outside the
    ball.  Each step takes ``floor(e_prev / e)`` (at least 1) with the
    distance ``e`` recomputed from ``ratio``, so rounding does not build up.
    """
    a = np.minimum(ratio, 1.0 - ratio)
    cols = [np.zeros_like(a), np.ones_like(a), np.full_like(a, 2.0)]
    q_prev, e_prev, q, e = np.zeros_like(a), np.ones_like(a), np.ones_like(a), a
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # e ~ 0 ends the expansion
        for _ in range(CF_STEPS):
            q_prev, q = q, np.maximum(np.floor(e_prev / e), 1.0) * q + q_prev
            live = q <= km
            if not live.any():
                break
            cols.append(np.where(live, q, km + 1.0))
            e_prev, e = e, np.abs(cols[-1] * a - np.round(cols[-1] * a))
    return np.stack(cols, axis=1)


def _margins(omegas, params: DiophantineParams):
    """Worst margins ``min_k |<omega,k>| * |k|^(1+d)`` over the truncated
    sweep, and their witnesses ``k``, for a batch of frequency vectors; a
    frequency passes the test iff its margin is ``>= alpha``.

    The sweep solves for the component with the larger coefficient ``wb``
    and runs the other, ``x``, from 0 to ``k_max``, taking the two integers
    next to the resonance line for each (any other is ``>= |wb|/2`` from it
    and exceeds the margin ``|wb|`` of the axis vector ``(0, 1)``).  Each
    witness is the first ``k`` attaining the margin in that order: ``x``
    ascending and, for each ``x``, the lower solved integer first.  A zero
    row has margin 0 (every ``k`` is resonant) with witness ``(0, 1)``; a
    row that is not finite has a nan margin and witness ``(0, 0)``.

    Only O(log k_max) values of ``x`` are evaluated, each with the sweep's
    own expressions, so every margin and witness is the sweep's, bit for
    bit.  With ``beta = |wa/wb| <= 1``, ``||.||`` the distance to the
    nearest integer and ``G(k) = |<omega, k>| |k|^(1+d)``:

    * For ``x >= 3`` and the farther integer, ``G >= |wb| 3^(1+d) / 2 >
      G(0, 1) = |wb|``.
    * For the nearer one, ``|<omega, k>| = |wb| ||x beta||``.  If ``x`` is
      not a continued-fraction denominator of ``beta``, the largest
      denominator ``x' < x`` has ``||x' beta|| <= ||x beta||`` (Lagrange;
      Khinchin, *Continued Fractions*, section 6).  Its nearest ``y'`` has
      ``|y'| <= |y|``, so ``|k|^2 - |k'|^2 >= x + x' > |k'|^2 / 2 k_max``
      and ``G(k) >= G(k') (1 + r)`` with ``r >= (1 + d) / (4 k_max + 2)``.
    * In floating point, ``|<omega, k>|`` is off by at most
      ``(2 k_max + 3) u |wb|`` (``u = eps/2``) and ``|k|^(1+d)`` by a
      relative ``(3 + d) u``.  The expansion is computed from the rounded
      ratio; where it takes a wrong partial quotient, the true expansion
      has ``||x beta|| <= (4 k_max + 1) u`` at a denominator
      ``x <= k_max`` that ``_candidates`` still returns, or the one it
      skips is nearer by at most that much than the denominator before it.
      Both effects stay below the gap ``r`` when the nearer candidate's
      ``|<omega, k'>| >= 17 eps |wb| k_max^2`` (for ``100 <= k_max < 2^24``,
      where the sweep's integers and their squares are exact).

    Rows whose smallest candidate ``|<omega, k>|`` is below
    ``RESOLUTION |wb| k_max^2`` (``RESOLUTION = 64 eps``, nearly 4x that
    bound) are at float resolution of a resonance, so rounding rather than
    the ordering decides; they are swept over every ``x``, with the same
    evaluator.  Rows go in blocks of ``BLOCK // 2c`` for ``c`` candidates,
    and the ``n`` rows swept in full take ``BLOCK // 2n`` values of ``x`` at
    a time, so no result depends on the batch.
    """
    omegas = np.asarray(omegas, dtype=float)
    km, power = params.k_max, 1.0 + params.d
    finite = np.all(np.isfinite(omegas), axis=1)
    swap = np.abs(omegas[:, 1]) < np.abs(omegas[:, 0])
    wa = np.where(swap, omegas[:, 1], omegas[:, 0])  # coefficient of the swept index
    wb = np.where(swap, omegas[:, 0], omegas[:, 1])  # larger coefficient, solved index
    live = finite & (wb != 0.0)
    wa, wb = wa[live], wb[live]

    x = _candidates(np.abs(wa / wb), km)
    best, kx, ky, vmin = (np.empty(len(wa)) for _ in range(4))
    rows = max(1, BLOCK // (2 * x.shape[1]))
    for s in range(0, len(wa), rows):
        blk = slice(s, s + rows)
        best[blk], kx[blk], ky[blk], vmin[blk] = _sweep(wa[blk], wb[blk], x[blk], km, power)

    full = np.flatnonzero(vmin < RESOLUTION * np.abs(wb) * float(km) ** 2)
    best[full] = np.inf
    fa, fb = wa[full], wb[full]
    chunk = max(1, BLOCK // max(2 * full.size, 1))
    for s in range(0, km + 1 if full.size else 0, chunk):
        xs = np.arange(s, min(s + chunk, km + 1), dtype=float)
        m, x0, y0, _ = _sweep(fa, fb, xs, km, power)
        upd = m < best[full]  # strictly, so that the earlier x wins a tie
        best[full[upd]], kx[full[upd]], ky[full[upd]] = m[upd], x0[upd], y0[upd]

    margin = np.where(finite, 0.0, np.nan)  # a zero row is resonant with every k
    margin[live] = best
    k = np.zeros((len(omegas), 2), dtype=np.int64)
    k[finite & ~live, 1] = 1
    k[live] = np.stack([kx, ky], axis=1)
    k[swap] = k[swap, ::-1]  # kept as (swept, solved) until here
    return margin, k


def good_margin(model: ModelSystem, a, params: DiophantineParams, shear=0) -> np.ndarray:
    """Good-value margin at value points ``a``, with shape ``a.shape[:-1]``.

    The smallest of the four clause quantities: the Diophantine margin of
    the frequency (see ``_margins``), ``|d<q>/dxi|``, the smallest
    singular value of ``H = d omega/d xi`` and the distance to the critical
    values, read off the jet of the chart with ``shear`` (which may be per
    point).  A point is a good value at ``alpha`` iff its margin is
    ``>= params.alpha``: on the tori that pass the non-resonance test the
    flow is ergodic, so the admissible vertical position reduces to the
    torus average itself.

    The SVD is taken only where the twist can be the minimum.  For 2 x 2
    ``H``, ``s_min = |det H| / s_max >= |det H| / ||H||_F``.  With ``u =
    eps/2``, the computed ``det H`` is off by at most ``2u (|h00 h11| +
    |h01 h10|) <= u ||H||_F^2``, ``||H||_F`` by a relative ``3u`` and the
    quotient by ``u``, so the computed bound exceeds ``s_min`` by at most
    ``5.1u ||H||_F`` (where no product underflows); LAPACK's ``s_min`` is
    off by a small multiple of ``eps ||H||_2``.  Where the bound less
    ``TWIST_SLACK ||H||_F`` (``32 eps``, covering both) exceeds the other
    clauses' minimum, so does LAPACK's ``s_min``.  Elsewhere, nan clauses
    and zero ``H`` among them, the SVD is taken, so every margin is the
    four-clause minimum bit for bit; a non-finite ``H``, on which the SVD
    raises, has a nan twist.  A point that is not finite has a nan margin.
    """
    a = np.asarray(a, dtype=float)
    out = np.full(a.shape[:-1], np.nan)
    ok = np.all(np.isfinite(a), axis=-1)
    a, shear = a[ok], np.broadcast_to(shear, ok.shape)[ok]
    omegas, d_avg, hess = _frequencies_at(model, a, shear)
    first = np.minimum(_margins(omegas, params)[0], np.linalg.norm(d_avg, axis=-1))
    dist = model.dist_to_singular(a)
    margin, h = np.minimum(first, dist), hess.reshape(-1, 4)
    fro = np.sqrt(np.sum(h * h, axis=1))
    with np.errstate(divide="ignore", invalid="ignore"):
        need = np.flatnonzero(~(np.abs(h[:, 0] * h[:, 3] - h[:, 1] * h[:, 2]) / fro - TWIST_SLACK * fro > margin))
    twist, fin = np.full(len(need), np.nan), np.isfinite(fro[need])
    twist[fin] = np.linalg.svd(hess[need[fin]], compute_uv=False)[:, -1]
    margin[need] = np.minimum(np.minimum(first[need], twist), dist[need])  # in the clauses' order, for nan's sign
    out[ok] = margin
    return out


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
