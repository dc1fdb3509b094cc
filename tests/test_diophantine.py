import math
import re
import warnings

import numpy as np
import pytest

from pseudolattice.diophantine import (
    DiophantineParams,
    _margins,
    bad_measure_estimate,
    good_margin,
)
from pseudolattice.models import BLOCK, GOLDEN, _frequencies_at, action_coords, make_champagne_model, make_flat_model
from pseudolattice.monodromy import MonodromyError
from pseudolattice.pipeline import _cover, _nearest_good, spectral_chart_at
from pseudolattice.synth import SemiclassicalParams, good_rectangle


def margin_of(omega, params):
    """The ``_margins`` margin and witness of one frequency."""
    margin, witness = _margins(np.asarray(omega, dtype=float)[None, :], params)
    return float(margin[0]), tuple(int(x) for x in witness[0])


def brute_margin(omega, params):
    """Full O(k_max^2) sweep, the oracle for the reduced sweep."""
    km = params.k_max
    k1, k2 = np.meshgrid(np.arange(-km, km + 1), np.arange(-km, km + 1), indexing="ij")
    k = np.stack([k1.ravel(), k2.ravel()], axis=-1).astype(float)
    nk = np.linalg.norm(k, axis=1)
    ok = (nk > 0) & (nk <= km)
    vals = np.abs(k[ok] @ np.asarray(omega)) * nk[ok] ** (1.0 + params.d)
    return float(vals.min())


def sweep_margins(omegas, params):
    """The O(k_max) reduced sweep, the oracle for the candidates of ``_margins``.

    For finite nonzero rows: every swept value from 0 to ``k_max`` with the
    two integers next to the resonance line, in chunks of ``BLOCK // 2n``
    swept values; within a chunk ties go to the first ``k`` with the swept
    value ascending and the lower solved integer first, across chunks to
    the earlier chunk.
    """
    omegas = np.asarray(omegas, dtype=float)
    n = omegas.shape[0]
    km = params.k_max
    power = 1.0 + params.d

    best = np.full(n, np.inf)
    best_k = np.zeros((n, 2), dtype=np.int64)
    swap = np.abs(omegas[:, 1]) < np.abs(omegas[:, 0])
    wa = np.where(swap, omegas[:, 1], omegas[:, 0])  # coefficient of the swept index
    wb = np.where(swap, omegas[:, 0], omegas[:, 1])  # larger coefficient, solved index
    ks = np.arange(0, km + 1, dtype=np.int64)
    rows = np.arange(n)
    chunk = max(1, BLOCK // (2 * n))
    for start in range(0, km + 1, chunk):
        kc = ks[start : start + chunk]
        ratio = -(wa[:, None] * kc[None, :]) / wb[:, None]
        kb = (np.floor(ratio)[..., None] + np.array([0.0, 1.0])).astype(np.int64)
        val = (wa[:, None] * kc[None, :])[..., None] + wb[:, None, None] * kb
        normk = np.sqrt(kc.astype(float)[None, :, None] ** 2 + kb.astype(float) ** 2)
        inside = (normk > 0) & (normk <= km)
        m = np.where(inside, np.abs(val) * normk**power, np.inf).reshape(n, -1)
        idx = np.argmin(m, axis=1)
        mv = m[rows, idx]
        upd = mv < best
        best = np.where(upd, mv, best)
        best_k[upd, 0] = kc[idx // 2][upd]
        best_k[upd, 1] = kb.reshape(n, -1)[rows, idx][upd]
    best_k[swap] = best_k[swap, ::-1]  # kept as (swept, solved) until here
    return best, best_k


def assert_margins_are_the_sweeps(omegas, params):
    margins, witness = _margins(omegas, params)
    expected, expected_k = sweep_margins(omegas, params)
    assert margins.tobytes() == expected.tobytes()
    assert np.array_equal(witness, expected_k)


def test_params_validation():
    with pytest.raises(ValueError):
        DiophantineParams(alpha=0.0)
    with pytest.raises(ValueError):
        DiophantineParams(alpha=0.1, d=-1.0)
    with pytest.raises(ValueError):
        DiophantineParams(alpha=0.1, k_max=10)
    with pytest.raises(ValueError, match="^k_max = ") as exc:
        DiophantineParams(alpha=0.1, k_max=2**24)  # past the range where _margins is exact
    assert exc.value.key == "k_max"
    assert DiophantineParams(alpha=0.1, k_max=2**24 - 1).k_max == 2**24 - 1


@pytest.mark.parametrize(
    "kwargs, key",
    [
        ({"alpha": float("nan")}, "alpha"),
        ({"alpha": 0.1, "d": float("nan")}, "d"),
        ({"alpha": 0.1, "d": float("inf")}, "d"),
    ],
    ids=["alpha-nan", "d-nan", "d-inf"],
)
def test_params_reject_non_finite(kwargs, key):
    # nan fails every range check; an infinite d would make the test vacuous
    with pytest.raises(ValueError, match=f"^{key} = ") as exc:
        DiophantineParams(**kwargs)
    assert exc.value.key == key


def test_margin_matches_brute_force():
    params = DiophantineParams(alpha=1e-3, d=1.0, k_max=100)
    rng = np.random.default_rng(5)
    omegas = rng.uniform(-2.0, 2.0, size=(25, 2))
    margins, _ = _margins(omegas, params)
    for w, m in zip(omegas, margins):
        assert m == pytest.approx(brute_margin(w, params), rel=1e-12)


def _batch_rows():
    """2 000 rows: resonant rows (margin exactly 0, attained by every
    multiple of a resonant k), both axes, near-resonant rows whose margin is
    attained at k = (j, 1) for every swept j with |k| <= k_max, the same
    rows with their components exchanged (witness (1, j)), and generic rows."""
    rng = np.random.default_rng(12)
    omegas = rng.uniform(-2.0, 2.0, size=(2000, 2))
    omegas[:200] = 2.0 ** rng.integers(-2, 3, size=(200, 1)) * rng.integers(1, 8, size=(200, 2))
    omegas[:200] *= rng.choice([-1.0, 1.0], size=(200, 2))
    omegas[200:220, 0] = 0.0
    omegas[220:240, 1] = 0.0
    j = np.arange(1, 500)
    omegas[240:739] = np.stack([np.ones(499), -j * (1.0 + 1e-9)], axis=-1)
    omegas[739:1238] = omegas[240:739, ::-1]  # the same rows, solved for the other component
    return omegas


def test_batched_margins_equal_per_row_margins():
    # the 1 238 resonant and near-resonant rows fall below the resolution
    # bound of ``_margins``, so they are swept over every k, in several chunks
    params = DiophantineParams(alpha=1e-3, d=1.0, k_max=500)
    omegas = _batch_rows()
    j = np.arange(1, 500)
    assert params.k_max + 1 > BLOCK // (2 * 1238)  # more than one chunk
    margins, witness = _margins(omegas, params)
    per_row = np.array([_margins(w[None], params)[0][0] for w in omegas])
    assert margins.tobytes() == per_row.tobytes()
    assert np.all(margins[:240] == 0.0) and np.all(margins[240:] > 0.0)
    # every witness attains its margin
    nk = np.linalg.norm(witness, axis=1)
    assert np.all((nk > 0) & (nk <= params.k_max))
    attained = np.abs(np.sum(witness * omegas, axis=1)) * nk**2
    assert np.allclose(attained, margins, rtol=1e-9, atol=1e-12)
    assert np.array_equal(witness[240:739], np.stack([j, np.ones(499)], axis=-1))
    assert np.array_equal(witness[739:1238], np.stack([np.ones(499), j], axis=-1))
    assert margins[739:1238].tobytes() == margins[240:739].tobytes()


@pytest.mark.parametrize("k_max", [100, 500, 1000])
@pytest.mark.parametrize("d", [1e-9, 0.5, 1.0, 3.0])
def test_margins_equal_the_sweep_on_uniform_rows(d, k_max):
    omegas = np.random.default_rng(int(k_max + 10 * d)).uniform(-2.0, 2.0, size=(500, 2))
    assert_margins_are_the_sweeps(omegas, DiophantineParams(alpha=1e-3, d=d, k_max=k_max))


def test_margins_equal_the_sweep_on_batch_rows():
    assert_margins_are_the_sweeps(_batch_rows(), DiophantineParams(alpha=1e-3, d=1.0, k_max=500))


def test_margins_equal_the_sweep_on_model_frequencies():
    # the bad-set nodes of the champagne chart at (0.3, 0.15) (criterion 8),
    # and the grid nodes of a chart of the flat model with frequency (1, 0.7)
    params = DiophantineParams(alpha=1e-3, d=1.0, k_max=500)
    m = make_champagne_model(1.0)
    chart = action_coords(m, np.array([0.3, 0.15]))
    lo, hi = chart.domain.center - chart.domain.half, chart.domain.center + chart.domain.half
    pts = lo + (hi - lo) * np.random.default_rng(0).random((10_000, 2))
    assert_margins_are_the_sweeps(_frequencies_at(m, pts, chart.shear)[0], params)
    flat = make_flat_model((1.0, 0.7), "xi_weighted")
    chart = action_coords(flat, np.array([0.25, 0.15]))
    omegas = _frequencies_at(flat, chart.domain.grid(8), chart.shear)[0]
    assert_margins_are_the_sweeps(omegas, params)


@pytest.mark.parametrize("eps", [0.0, 1e-9, -1e-9, 1e-15, 1e-12, 1e-6])
def test_margins_equal_the_sweep_near_rationals(eps):
    # ratios p/q + eps with q < 2000: the expansion ends at or beyond q, and
    # the rows within rounding of p/q are swept in full
    rng = np.random.default_rng(3)
    q = rng.integers(1, 2000, size=300)
    p = np.floor(rng.random(300) * (q + 1))
    ratio = p / q + eps
    omegas = np.stack([ratio, -np.ones(300)], axis=-1) * rng.uniform(0.5, 2.0, size=(300, 1))
    omegas[::2] = omegas[::2, ::-1]  # both components swept
    assert_margins_are_the_sweeps(omegas, DiophantineParams(alpha=1e-3, d=1.0, k_max=1000))


def test_margins_equal_the_sweep_on_badly_approximable_and_small_ratios():
    # subnormal ratios overflow the first partial quotient, without a warning
    omegas = np.array([(1.0, GOLDEN), (-GOLDEN, 1.0), (1.0, math.sqrt(2.0)), (math.sqrt(2.0), -1.0), (1e-7, 1.0), (1.0, -1e-7), (1e-310, 1.0), (1.0, -5e-324)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for d in (1e-9, 1.0):
            assert_margins_are_the_sweeps(omegas, DiophantineParams(alpha=1e-3, d=d, k_max=10_000))


def test_zero_and_non_finite_rows():
    # a zero frequency is resonant with every k; one that is not finite
    # gets nan, so that it fails every test
    params = DiophantineParams(alpha=1e-3, d=1.0, k_max=500)
    omegas = np.array([(0.0, 0.0), (np.nan, 1.0), (np.inf, 1.0), (1.0, np.nan), (1.0, GOLDEN)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        margins, witness = _margins(omegas, params)
        assert math.isnan(margin_of((np.nan, 1.0), params)[0])
    assert margins[0] == 0.0 and tuple(witness[0]) == (0, 1)
    assert np.all(np.isnan(margins[1:4])) and np.all(witness[1:4] == 0)
    assert not np.any(margins[1:4] >= params.alpha)
    assert margins[4] == margin_of((1.0, GOLDEN), params)[0] > 0.0


def test_resonant_frequency_detected():
    params = DiophantineParams(alpha=1e-3, d=1.0, k_max=500)
    margin, k = margin_of((1.0, 2.0), params)
    assert margin == pytest.approx(0.0, abs=1e-12)
    assert abs(k[0] * 1.0 + k[1] * 2.0) < 1e-12
    margin_axis, k_axis = margin_of((0.0, 1.0), params)
    assert margin_axis == 0.0 and k_axis == (1, 0)
    margin_axis, k_axis = margin_of((1.0, 0.0), params)
    assert margin_axis == 0.0 and k_axis == (0, 1)


def test_golden_ratio_is_diophantine():
    params = DiophantineParams(alpha=0.5, d=1.0, k_max=10_000)
    margin, _ = margin_of((1.0, GOLDEN), params)
    assert margin == pytest.approx(1.0, abs=1e-12)  # minimized at k = (1, 0)
    assert margin >= params.alpha
    assert margin_of((1.0, 0.5), params)[0] < params.alpha


def test_good_values_flat_chart():
    m = make_flat_model((1.0, GOLDEN), "xi_weighted")
    chart = action_coords(m, np.array([0.25, 0.15]))
    params = DiophantineParams(alpha=1e-3, d=1.0, k_max=500)
    good = good_margin(m, chart.domain.grid(8), params, chart.shear) >= params.alpha
    assert good.shape == (64,) and good.dtype == bool
    assert np.mean(good) > 0.9


def test_is_good_value_champagne():
    m = make_champagne_model(1.0)
    chart = action_coords(m, np.array([0.3, 0.15]))
    params = DiophantineParams(alpha=1e-3, d=1.0, k_max=500)
    assert good_margin(m, np.array([0.3, 0.15]), params, chart.shear) >= params.alpha


def _clauses(model, shear, pts, params):
    """The four good-value clause quantities, each computed on its own, with
    the SVD of ``d omega/d xi`` at every point."""
    _, J, hess = model.jet(pts, shear=shear)
    dphi = np.linalg.inv(J)  # rows: d E / d xi = omega and d <q> / d xi
    return (
        _margins(dphi[:, 0, :], params)[0],
        np.linalg.norm(dphi[:, 1, :], axis=-1),
        np.linalg.svd(hess, compute_uv=False)[:, -1],
        model.dist_to_singular(pts),
    )


@pytest.mark.parametrize(
    "model, center, shear",
    [
        (make_champagne_model(1.0), (0.3, 0.0), 1),  # sheared chart, a grid row on l = 0
        (make_champagne_model(1.0), (0.02, 0.0), 1),  # nodes 0.018-0.022 from the focus-focus value
        (make_champagne_model(1.0), (0.05, 0.02), 0),
        (make_flat_model((2.0, 2.0 * GOLDEN), "xi_weighted"), (0.25, 0.15), 0),  # d<q> and omega' bind
    ],
)
def test_good_margin_is_the_conjunction_of_the_four_clauses(model, center, shear):
    chart = action_coords(model, np.array(center))
    assert chart.shear == shear
    pts = chart.domain.grid(7)
    params = DiophantineParams(alpha=1e-3, d=1.0, k_max=500)
    clauses = _clauses(model, chart.shear, pts, params)
    margin = good_margin(model, pts, params, chart.shear)
    assert np.array_equal(margin, np.minimum.reduce(clauses))
    # each clause value is a decision boundary; so are the points just off it
    values = np.concatenate(clauses)
    values = values[np.isfinite(values)]
    for alpha in np.concatenate([values, np.nextafter(values, np.inf)]):
        expected = np.logical_and.reduce([q >= alpha for q in clauses])
        assert np.array_equal(margin >= alpha, expected)
    for alpha in (1e-3, float(np.median(values))):
        expected = np.logical_and.reduce([q >= alpha for q in clauses])
        assert np.array_equal(margin >= alpha, expected)


def _regular_grid(model, n):
    """The ``n x n`` grid of ``[-0.24, 0.9] x [-0.7, 0.7]``, less the nodes
    that are not regular or lie within 2e-3 of the critical values."""
    E, l = np.meshgrid(np.linspace(-0.24, 0.9, n), np.linspace(-0.7, 0.7, n), indexing="ij")
    pts = np.stack([E.ravel(), l.ravel()], axis=-1)
    return pts[model.is_regular(pts) & (model.dist_to_singular(pts) > 2e-3)]


@pytest.mark.parametrize("shear, binds", [(0, 20_000), (1, 15_000)])
def test_good_margin_takes_the_twist_wherever_it_can_bind(shear, binds):
    # the SVD is skipped only where it cannot be the minimum: on 115 060
    # nodes of the value plane, where the twist is below the other clauses
    # on 23 688 (unsheared) and 16 341 (sheared) and within 1 % above them on
    # 436 and 446 more, the margin is the four-clause minimum with the SVD
    # taken at every node, bit for bit
    m = make_champagne_model(1.0)
    pts = _regular_grid(m, 361)
    assert len(pts) > 100_000
    params = DiophantineParams(alpha=1e-3, d=1.0, k_max=500)
    clauses = _clauses(m, shear, pts, params)
    margin = good_margin(m, pts, params, shear)
    assert margin.tobytes() == np.minimum.reduce(clauses).tobytes()
    others = np.minimum.reduce([clauses[0], clauses[1], clauses[3]])
    assert np.sum(clauses[2] < others) > binds
    assert np.sum((clauses[2] >= others) & (clauses[2] <= 1.01 * others)) > 400


def test_good_margin_keeps_nan_clauses_and_flat_ties(monkeypatch):
    # a nan frequency or distance gives a nan margin, whatever the twist;
    # on the flat chart the twist and |d<q>| are both 1
    m = make_champagne_model(1.0)
    pts = action_coords(m, np.array([0.3, 0.15])).domain.grid(8)
    jet, dist = m.jet, m.dist_to_singular

    def nan_jet(a, shear=0):
        xi, J, hess = jet(a, shear)
        J[::5, 1, 1] = np.nan  # nan frequencies
        return xi, J, hess

    monkeypatch.setattr(m, "jet", nan_jet)
    monkeypatch.setattr(m, "dist_to_singular", lambda a: np.where(np.arange(len(a)) % 7 == 3, np.nan, dist(a)))
    params = DiophantineParams(alpha=1e-3, d=1.0, k_max=500)
    margin = good_margin(m, pts, params)
    assert margin.tobytes() == np.minimum.reduce(_clauses(m, 0, pts, params)).tobytes()
    assert np.array_equal(np.isnan(margin), (np.arange(len(pts)) % 5 == 0) | (np.arange(len(pts)) % 7 == 3))
    flat = make_flat_model((2.0, 2.0 * GOLDEN), "xi_weighted")
    pts = action_coords(flat, np.array([0.25, 0.15])).domain.grid(20)
    clauses = _clauses(flat, 0, pts, params)
    assert np.all(clauses[1] == 1.0) and np.all(np.abs(clauses[2] - 1.0) < 1e-15)
    assert good_margin(flat, pts, params).tobytes() == np.minimum.reduce(clauses).tobytes()


def test_good_margin_shape_follows_the_points():
    m = make_champagne_model(1.0)
    params = DiophantineParams(alpha=1e-3, k_max=500)
    pts = action_coords(m, np.array([0.3, 0.0])).domain.grid(4).reshape(4, 4, 2)
    margin = good_margin(m, pts, params, shear=1)
    assert margin.shape == (4, 4)
    assert np.array_equal(margin.ravel(), good_margin(m, pts.reshape(-1, 2), params, shear=1))
    assert good_margin(m, pts[0, 0], params, shear=1) == margin[0, 0]


def _octagon_centers(model, params):
    octagon = [(0.15 + 0.3 * math.cos(math.pi * t / 4), 0.3 * math.sin(math.pi * t / 4)) for t in range(8)]
    return _cover(model, octagon, params)


def test_batched_decision_equals_per_center_decision():
    # the 341 centers of the spectral octagon loop, each with its chart's shear
    m = make_champagne_model(1.0)
    dio = DiophantineParams(alpha=1e-3, d=1.0, k_max=500)
    centers = _octagon_centers(m, SemiclassicalParams(h=1e-3, delta=0.5))
    charts = action_coords(m, centers)
    shear = np.array([ch.shear for ch in charts])
    assert len(centers) == 341 and 0 < shear.sum() < 341
    batched = good_margin(m, centers, dio, shear)
    single = np.array([good_margin(m, c[None], dio, ch.shear)[0] for c, ch in zip(centers, charts)])
    assert batched.tobytes() == single.tobytes()
    assert 0 < np.sum(batched < dio.alpha) < 341  # some centers need the fallback search


def _nearest_good_one_at_a_time(model, chart, c, dio, search_radius):
    """The fallback search deciding one node at a time, nearest first."""
    offs = search_radius * np.array([-1.0, -0.5, 0.5, 1.0])
    cands = np.stack(np.meshgrid(c[0] + offs, c[1] + offs, indexing="ij"), axis=-1).reshape(-1, 2)
    for a in cands[np.argsort(np.linalg.norm(cands - c, axis=1))]:
        if good_margin(model, a, dio, chart.shear) >= dio.alpha:
            return a
    return None


def test_fallback_returns_the_nearest_good_node():
    m = make_champagne_model(1.0)
    params = SemiclassicalParams(h=1e-3, delta=0.5)
    dio = DiophantineParams(alpha=1e-3, d=1.0, k_max=500)
    centers = _octagon_centers(m, params)
    charts = action_coords(m, centers)
    shear = np.array([ch.shear for ch in charts])
    bad = np.flatnonzero(good_margin(m, centers, dio, shear) < dio.alpha)
    assert bad.size > 0
    nearest = []
    for i in bad:
        hw = good_rectangle(centers[i], params, charts[i].domain.half[0]).half[0]
        expected = _nearest_good_one_at_a_time(m, charts[i], centers[i], dio, 0.25 * hw)
        nearest.append(_nearest_good(m, centers[i], charts[i].shear, dio, 0.25 * hw))
        assert nearest[-1].tobytes() == expected.tobytes()
    # the spectral chart at such a center is built on that node
    assert spectral_chart_at(m, centers[bad[0]], params, dio).cloud.rectangle.center.tobytes() == nearest[0].tobytes()


def test_no_good_value_raises_naming_the_center():
    # no value is 10 away from the focus-focus point in the chart at (0.3, 0.15)
    m = make_champagne_model(1.0)
    dio = DiophantineParams(alpha=10.0, d=1.0, k_max=500)
    params = SemiclassicalParams(h=1e-3, delta=0.5)
    with pytest.raises(MonodromyError, match=re.escape("rectangle 0: no good value found near (0.3, 0.15)")) as exc:
        spectral_chart_at(m, np.array([0.3, 0.15]), params, dio)
    assert (exc.value.reason, exc.value.index) == ("no_good_value", 0)


def test_bad_measure_monotone_and_small():
    m = make_champagne_model(1.0)
    chart = action_coords(m, np.array([0.3, 0.15]))
    alphas = [0.02, 0.01, 0.005]
    out = bad_measure_estimate(m, chart, 1.0, alphas, samples=10_000, rng=0)
    fracs = [f for _, f in out]
    # common random nodes make monotonicity exact
    assert fracs[0] >= fracs[1] >= fracs[2]
    assert fracs[0] < 0.05  # bad set has measure O(alpha)


def test_bad_measure_requires_enough_samples():
    m = make_champagne_model(1.0)
    chart = action_coords(m, np.array([0.3, 0.15]))
    with pytest.raises(ValueError):
        bad_measure_estimate(m, chart, 1.0, [0.01], samples=100)
    with pytest.raises(ValueError):
        bad_measure_estimate(m, chart, 1.0, [0.005, 0.01], samples=10_000)
