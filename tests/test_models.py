import math
import re

import numpy as np
import pytest
from radial_action import _radial_action_quad, _radial_roots, action_grid
from scipy.interpolate import RectBivariateSpline

from pseudolattice import models
from pseudolattice.averaging import time_average
from pseudolattice.models import (
    ACTION_GRID,
    BLOCK,
    CURVE_RUN,
    PARTIALS,
    ActionChart,
    ModelError,
    ParameterError,
    Rect,
    _action_table,
    _cell_eval,
    _cell_table,
    _frequencies_at,
    action_coords,
    chart_to_text,
    make_champagne_model,
    make_flat_model,
)
from pseudolattice.monodromy import classical_monodromy, cover_loop
from pseudolattice.pipeline import _cover
from pseudolattice.synth import SemiclassicalParams


def _xi2(m, E, l):
    """The table-backed radial action ``xi_2`` of the unsheared chart at ``(E, l)``."""
    return m.xi_from_value(np.stack(np.broadcast_arrays(E, l), axis=-1))[..., 1]


def test_rect_contains_and_grid():
    r = Rect([0.0, 1.0], [0.5, 0.25])
    assert r.contains([0.4, 1.2])
    assert not r.contains([0.6, 1.0])
    assert r.contains([0.55, 1.0], margin=0.1)
    g = r.grid(5)
    assert g.shape == (25, 2)
    assert np.all(r.contains(g, margin=1e-12))


def _edge_points(c, w, margin, rng):
    """49 points: on each edge and corner of the rectangle grown by
    ``margin``, the same moved one ulp along each axis, NaN points and
    random points around it."""
    e = c + np.array([[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1], [-1, 1], [1, -1], [-1, -1]]) * (w + margin)
    moved = [np.nextafter(e, e + d) for d in ([-1, 0], [1, 0], [0, -1], [0, 1])]
    nan = c + np.array([[np.nan, 0.0], [0.0, np.nan], [np.nan, np.nan]])
    return np.concatenate([e, *moved, nan, c + (w + margin) * rng.uniform(-2, 2, (6, 2))])


@pytest.mark.parametrize("margin", [0.0, 2.0**-6])
def test_rect_contains_equals_axis_reduction(margin):
    # contains tests one coordinate column at a time; it equals the reduction
    # over the coordinate axis bit for bit in the pipeline's three calling shapes
    def reference(c, w, pts):
        return np.all(np.abs(pts - c) - (w + margin) <= 0, axis=-1)

    rng = np.random.default_rng(11)
    # a dyadic rectangle, whose edges are exact, and good rectangles at h = 1e-3 and 2.5e-4
    c = np.array([[0.25, -0.5], [0.3, 0.15], [0.36, 0.16]])
    w = np.array([[0.125, 0.0625], [0.5 * 1e-3**0.5, 0.5 * 1e-3**0.5], [0.5 * 2.5e-4**0.5, 0.5 * 2.5e-4**0.5]])
    pts = np.array([_edge_points(ci, wi, margin, rng) for ci, wi in zip(c, w)])
    exact = Rect(c[0], w[0]).contains(pts[0], margin=margin)
    assert exact[:8].all() and not exact[8:40].all() and not exact[40:43].any()
    for ci, wi, p in zip(c, w, pts):  # one rectangle against (n, 2) points
        got = Rect(ci, wi).contains(p, margin=margin)
        assert got.shape == (49,) and got.tobytes() == reference(ci, wi, p).tobytes()
    # (N, 1, 2) domains against (N, 49, 2) samples, as _candidates tests them
    got = Rect(c[:, None], w[:, None]).contains(pts, margin=margin)
    assert got.shape == (3, 49) and got.tobytes() == reference(c[:, None], w[:, None], pts).tobytes()
    # per-point centers against (n, 2) points, as the action-box test
    cc, ww = np.repeat(c, 49, axis=0), np.repeat(w, 49, axis=0)
    got = Rect(cc, ww).contains(pts.reshape(-1, 2), margin=margin)
    assert got.shape == (147,) and got.tobytes() == reference(cc, ww, pts.reshape(-1, 2)).tobytes()


def test_flat_round_trip():
    m = make_flat_model((1.0, 0.7), "xi_weighted")
    rng = np.random.default_rng(3)
    xi = rng.uniform(-0.4, 0.4, size=(50, 2))
    a = m.value_from_xi(xi)
    back = m.xi_from_value(a)
    assert np.max(np.abs(back - xi)) < 1e-12


def test_flat_omega_matches_analytic():
    m = make_flat_model((1.0, 0.7), "cos_x1")
    xi = np.array([0.15, -0.2])
    chart = action_coords(m, m.value_from_xi(xi))
    w = _frequencies_at(m, chart.phi(xi), chart.shear)[0]
    assert np.allclose(w, m.omega_star + xi, atol=1e-8)


def test_flat_rejects_zero_frequency():
    with pytest.raises(ModelError):
        make_flat_model((0.0, 0.0), "cos_x1")
    with pytest.raises(ModelError):
        make_flat_model((1.0, 0.0), "nope")


@pytest.mark.parametrize(
    "make, key",
    [
        (lambda: make_champagne_model(float("nan")), "well_depth"),
        (lambda: make_champagne_model(float("inf")), "well_depth"),
        (lambda: make_champagne_model(-1.0), "well_depth"),
        (lambda: make_flat_model((float("nan"), 1.0)), "omega_star"),
        (lambda: make_flat_model((0.0, float("inf"))), "omega_star"),
        (lambda: make_flat_model((1.0, 0.7), "bogus"), "q_choice"),
    ],
    ids=["well_depth-nan", "well_depth-inf", "well_depth-negative", "omega_star-nan", "omega_star-inf", "q_choice-unknown"],
)
def test_model_parameters_name_their_key(make, key):
    with pytest.raises(ParameterError, match=key) as exc:
        make()
    assert exc.value.key == key
    assert isinstance(exc.value, ModelError)


def test_flat_value_outside_range():
    m = make_flat_model((1.0, 0.0), "cos_x1")
    with pytest.raises(ModelError):
        m.xi_from_value(np.array([-10.0, 0.0]))


# -- champagne bottle -------------------------------------------------------


def test_min_energy_at_zero_momentum():
    m = make_champagne_model(1.0)
    assert m.min_energy(0.0) == pytest.approx(-0.25, abs=1e-12)
    # E_min solves dE/du = 0 on the reduced potential: check stationarity
    l = 0.3
    E = float(m.min_energy(l))
    us = np.linspace(0.3, 1.2, 40001)
    V = 0.5 * l * l / us + us * us - us
    assert E == pytest.approx(float(V.min()), abs=1e-9)


def _radial_action_oracle(E, l, b, n=400_000):
    """Dense trapezoid quadrature of p_r between the turning radii."""
    _, um, up = _radial_roots(E, abs(l), b)
    assert np.isfinite(up) and up > max(um, 0.0)  # real radial motion
    rm, rp = np.sqrt(max(um, 0.0)), np.sqrt(up)
    r = np.linspace(rm + 1e-12, rp - 1e-12, n)
    val = 2.0 * (E - r**4 + b * r**2) - l * l / r**2
    pr = np.sqrt(np.maximum(val, 0.0))
    return float(np.trapezoid(pr, r)) / math.pi


@pytest.mark.parametrize(
    "E,l",
    [(0.3, 0.2), (0.5, 0.45), (-0.1, 0.1), (0.2, 0.001), (0.4, 0.0)],
)
def test_radial_action_against_dense_quadrature(E, l):
    direct = float(_radial_action_quad(E, abs(l), 1.0)[0])
    oracle = _radial_action_oracle(E, l, 1.0)
    # the oracle itself carries O(n^-3/2) turning-point error
    assert direct == pytest.approx(oracle, abs=5e-7)


def test_radial_action_even_in_momentum():
    m = make_champagne_model(1.0)
    assert float(_xi2(m, 0.35, 0.25)) == float(_xi2(m, 0.35, -0.25))


def test_spline_matches_direct_quadrature():
    m = make_champagne_model(1.0)
    for E, l in [(0.3, 0.2), (0.6, 0.4), (-0.05, 0.15)]:
        assert float(_xi2(m, E, l)) == pytest.approx(float(_radial_action_quad(E, abs(l), 1.0)[0]), abs=1e-7)


def test_action_derivative_jump_across_cut():
    # d xi_2 / d l jumps by -1 across {l = 0, E > 0}: one-sided slopes ~ -+1/2
    m = make_champagne_model(1.0)
    E = 0.3
    dl = 1e-3
    right = (float(_xi2(m, E, 2 * dl)) - float(_xi2(m, E, dl))) / dl
    assert right == pytest.approx(-0.5, abs=0.01)
    left = (float(_xi2(m, E, -dl)) - float(_xi2(m, E, -2 * dl))) / dl
    assert left == pytest.approx(0.5, abs=0.01)


def test_cell_table_matches_fitpack():
    # the per-cell polynomial table fitted to grid values against FITPACK's
    # interpolating spline of the same values, for a smooth function on a
    # non-square grid with non-uniform y spacing
    xs = np.linspace(-1.0, 2.0, 23)
    ys = 1.5 * np.linspace(0.0, 1.0, 15) ** 1.5
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    vals = np.sin(1.3 * gx + 0.7 * gy) + gx * gy**2
    spl = RectBivariateSpline(xs, ys, vals, kx=3, ky=3)
    table = _cell_table(xs, ys, vals)
    xb, yb, _ = table
    rng = np.random.default_rng(5)
    kx, ky = np.meshgrid(xb, yb, indexing="ij")
    x = np.concatenate([rng.uniform(-1.0, 2.0, 400), kx.ravel(), xs, [-1.5, 2.5, -3.0, 0.3, 0.7]])
    y = np.concatenate([rng.uniform(0.0, 1.5, 400), ky.ravel(), np.zeros(23), [0.5, 0.2, -1.0, 2.0, -0.1]])
    out = _cell_eval(table, x, y)  # the last five points lie outside the knot box
    for got, (dx, dy) in zip(out, [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]):
        ref = spl.ev(x, y, dx=dx, dy=dy)
        assert np.max(np.abs(got - ref)) < 1e-12 * (1.0 + np.max(np.abs(ref))), (dx, dy)
    # the shape of the inputs is kept
    assert _cell_eval(table, x[:700].reshape(-1, 2), y[:700].reshape(-1, 2))[3].shape == (350, 2)


def test_cell_eval_partials_are_the_full_evaluation():
    # any subset of the partials, in any order, gets the bits of the default
    # six; the Newton step of value_from_xi asks for (f, f_x) only
    m = make_champagne_model(1.0)
    rng = np.random.default_rng(9)
    E, al = rng.uniform(-0.3, 1.0, 500), rng.uniform(-0.05, 0.8, 500)  # some clamped
    table = _action_table()
    full = dict(zip(PARTIALS, _cell_eval(table, E, al)))
    for partials in [((0, 0),), ((0, 0), (1, 0)), ((1, 1),), ((0, 2), (2, 0)), PARTIALS[::-1]]:
        got = _cell_eval(table, E.reshape(20, 25), al.reshape(20, 25), partials)
        assert [g.shape for g in got] == [(20, 25)] * len(partials)
        assert all(g.tobytes() == full[pq].tobytes() for g, pq in zip(got, partials)), partials
    assert _xi2(m, 0.3 * E, 0.5 * al).tobytes() == m._action_jet(0.3 * E, 0.5 * al)[0].tobytes()


def test_shipped_action_grid_is_the_quadrature():
    # the grid the package ships is bit for bit what action_grid computes
    shipped = np.load(ACTION_GRID, allow_pickle=False)
    assert shipped.dtype == np.float64 and shipped.shape == (220, 160)
    assert shipped.tobytes() == action_grid().tobytes()


@pytest.mark.parametrize(
    "content, why",
    [(None, "cannot read"), (np.zeros((220, 159)), "holds float64 (220, 159)"),
     (np.zeros((220, 160), dtype=np.float32), "holds float32"), (np.array([{}]), "cannot read")],
    ids=["missing", "shape", "dtype", "pickled"],
)
def test_bad_action_grid_names_the_file(tmp_path, monkeypatch, content, why):
    path = tmp_path / "action_grid.npy"
    if content is not None:
        np.save(path, content, allow_pickle=True)
    monkeypatch.setattr(models, "ACTION_GRID", path)
    with pytest.raises(ModelError) as err:
        _action_table.__wrapped__()
    assert str(path) in str(err.value) and why in str(err.value)


def test_value_from_xi_pointwise_equals_batched():
    # the per-point convergence mask makes each point's Newton iterates
    # independent of the batch it is solved in
    m = make_champagne_model(1.0)
    a = np.concatenate([Rect([0.3, 0.0], [0.08, 0.08]).grid(4), [[-0.15, 0.02], [0.6, -0.3], [0.05, 0.1]]])
    for shear in (0, 1):
        xi = m.xi_from_value(a, shear=shear)
        batch = m.value_from_xi(xi, shear=shear)
        assert np.max(np.abs(batch - a)) < 1e-9
        for k in range(len(xi)):
            assert np.array_equal(m.value_from_xi(xi[k], shear=shear), batch[k])


def test_value_from_xi_unreachable_raises():
    # xi_2 above I_r(0.95, l), the top of the energy clip, has no preimage
    m = make_champagne_model(1.0)
    top = float(_xi2(m, 0.95, 0.2))
    with pytest.raises(ModelError, match="did not converge"):
        m.value_from_xi(np.array([[0.1, 0.3], [0.2, top + 0.01]]))


@pytest.mark.parametrize("b", [0.5, 2.0, 4.0])
def test_well_depth_scaling(b):
    # I_r(E, l; b) = b^1.5 I_r(E / b^2, l / b^1.5; 1): the b = 1 table read at
    # scaled points against direct quadrature at b
    m = make_champagne_model(b)
    scale = np.array([b * b, b**1.5])
    a = np.array([(0.3, 0.2), (0.6, 0.4), (-0.05, 0.15), (0.4, 0.0)]) * scale
    direct = _radial_action_quad(a[:, 0], np.abs(a[:, 1]), b)
    assert np.max(np.abs(_xi2(m, a[:, 0], a[:, 1]) - direct)) < 1e-7 * b**1.5

    _, J, _ = m.jet(a[:3])  # off the kink at l = 0
    steps = 1e-5 * scale[:, None] * np.eye(2)
    J_fd = np.stack(
        [(m.xi_from_value(a[:3] + s) - m.xi_from_value(a[:3] - s)) / (2 * s[k]) for k, s in enumerate(steps)],
        axis=-1,
    )
    assert np.max(np.abs(J - J_fd)) < 1e-8

    assert np.max(np.abs((m.value_from_xi(m.xi_from_value(a)) - a) / scale)) < 1e-12
    octagon = [(0.15 + 0.3 * math.cos(math.pi * t / 4), 0.3 * math.sin(math.pi * t / 4)) for t in range(8)]
    assert classical_monodromy(m, np.array(octagon) * scale).parabolic_m == 1


def test_action_table_box_raises():
    # beyond |l| = 0.72 b^1.5 or E = 0.95 b^2 the table would be clamped
    with pytest.raises(ModelError, match="outside"):
        action_coords(make_champagne_model(1.0), np.array([0.6, 0.8]))
    m = make_champagne_model(2.0)
    with pytest.raises(ModelError, match="outside"):
        m.jet(np.array([[0.96 * 4.0, 0.3]]))
    with pytest.raises(ModelError, match="outside"):
        m.value_from_xi(np.array([[0.75 * 2.0**1.5, 0.1]]))


def test_dist_to_singular_matches_pointwise():
    # the row-block minimum over the curve samples gives exactly the distance
    # of a per-point loop over all the samples, across three row blocks.  Most
    # points lie near the boundary curve, which is then nearer than the
    # focus-focus value; every tenth lies near that value.
    m = make_champagne_model(1.0)
    rng = np.random.default_rng(3)
    size = 2 * (BLOCK // len(m._curve)) + 17
    pts = m._curve[rng.integers(0, len(m._curve), size)] + rng.normal(0.0, 0.02, (size, 2))
    pts[::10] = rng.uniform(-0.1, 0.1, (len(pts[::10]), 2))
    ref = [min(np.sqrt(np.sum(p * p)), np.min(np.sqrt(np.sum((p - m._curve) ** 2, axis=-1)))) for p in pts]
    assert np.array_equal(m.dist_to_singular(pts), ref)


def _dist_pointwise(m, pts):
    """Per point, as one row: its norm and the nearest of all the boundary-curve
    samples by ``dx*dx + dy*dy``, with one square root."""
    out = []
    for p in pts:
        d = p - m._curve
        out.append(np.minimum(np.linalg.norm(p[None], axis=-1), np.sqrt(np.min(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1])))[0])
    return np.array(out)


def _ulps(x):
    """``x`` and the floats one ulp either side of it, along the first axis."""
    return np.concatenate([np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)])


@pytest.mark.parametrize("depth", [1.0, 0.5, 2.0])
def test_pruned_distance_equals_the_full_scan_where_bounds_tie(depth):
    # the pruned search gives the bits of the scan over all 600 samples on
    # the points where its bounds are tight or tie, and one ulp either side:
    # every sample (a point on a run middle has box distance and upper bound
    # both 0, so only "<=" keeps that run), the edges, corners and centers of
    # each run's box, points equidistant from the samples that end and start
    # adjacent runs, and halved samples, which are as far from the
    # focus-focus value as from their sample
    m = make_champagne_model(depth)
    runs = m._curve.reshape(-1, CURVE_RUN, 2)
    lo, hi = runs.min(axis=1), runs.max(axis=1)
    boxes = []
    for r in range(len(runs)):
        xs, ys = (_ulps(np.array([lo[r, i], 0.5 * (lo[r, i] + hi[r, i]), hi[r, i]])) for i in (0, 1))
        boxes.append(np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2))
    last, first = runs[:-1, -1], runs[1:, 0]
    normal = (first - last)[:, ::-1] * (1.0, -1.0)
    between = [0.5 * (last + first) + t * normal for t in (0.0, 0.5, 3.0, -3.0)]
    special = np.array([(np.nan, 0.0), (0.0, np.nan), (-np.nan, 0.2), (np.nan, np.inf), (np.inf, 0.0), (-np.inf, 1.0),
                        (np.inf, -np.inf), (1e300, 0.0), (0.0, -1e300), (1e300, 1e300)])
    pts = np.concatenate(boxes + [_ulps(np.concatenate(between + [m._curve, 0.5 * m._curve])), special])
    with np.errstate(over="ignore", invalid="ignore"):
        got, ref = m.dist_to_singular(pts), _dist_pointwise(m, pts)
    assert got.tobytes() == ref.tobytes()
    assert np.sum(np.isnan(got)) == 4 and np.sum(np.isinf(got)) == 6
    # some halved samples, near the vertex, tie the two distances exactly
    half = 0.5 * m._curve
    assert np.any(np.linalg.norm(half, axis=-1) == np.sqrt(np.min(np.sum((half[:, None] - m._curve) ** 2, axis=-1), axis=1)))


@pytest.mark.parametrize("model", [make_champagne_model(1.0), make_flat_model((1.0, 0.7), "xi_weighted")], ids=["champagne", "flat"])
@pytest.mark.parametrize("shape", [(2,), (1, 2), (7, 2), (3, 5, 2)])
def test_dist_to_singular_shape_follows_the_points(model, shape):
    pts = np.random.default_rng(4).uniform([0.05, -0.3], [0.6, 0.3], size=shape)
    d = model.dist_to_singular(pts)
    assert d.shape == shape[:-1]
    per_point = [model.dist_to_singular(p[None])[0] for p in pts.reshape(-1, 2)]
    assert d.ravel().tobytes() == np.array(per_point).tobytes()


def test_radial_action_quadrature_does_not_depend_on_the_batch():
    # each row of the weighted quadrature sums gets the same bits alone (every
    # third row is checked) as in any batch, in both substitution branches
    # (l = 0 rows, and rows near the focus-focus cut, take the sin^2 and cosh
    # branches), over at least three row blocks for both node counts
    rng = np.random.default_rng(8)
    size = 3 * (BLOCK // 100) + 7
    E, l = rng.uniform(-0.2, 0.9, size), rng.uniform(0.0, 0.7, size)
    l[::20], l[10::20] = 0.0, rng.uniform(0.0, 1e-3, len(l[10::20]))
    for n in (100, 140):
        assert size > 3 * (BLOCK // n)
        batched = _radial_action_quad(E, l, 1.0, n=n)
        assert np.sum(np.isfinite(batched)) > 0.75 * size
        rows = np.array([_radial_action_quad(e, al, 1.0, n=n)[0] for e, al in zip(E[::3], l[::3])])
        assert batched[::3].tobytes() == rows.tobytes()
        assert batched[7:].tobytes() == _radial_action_quad(E[7:], l[7:], 1.0, n=n).tobytes()


def test_champagne_regularity_and_distance():
    m = make_champagne_model(1.0)
    assert m.is_regular(np.array([0.3, 0.1]))
    assert not m.is_regular(np.array([0.0, 0.0]))
    assert not m.is_regular(np.array([-0.3, 0.0]))
    d = m.dist_to_singular(np.array([[0.05, 0.0]]))
    assert d == pytest.approx(0.05, abs=1e-6)


# -- charts -----------------------------------------------------------------


@pytest.mark.parametrize(
    "factory,center",
    [
        (lambda: make_flat_model((1.0, 0.7), "xi_weighted"), (0.25, 0.15)),
        (lambda: make_champagne_model(1.0), (0.3, 0.15)),
        (lambda: make_champagne_model(1.0), (0.3, 0.0)),  # straddles the cut
    ],
)
def test_chart_round_trip(factory, center):
    model = factory()
    chart = action_coords(model, np.array(center))
    pts = chart.domain.grid(7)
    xi = chart.xi_of_c(pts)
    back = chart.phi(xi)
    assert np.max(np.abs(back - pts)) < 1e-8


def test_chart_tau_c_vanishes():
    # both models use exact global actions in their charts: S/2pi = xi_c
    for model, c in [
        (make_flat_model((1.0, 0.7), "xi_weighted"), (0.25, 0.15)),
        (make_champagne_model(1.0), (0.3, 0.15)),
    ]:
        chart = action_coords(model, np.array(c))
        assert np.array_equal(chart.tau_c, [0.0, 0.0])


def test_table_is_the_quadrature_at_the_octagon_centers():
    # tau_c = 0 rests on the table's xi_2 being the action integral S_2/2pi:
    # at every center of the classical (211) and spectral (341) octagon
    # covers it is the n = 140 quadrature within 1e-8 (2.5e-9 measured)
    m = make_champagne_model(1.0)
    octagon = [(0.15 + 0.3 * math.cos(math.pi * t / 4), 0.3 * math.sin(math.pi * t / 4)) for t in range(8)]
    spectral = _cover(m, octagon, SemiclassicalParams(h=1e-3, delta=0.5))
    for centers, n in ((cover_loop(m, octagon), 211), (spectral, 341)):
        assert len(centers) == n
        quad = _radial_action_quad(centers[:, 0], np.abs(centers[:, 1]), 1.0, n=140)
        assert np.max(np.abs(_xi2(m, centers[:, 0], centers[:, 1]) - quad)) < 1e-8


def test_chart_shear_detection():
    m = make_champagne_model(1.0)
    assert action_coords(m, np.array([0.3, 0.0])).shear == 1
    assert action_coords(m, np.array([0.3, 0.2])).shear == 0
    # negative-energy crossing of l = 0 is smooth: no shear
    assert action_coords(m, np.array([-0.15, 0.0])).shear == 0


def test_chart_rejects_singular_center():
    m = make_champagne_model(1.0)
    with pytest.raises(ModelError):
        action_coords(m, np.array([0.0, 0.0]))
    with pytest.raises(ModelError):
        action_coords(m, np.array([-0.2499, 0.0]))


def test_action_coords_batch_equals_single_centers():
    # one pass over many centers builds each chart bit for bit as its own
    # n = 1 call does, and the grid that chart.txt makes again from a chart's
    # domain is the grid the pass checked: the classical and the spectral
    # octagon covers
    m = make_champagne_model(1.0)
    octagon = [(0.15 + 0.3 * math.cos(math.pi * t / 4), 0.3 * math.sin(math.pi * t / 4)) for t in range(8)]
    params = SemiclassicalParams(h=1e-3, delta=0.5)
    spectral = _cover(m, octagon, params)
    for centers in (cover_loop(m, octagon), spectral):
        charts = action_coords(m, centers)
        assert len(charts) == len(centers) and sum(ch.shear for ch in charts) > 0
        grid_values, grid_xi = models._chart_domains(m, centers)[2:]
        for c, batched, values, xi in zip(centers, charts, grid_values, grid_xi):
            grid = batched.domain.grid(9)
            assert grid.tobytes() == values.tobytes() and batched.xi_of_c(grid).tobytes() == xi.tobytes()
            single = action_coords(m, c)
            assert single.shear == batched.shear
            for f in ("c", "tau_c"):
                assert getattr(single, f).tobytes() == getattr(batched, f).tobytes(), f
            for f in ("domain", "xi_box"):
                r1, r2 = getattr(single, f), getattr(batched, f)
                assert r1.center.tobytes() == r2.center.tobytes() and r1.half.tobytes() == r2.half.tobytes(), f


@pytest.mark.parametrize(
    "bad, reason",
    [((0.0, 0.0), "not a regular value"), ((0.0005, 0.0), "too close to the singular set")],
)
def test_action_coords_batch_names_bad_center(bad, reason):
    centers = np.array([(0.3, 0.15), bad, (0.3, 0.0)])
    with pytest.raises(ModelError, match=re.escape(f"center 1 at {bad}: ") + reason) as err:
        action_coords(make_champagne_model(1.0), centers)
    assert (err.value.reason, err.value.index) == (None, 1)


def test_chart_inversion_failure_gives_its_reason_and_center(monkeypatch):
    # an inversion that misses the grid of the second center by 1e-3
    m = make_champagne_model(1.0)
    invert = m.value_from_xi

    def off_at_center_1(xi, shear=0, seed_E=None):
        a = invert(xi, shear, seed_E)
        if a.ndim == 3:
            a[1] += 1e-3
        return a

    monkeypatch.setattr(m, "value_from_xi", off_at_center_1)
    with pytest.raises(ModelError, match=re.escape("center 1 at (0.3, 0.0): chart inversion failed")) as err:
        action_coords(m, np.array([(0.3, 0.15), (0.3, 0.0), (0.35, 0.1)]))
    assert (err.value.reason, err.value.index) == ("chart_inversion", 1)


def test_sheared_chart_is_smooth_across_cut():
    # with the shear continuation the Jacobian must be continuous at l = 0
    m = make_champagne_model(1.0)
    chart = action_coords(m, np.array([0.3, 0.0]))
    J_left = chart.d_xi(np.array([0.3, -0.005]))
    J_right = chart.d_xi(np.array([0.3, 0.005]))
    assert np.max(np.abs(J_left - J_right)) < 0.02


def test_frequency_flat_analytic():
    m = make_flat_model((1.0, 0.7), "xi_weighted")
    chart = action_coords(m, np.array([0.25, 0.15]))
    xi = chart.xi_of_c(np.array([0.25, 0.15]))
    omega, d_avg_q, omega_prime = _frequencies_at(m, chart.phi(xi), chart.shear)
    assert np.allclose(omega, m.omega_star + xi, atol=1e-7)
    assert np.allclose(d_avg_q, [0.0, 1.0], atol=1e-7)  # <q> = xi_2
    assert np.linalg.svd(omega_prime, compute_uv=False)[-1] == pytest.approx(1.0)  # d omega/d xi is the identity


@pytest.mark.parametrize(
    "factory,shear,values",
    [
        (lambda: make_flat_model((1.0, 0.7), "xi_weighted"), 0, [(0.25, -0.1), (0.25, 0.0), (0.25, 0.15)]),
        (lambda: make_champagne_model(1.0), 0, [(0.3, -0.15), (-0.15, 0.0), (0.3, 0.15)]),
        (lambda: make_champagne_model(1.0), 1, [(0.3, -0.02), (0.3, 0.0), (0.3, 0.02)]),
    ],
)
def test_jet_matches_central_differences(factory, shear, values):
    # d xi/d a against central differences of xi_from_value, and the Hessian
    # of p against second differences of value_from_xi.  On l = 0 the
    # spline's one-sided l-derivative carries up to ~5e-6 error, so the
    # bounds there only pin the sign and shear convention (a wrong one is
    # off by 0.5 or more).
    model = factory()
    a = np.array(values)
    xi, J, hess = model.jet(a, shear=shear)
    assert np.max(np.abs(xi - model.xi_from_value(a, shear=shear))) < 1e-14

    h = 1e-5
    J_fd = np.stack(
        [
            (model.xi_from_value(a + h * e, shear=shear) - model.xi_from_value(a - h * e, shear=shear)) / (2 * h)
            for e in np.eye(2)
        ],
        axis=-1,
    )
    on_line = a[:, 1] == 0.0
    J_err = np.max(np.abs(J - J_fd), axis=(1, 2))
    assert np.all(J_err < np.where(on_line, 1e-5, 1e-9))

    h2 = 1e-3
    steps = h2 * np.eye(2)

    def p(x):
        return model.value_from_xi(x, shear=shear)[..., 0]

    hess_fd = np.empty_like(hess)
    for i in range(2):
        for j in range(2):
            si, sj = steps[i], steps[j]
            hess_fd[:, i, j] = (
                p(xi + si + sj) - p(xi + si - sj) - p(xi - si + sj) + p(xi - si - sj)
            ) / (4 * h2 * h2)
    H_err = np.max(np.abs(hess - hess_fd), axis=(1, 2))
    assert np.all(H_err < np.where(on_line, 2e-2, 2e-4))


def test_frequency_outside_chart_raises():
    # the time average reads the frequency only inside the chart's action box
    m = make_flat_model((1.0, 0.7), "xi_weighted")
    chart = action_coords(m, np.array([0.25, 0.15]))
    with pytest.raises(ModelError):
        time_average(m, chart, np.array([5.0, 5.0]), np.zeros(2), 10.0)


def test_chart_serialization_round_trips_numbers():
    m = make_flat_model((1.0, 0.7), "xi_weighted")
    chart = action_coords(m, np.array([0.25, 0.15]))
    text = chart_to_text(chart)
    assert text.startswith("[action-chart]")
    line = next(l for l in text.splitlines() if l.startswith("c = "))
    vals = [float(tok) for tok in line.split("=")[1].split()]
    assert vals == [0.25, 0.15]
