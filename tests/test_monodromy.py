import dataclasses
import re

import numpy as np
import pytest

from pseudolattice import monodromy
from pseudolattice.models import ModelError, action_coords, make_champagne_model, make_flat_model
from pseudolattice.monodromy import (
    MonodromyClass,
    MonodromyError,
    PseudoChartAtlas,
    TransitionMatrix,
    _normal_form,
    action_atlas,
    classical_monodromy,
    cocycle_check,
    compare_monodromies,
    cover_loop,
    loop_monodromy,
    monodromy_report,
    transition_matrix,
)


def _transition(atlas, i, j):
    """The transition of the one pair ``(i, j)``."""
    (t,) = transition_matrix(atlas, [i], [j])
    return t


def _linear_atlas(centers, mats, half=0.3):
    """Charts whose maps are u -> A_k u, on squares around the centers."""
    mats = np.asarray(mats, dtype=float)

    def jac(idx, pts):
        return np.broadcast_to(mats[idx], pts.shape + (2,)).copy()

    centers = np.asarray(centers, dtype=float)
    return PseudoChartAtlas(centers, np.full(centers.shape, half), jac)


def _grid_atlas(mats, spacing=0.35, half=0.3):
    """Charts on a row of overlapping squares, one matrix per chart."""
    return _linear_atlas([(i * spacing, 0.0) for i in range(len(mats))], mats, half=half)


UNIMODULAR = [
    np.eye(2),
    np.array([[1.0, 1.0], [0.0, 1.0]]),
    np.array([[2.0, 1.0], [1.0, 1.0]]),
    np.array([[0.0, -1.0], [1.0, 0.0]]),
]


def test_self_transition_is_identity():
    atlas = _grid_atlas(UNIMODULAR[:2])
    t = _transition(atlas, 0, 0)
    assert np.array_equal(t.M, np.eye(2, dtype=np.int64))
    assert t.rounding_error == 0.0
    # and within a batch of other pairs
    batch = transition_matrix(atlas, [0, 0, 1], [0, 1, 1])
    assert [t.rounding_error for t in batch[::2]] == [0.0, 0.0]
    assert all(np.array_equal(t.pre_round, np.eye(2)) and np.array_equal(t.M, np.eye(2)) for t in batch[::2])
    assert not np.array_equal(batch[1].M, np.eye(2))


def test_transition_antisymmetry():
    atlas = _grid_atlas(UNIMODULAR)
    for i in range(3):
        a = _transition(atlas, i, i + 1).M
        b = _transition(atlas, i + 1, i).M
        assert np.array_equal(a @ b, np.eye(2, dtype=np.int64))


def test_transition_exact_for_linear_charts():
    atlas = _grid_atlas(UNIMODULAR)
    t = _transition(atlas, 0, 1)
    expected = np.rint(UNIMODULAR[0] @ np.linalg.inv(UNIMODULAR[1])).astype(np.int64)
    assert np.array_equal(t.M, expected)
    assert t.rounding_error < 1e-12


def test_transition_requires_overlap():
    atlas = _grid_atlas(UNIMODULAR, spacing=2.0)
    with pytest.raises(MonodromyError):
        _transition(atlas, 0, 1)


def test_transition_rejects_non_integral():
    bad = np.array([[1.4, 0.0], [0.0, 1.0]])
    atlas = _grid_atlas([np.eye(2), bad])
    with pytest.raises(MonodromyError):
        _transition(atlas, 0, 1)


def test_transition_rejects_bad_determinant():
    atlas = _grid_atlas([np.eye(2), 0.5 * np.eye(2)])
    with pytest.raises(MonodromyError):
        _transition(atlas, 0, 1)


def test_failing_transition_gives_its_reason_and_pair():
    # constant Jacobians whose transition from chart 1 does not round, or
    # rounds to det 4: the first failing pair is named by its position
    for mat, what in ((np.diag([1.4, 1.0]), "not integral"), (0.5 * np.eye(2), "has det 4")):
        atlas = _grid_atlas([np.eye(2), np.eye(2), mat])
        with pytest.raises(MonodromyError, match=f"transition 1->2 {what}") as err:
            transition_matrix(atlas, [0, 1, 1, 2], [1, 0, 2, 1])
        assert (err.value.reason, err.value.index) == ("non_integral", 2)
        # cocycle_check rounds both orders of every overlap at once and names
        # the first failing pair in (i, j) order, the same pairs as above
        with pytest.raises(MonodromyError, match=f"transition 1->2 {what}") as err:
            cocycle_check(atlas)
        assert (err.value.reason, err.value.index) == ("non_integral", 2)


def _block_atlas():
    """2x3 block of overlapping squares, all charts sharing one linear map."""
    centers = [(0.35 * i, 0.35 * j) for i in range(3) for j in range(2)]
    return _linear_atlas(centers, [UNIMODULAR[2]] * len(centers))


def _cocycle_with_pairs(monkeypatch, atlas):
    """``cocycle_check(atlas)`` and the transitions ``i < j`` its sweep
    computed, in (i, j) order, recorded by wrapping ``_rounded``: the sweep
    rounds every overlapping pair, in both orders, at once."""
    computed = []

    def record(ii, jj, pre):
        M, err = rounded(ii, jj, pre)
        computed.extend(TransitionMatrix(int(a), int(b), m, p, float(e)) for a, b, m, p, e in zip(ii, jj, M, pre, err))
        return M, err

    with monkeypatch.context() as mp:
        rounded = monodromy._rounded
        mp.setattr(monodromy, "_rounded", record)
        rep = cocycle_check(atlas)
    return rep, [t for t in computed if t.i < t.j]


def test_cocycle_clean_covering(monkeypatch):
    rep, pairs = _cocycle_with_pairs(monkeypatch, _block_atlas())
    assert rep.ok
    assert rep.triples_checked > 0
    assert len(pairs) >= 6


def test_cocycle_single_chart_vacuous(monkeypatch):
    rep, pairs = _cocycle_with_pairs(monkeypatch, _linear_atlas([(0.0, 0.0)], [np.eye(2)]))
    assert rep.ok
    assert rep.triples_checked == 0
    assert pairs == []


def _split_chart_atlas():
    """Three charts whose middle one reports different Jacobians depending
    on where it is sampled; each pairwise overlap sees one consistent
    Jacobian (so all transitions round cleanly) but M_02 != M_01 M_12 on
    the triple overlap."""
    U = np.array([[1.0, 1.0], [0.0, 1.0]])
    atlas = _linear_atlas([(0.0, 0.0), (0.29, 0.29), (0.58, 0.58)], [np.eye(2)] * 3)
    atlas.half[1] = 0.65
    linear = atlas.jac

    def jac(idx, pts):
        out = linear(idx, pts)
        out[(idx == 1) & (pts[..., 0] >= 0.29)] = U
        return out

    atlas.jac = jac
    return atlas


def test_cocycle_detects_corrupted_chart():
    rep = cocycle_check(_split_chart_atlas())
    assert not rep.ok
    assert len(rep.violations) > 0


def _cocycle_check_brute_force(atlas):
    """Reference: every ordered triple of distinct charts, n^3 of them."""
    n = len(atlas)
    trans = {}
    pairs = []
    for i in range(n):
        for j in range(n):
            if i != j and np.all(atlas.overlap(i, j)[1] > 0):
                t = _transition(atlas, i, j)
                trans[(i, j)] = t.M
                if i < j:
                    pairs.append(t)
    violations = []
    checked = 0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if len({i, j, k}) < 3:
                    continue
                if (i, j) not in trans or (j, k) not in trans or (i, k) not in trans:
                    continue
                c_ij, h_ij = atlas.overlap(i, j)
                c, h = atlas.overlap(i, k)
                lo = np.maximum(c - h, c_ij - h_ij)
                hi = np.minimum(c + h, c_ij + h_ij)
                if np.any(hi - lo <= 0):
                    continue
                checked += 1
                prod = trans[(i, j)] @ trans[(j, k)]
                if not np.array_equal(prod, trans[(i, k)]):
                    violations.append((i, j, k, trans[(i, k)], prod))
    return pairs, checked, violations


def _random_atlas():
    """30 linear charts on rectangles of unequal half-sizes, so that some
    overlapping centers are farther apart than twice most half-sizes."""
    rng = np.random.default_rng(3)
    atlas = _linear_atlas(rng.uniform(0.0, 1.0, (30, 2)), np.array(UNIMODULAR)[rng.integers(0, 4, 30)])
    atlas.half = rng.uniform(0.05, 0.25, (30, 2))
    i, j = np.triu_indices(30, 1)
    far = np.max(np.abs(atlas.center[i] - atlas.center[j]), axis=1) > 2.0 * np.median(atlas.half)
    assert np.any(far & np.all(atlas.overlap(i, j)[1] > 0, axis=1))
    return atlas


def _tied_touching_atlas():
    """18 linear charts whose centers share E in columns of three, on
    rectangles that touch: half-sizes 0.05 or one ulp more at spacing 0.1,
    so that rounding decides whether neighbors overlap, and a few of 0.08."""
    rng = np.random.default_rng(4)
    centers = np.array([(0.1 * k, 0.1 * m) for k in range(6) for m in range(3)])
    atlas = _linear_atlas(centers, np.array(UNIMODULAR)[rng.integers(0, 4, len(centers))])
    atlas.half = np.array([0.05, np.nextafter(0.05, 1.0), 0.08])[rng.integers(0, 3, centers.shape)]
    i, j = np.triu_indices(len(atlas), 1)
    half = atlas.overlap(i, j)[1]
    assert np.any(atlas.center[i, 0] == atlas.center[j, 0])
    assert np.any(np.all(half > 0, axis=1) & np.any(half < 1e-15, axis=1))  # overlap within an ulp
    assert np.any(np.all(np.abs(half) < 1e-15, axis=1) & np.any(half <= 0, axis=1))  # touch, no overlap
    return atlas


@pytest.mark.parametrize(
    "make_atlas",
    [_block_atlas, _split_chart_atlas, _random_atlas, _tied_touching_atlas],
    ids=["clean", "corrupted", "unequal-halves", "tied-touching"],
)
def test_cocycle_matches_brute_force(make_atlas, monkeypatch):
    atlas = make_atlas()
    rep, swept = _cocycle_with_pairs(monkeypatch, atlas)
    pairs, checked, violations = _cocycle_check_brute_force(atlas)
    assert [(t.i, t.j) for t in swept] == [(t.i, t.j) for t in pairs]
    assert all(np.array_equal(a.M, b.M) and np.array_equal(a.pre_round, b.pre_round) for a, b in zip(swept, pairs))
    assert rep.triples_checked == checked > 0
    assert len(rep.violations) == len(violations)
    for got, want in zip(rep.violations, violations):
        assert got[:3] == want[:3]
        assert np.array_equal(got[3], want[3]) and np.array_equal(got[4], want[4])


def test_normal_form_identity():
    nf, inv, m = _normal_form(np.eye(2, dtype=int))
    assert np.array_equal(nf, np.eye(2, dtype=int))
    assert inv == (2, 1)
    assert m == 0


def test_normal_form_parabolic():
    nf, inv, m = _normal_form(np.array([[1, 3], [0, 1]]))
    assert m == 3
    assert np.array_equal(nf, np.array([[1, 3], [0, 1]]))
    # a conjugate of the same parabolic class has the same |m|
    S = np.array([[2, 1], [1, 1]])
    Sinv = np.rint(np.linalg.inv(S)).astype(int)
    P = S @ np.array([[1, 2], [0, 1]]) @ Sinv
    nf2, inv2, m2 = _normal_form(P)
    assert inv2 == (2, 1)
    assert m2 == 2


def test_normal_form_trace_minus_two():
    nf, inv, m = _normal_form(-np.eye(2, dtype=int))
    assert np.array_equal(nf, -np.eye(2, dtype=int))
    assert (inv, m) == ((-2, 1), 0)
    S = np.array([[2, 1], [1, 1]])
    Sinv = np.rint(np.linalg.inv(S)).astype(int)
    nf, inv, m = _normal_form(S @ -np.array([[1, 3], [0, 1]]) @ Sinv)
    assert np.array_equal(nf, -np.array([[1, 3], [0, 1]]))
    assert (inv, m) == ((-2, 1), 3)


def test_normal_form_non_parabolic():
    P = np.array([[2, 1], [1, 1]])  # hyperbolic, trace 3
    nf, inv, m = _normal_form(P)
    assert inv == (3, 1)
    assert m is None
    assert np.array_equal(nf, P)


def test_invariants_are_exact_for_large_entries():
    # the det 1 Fibonacci product [[F41, F40], [F40, F39]] has 27-bit
    # entries; its determinant in floating point reads 0
    F = [0, 1]
    while len(F) < 42:
        F.append(F[-1] + F[-2])
    P = np.array([[F[41], F[40]], [F[40], F[39]]], dtype=np.int64)
    assert MonodromyClass(P, []).invariants == (F[41] + F[39], 1)


def _cycle_atlas():
    """A row of charts folded into a cycle: the last chart overlaps the first."""
    atlas = _grid_atlas(UNIMODULAR)
    atlas.center[-1], atlas.half[-1] = (0.0, 0.0), (1.5, 0.3)
    return atlas


def test_loop_monodromy_product_and_reverse():
    atlas = _cycle_atlas()
    fwd = loop_monodromy(atlas)
    # the same charts in the reverse order go round the other way
    reversed_atlas = _linear_atlas(atlas.center[::-1], np.array(UNIMODULAR)[::-1])
    reversed_atlas.half = atlas.half[::-1].copy()
    rev = loop_monodromy(reversed_atlas)
    assert np.array_equal(fwd.product @ rev.product, np.eye(2, dtype=np.int64))
    # the class keeps its per-edge transitions, chart k -> k + 1 in atlas order
    assert [(t.i, t.j) for t in fwd.edges] == [(t.i, t.j) for t in rev.edges] == [(0, 1), (1, 2), (2, 3), (3, 0)]
    assert np.array_equal(np.linalg.multi_dot([t.M for t in fwd.edges]), fwd.product)
    if fwd.parabolic_m is not None:
        assert rev.parabolic_m == fwd.parabolic_m


@pytest.mark.parametrize("P", [[[1, 2], [0, 1]], [[-1, 0], [-3, -1]], [[2, 1], [1, 1]], [[0, 1], [1, 0]]])
def test_class_reads_its_invariants_off_the_product(P):
    # the loop's product is the identity; a class given another product
    # reports that product's normal form
    cls = loop_monodromy(_cycle_atlas())
    assert np.array_equal(cls.normal_form, np.eye(2)) and cls.parabolic_m == 0
    cls = dataclasses.replace(cls, product=np.array(P, dtype=np.int64))
    nf, inv, m = _normal_form(cls.product)
    assert np.array_equal(cls.normal_form, nf)
    assert (cls.invariants, cls.parabolic_m) == (inv, m)


def test_loop_monodromy_empty_and_gap():
    with pytest.raises(MonodromyError, match="empty atlas"):
        loop_monodromy(_linear_atlas(np.empty((0, 2)), np.empty((0, 2, 2))))
    with pytest.raises(MonodromyError, match="charts 0 and 1 do not overlap") as err:
        loop_monodromy(_grid_atlas(UNIMODULAR, spacing=2.0))
    assert (err.value.reason, err.value.index) == ("no_overlap", 0)
    # the first pair without an overlap is named by its position
    with pytest.raises(MonodromyError, match="charts 3 and 0 do not overlap") as err:
        transition_matrix(_grid_atlas(UNIMODULAR), [0, 1, 3, 2], [1, 2, 0, 0])
    assert (err.value.reason, err.value.index) == ("no_overlap", 2)


def test_cover_loop_spacing_and_budget(monkeypatch):
    m = make_flat_model((1.0, 0.7), "xi_weighted")
    verts = [(0.3, 0.1), (0.5, 0.1), (0.5, 0.3), (0.3, 0.3)]
    centers = cover_loop(m, verts)
    assert len(centers) >= 10
    # consecutive gaps never exceed 0.4 of the local chart radius
    from pseudolattice.models import _chart_radius

    for a, b in zip(centers[:-1], centers[1:]):
        assert np.linalg.norm(b - a) <= 0.4 * _chart_radius(m, a) + 1e-9
    monkeypatch.setattr(monodromy, "MAX_CHARTS", 3)
    with pytest.raises(MonodromyError, match="chart budget"):
        cover_loop(m, verts)


def test_classical_flat_loop_is_identity():
    m = make_flat_model((1.0, 0.7), "xi_weighted")
    cls = classical_monodromy(m, [(0.3, 0.1), (0.5, 0.1), (0.5, 0.3), (0.3, 0.3)])
    assert np.array_equal(cls.product, np.eye(2, dtype=np.int64))
    assert cls.parabolic_m == 0


OCTAGON = [
    (
        0.15 + 0.3 * np.cos(2 * np.pi * t / 8),
        0.3 * np.sin(2 * np.pi * t / 8),
    )
    for t in range(8)
]


@pytest.mark.parametrize(
    "vertices, reason, message",
    [([(0.3, 0.1)], "bad_loop", "loop needs at least 2 vertices"),
     ([(0.3, 0.1), (0.3, 0.1)], "bad_loop", "degenerate loop of zero length"),
     (OCTAGON, "chart_budget", "loop covering exceeds the chart budget of 100 centers"),
     ([(0.1, 0.1), (0.0, 0.0), (0.1, -0.1)], "singular_set", "loop passes within 0.001 of the singular set at "),
     ([(0.0, 0.0), (0.1, 0.1)], "singular_set", "loop passes within 0.001 of the singular set at (0, 0)")],
    ids=["one-vertex", "zero-length", "budget", "through-the-value", "from-the-value"],
)
def test_cover_loop_failure_gives_its_reason(monkeypatch, vertices, reason, message):
    # the octagon needs 211 charts: a budget of 100 is overflowed well away
    # from the singular set; a loop through the focus-focus value stops
    # within the default budget, where a chart there would be refused
    if reason == "chart_budget":
        monkeypatch.setattr(monodromy, "MAX_CHARTS", 100)
    with pytest.raises(MonodromyError, match=re.escape(message)) as err:
        cover_loop(make_champagne_model(1.0), vertices)
    assert err.value.reason == reason


def test_classical_champagne_loop():
    m = make_champagne_model(1.0)
    cls = classical_monodromy(m, OCTAGON)
    assert cls.invariants == (2, 1)
    assert cls.parabolic_m == 1
    # one action-chart transition per loop edge, in loop order; the class is
    # the transpose-inverse of their product
    n = len(cls.edges)
    assert all(isinstance(t, TransitionMatrix) for t in cls.edges)
    assert [(t.i, t.j) for t in cls.edges] == [(k, (k + 1) % n) for k in range(n)]
    raw = np.linalg.multi_dot([t.M for t in cls.edges])
    assert np.array_equal(np.rint(np.linalg.inv(raw)).astype(np.int64).T, cls.product)


def test_action_atlas_is_the_action_charts():
    # the atlas builds only each chart's domain and shear, with the checks
    # they rest on; they are those of the full charts, bit for bit
    m = make_champagne_model(1.0)
    centers = cover_loop(m, OCTAGON)
    atlas, charts = action_atlas(m, centers), action_coords(m, centers)
    for f in ("center", "half"):
        assert getattr(atlas, f).tobytes() == np.array([getattr(ch.domain, f) for ch in charts]).tobytes(), f
    shear = np.array([ch.shear for ch in charts])
    assert 0 < shear.sum() < len(shear)
    idx = np.arange(len(centers))[:, None]
    assert atlas.jac(idx, centers[:, None]).tobytes() == m.jet(centers[:, None], shear=shear[:, None])[1].tobytes()


@pytest.mark.parametrize(
    "bad, reason",
    [((0.0, 0.0), "not a regular value"), ((0.0005, 0.0), "too close to the singular set")],
)
def test_action_atlas_names_bad_center(bad, reason):
    m = make_champagne_model(1.0)
    centers = np.array([(0.3, 0.15), bad, (0.3, 0.0)])
    for build in (action_atlas, action_coords):
        with pytest.raises(ModelError, match=re.escape(f"center 1 at {bad}: ") + reason):
            build(m, centers)


def test_classical_champagne_contractible_loop():
    # a small loop away from the critical value is trivial
    m = make_champagne_model(1.0)
    verts = [(0.35, 0.1), (0.45, 0.1), (0.45, 0.2), (0.35, 0.2)]
    cls = classical_monodromy(m, verts)
    assert cls.parabolic_m == 0


def test_classical_double_winding():
    m = make_champagne_model(1.0)
    cls = classical_monodromy(m, OCTAGON + OCTAGON)
    assert cls.parabolic_m == 2


def test_compare_monodromies_cases():
    def mk(P):
        return MonodromyClass(np.asarray(P, dtype=np.int64), [])

    ident = mk(np.eye(2, dtype=int))
    p1 = mk([[1, 1], [0, 1]])
    p1t = mk([[1, 0], [1, 1]])
    p2 = mk([[1, 2], [0, 1]])
    hyp = mk([[2, 1], [1, 1]])
    n1 = mk([[-1, -1], [0, -1]])
    n1t = mk([[-1, 0], [-1, -1]])
    n2t = mk([[-1, 0], [-2, -1]])  # transpose of -[[1, 2], [0, 1]]
    assert compare_monodromies(ident, ident)
    assert compare_monodromies(n1, n1t)
    assert not compare_monodromies(n1, n2t)
    assert not compare_monodromies(n1, mk(-np.eye(2, dtype=int)))
    assert not compare_monodromies(n1, p1)
    assert compare_monodromies(p1, p1t)  # transpose convention
    assert compare_monodromies(p1, p1)  # |m| blind to transpose
    assert not compare_monodromies(p1, p2)
    assert not compare_monodromies(p1, ident)
    assert not compare_monodromies(hyp, p1)
    # the two det -1, trace 0 classes: gcd of the entries of P - I
    assert compare_monodromies(mk([[1, 0], [0, -1]]), mk([[0, 1], [1, 0]])) is False
    assert compare_monodromies(mk([[1, 0], [0, -1]]), mk([[-1, 0], [0, 1]])) is True
    # equal (trace, det) on a hyperbolic class is not decided
    assert compare_monodromies(hyp, mk([[1, 1], [1, 2]])) is None


def _conjugator(A, B, bound=3):
    """Some X in GL(2, Z) with entries |x| <= bound and X A = B X, or None."""
    r = np.arange(-bound, bound + 1)
    X = np.stack(np.meshgrid(r, r, r, r, indexing="ij"), axis=-1).reshape(-1, 2, 2)
    X = X[np.abs(X[:, 0, 0] * X[:, 1, 1] - X[:, 0, 1] * X[:, 1, 0]) == 1]
    ok = np.all(X @ A == B @ X, axis=(1, 2))
    return X[ok][0] if ok.any() else None


def test_compare_monodromies_decided_classes_brute_force():
    # every det 1, |trace| <= 2 and every det -1, trace 0 matrix with
    # entries in [-2, 2], pairwise: True exactly when a small conjugator exists
    r = np.arange(-2, 3)
    P = np.stack(np.meshgrid(r, r, r, r, indexing="ij"), axis=-1).reshape(-1, 2, 2)
    det = P[:, 0, 0] * P[:, 1, 1] - P[:, 0, 1] * P[:, 1, 0]
    trace = P[:, 0, 0] + P[:, 1, 1]
    P = P[((det == 1) & (np.abs(trace) <= 2)) | ((det == -1) & (trace == 0))]
    assert len(P) == 44 + 20
    cls = [MonodromyClass(A, []) for A in P]
    for a, A in zip(cls, P):
        for b, B in zip(cls, P):
            verdict = compare_monodromies(a, b)
            assert verdict is not None
            assert verdict == (_conjugator(A, B.T) is not None), (A, B)


def test_monodromy_report_text():
    m = make_champagne_model(1.0)
    cls = classical_monodromy(m, OCTAGON)
    text = monodromy_report(cls, classical=cls)
    assert text.startswith("[monodromy]")
    assert "normal_form = [[1, 1], [0, 1]]" in text
    # classical vs itself: products are transposes of each other only up to
    # conjugacy, which the parabolic invariant certifies
    assert "conjugate = true" in text
    # the loop is the atlas's chart order, read off the edges the report lists
    n = len(cls.edges)
    assert f"\nloop = {' '.join(map(str, range(n)))}\n[transitions]\n0 -> 1: M = " in text
    assert f"\n{n - 1} -> 0: M = " in text


@pytest.fixture(scope="module")
def small_spectral_loop():
    from pseudolattice.diophantine import DiophantineParams
    from pseudolattice.pipeline import spectral_monodromy
    from pseudolattice.synth import SemiclassicalParams

    params = SemiclassicalParams(h=1e-3, delta=0.5, seed=0)
    square = np.array([(0.30, 0.10), (0.34, 0.10), (0.34, 0.14), (0.30, 0.14)])
    return spectral_monodromy(make_flat_model((1.0, 0.7)), square, params, DiophantineParams(alpha=1e-3, k_max=500))


def test_spectral_atlas_domains_are_the_good_rectangles(small_spectral_loop):
    # the fitted charts and their atlas live in the value plane: each
    # domain is the cloud's good rectangle itself, centered on its good value
    cls, atlas, elements = small_spectral_loop
    assert np.array_equal(cls.product, np.eye(2, dtype=np.int64))
    assert len(atlas) == len(elements) > 4
    for center, half, el in zip(atlas.center, atlas.half, elements):
        assert el.cloud.rectangle is el.hchart.rectangle
        assert center.tobytes() == el.cloud.rectangle.center.tobytes()
        assert half.tobytes() == el.cloud.rectangle.half.tobytes()


@pytest.mark.parametrize("loop", ["spectral", "classical"])
def test_batched_transitions_equal_per_pair_transitions(small_spectral_loop, loop):
    if loop == "spectral":
        atlas = small_spectral_loop[1]
    else:
        m = make_champagne_model(1.0)
        atlas = action_atlas(m, cover_loop(m, OCTAGON))
    i = np.arange(len(atlas))
    j = np.roll(i, -1)
    batch = transition_matrix(atlas, np.concatenate([i, j]), np.concatenate([j, i]))
    single = [_transition(atlas, a, b) for a, b in zip(np.concatenate([i, j]), np.concatenate([j, i]))]
    assert [(t.i, t.j) for t in batch] == [(t.i, t.j) for t in single]
    assert all(a.M.tobytes() == b.M.tobytes() and a.pre_round.tobytes() == b.pre_round.tobytes() for a, b in zip(batch, single))
    assert [t.rounding_error for t in batch] == [t.rounding_error for t in single]


def test_spectral_chart_error_names_rectangle(monkeypatch):
    import pseudolattice.pipeline as pipeline
    from pseudolattice.detect import DetectionError
    from pseudolattice.diophantine import DiophantineParams
    from pseudolattice.synth import SemiclassicalParams

    fit, fits = pipeline.fit_hchart, []

    def fit_failing_third(cloud, **kwargs):
        fits.append(cloud)
        if len(fits) == 3:
            raise DetectionError("planted failure", "residual")
        return fit(cloud, **kwargs)

    monkeypatch.setattr(pipeline, "fit_hchart", fit_failing_third)
    centers = np.array([(0.30, 0.10), (0.32, 0.10), (0.34, 0.12)])
    params = SemiclassicalParams(h=1e-3, delta=0.5, seed=0)
    with pytest.raises(DetectionError) as exc:
        pipeline.spectral_chart_at(make_flat_model((1.0, 0.7)), centers, params, DiophantineParams(alpha=1e-3, k_max=500))
    E, G = fits[2].rectangle.center
    assert str(exc.value) == f"rectangle 2 at ({E:.6g}, {G:.6g}): planted failure"
    assert exc.value.index == 2 and exc.value.reason == "residual"
    assert str(exc.value.__cause__) == "planted failure"

