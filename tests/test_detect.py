import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudolattice.detect import (
    BASIS_PATCH,
    MAX_UNLABELED,
    RESIDUAL_LIMIT,
    DetectionError,
    _direction_peak,
    _feature_jac,
    _features,
    _gauss_reduce,
    _ill_conditioned,
    _row_norm,
    detect_basis,
    fit_hchart,
    gauge_alignment,
    invert_leading,
    label_lattice,
)
from pseudolattice import monodromy
from pseudolattice.diophantine import DiophantineParams
from pseudolattice.models import Rect, action_coords, make_champagne_model, make_flat_model
from pseudolattice.monodromy import cocycle_check, transition_matrix
from pseudolattice.pipeline import _cover, _spectral_atlas, spectral_chart_at
from pseudolattice.plots import _Frame, plot_spectrum
from pseudolattice.synth import (
    NormalFormSymbol,
    SemiclassicalParams,
    SpectrumCloud,
    _synth_clouds,
    chi,
    chi_inverse,
    default_higher_coeffs,
    good_rectangle,
    synth_spectrum,
)

PARAMS = SemiclassicalParams(h=1e-3, delta=0.5, noise_order=3, seed=42)


CLEAN = replace(PARAMS, noise_order=400)  # h^400 underflows to 0: clouds without noise


def _cloud(sym, a, params=PARAMS):
    """The cloud of the good rectangle at ``a`` in the symbol's chart."""
    return synth_spectrum(sym, good_rectangle(a, params, sym.chart.domain.half[0]), params)


@pytest.fixture(scope="module")
def flat_setup():
    m = make_flat_model((1.0, 0.7), "xi_weighted")
    a = np.array([0.25, 0.15])
    return m, action_coords(m, a), a


@pytest.fixture(scope="module")
def flat_cloud(flat_setup):
    m, chart, a = flat_setup
    sym = NormalFormSymbol(chart, default_higher_coeffs())
    return _cloud(sym, a)


@pytest.fixture(scope="module")
def champ_setup():
    m = make_champagne_model(1.0)
    a = np.array([0.3, 0.15])
    return m, action_coords(m, a), a


finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@given(u1=finite, u2=finite, eps=st.floats(min_value=1e-6, max_value=1.0))
@settings(max_examples=50, deadline=None)
def test_chi_round_trip(u1, u2, eps):
    u = np.array([u1, u2])
    assert np.allclose(chi_inverse(chi(u, eps), eps), u, rtol=1e-12, atol=1e-15)


def test_chi_values():
    assert chi(np.array([1.0, 2.0]), 0.1) == pytest.approx(1.0 + 0.2j)
    z = chi(np.array([1.0, 2.0]), 0.1)
    z_half = chi(np.array([1.0, 2.0]), 0.05)
    assert z_half.imag == pytest.approx(z.imag / 2.0)
    with pytest.raises(ValueError):
        chi_inverse(1.0 + 1.0j, 0.0)


def test_gauss_reduce_properties():
    rng = np.random.default_rng(0)
    for _ in range(50):
        M = rng.integers(-5, 6, size=(2, 2))
        if abs(np.linalg.det(M)) != 1:
            continue
        base = np.array([[1.0, 0.1], [0.0, 0.9]])
        v1, v2 = (M @ base)[0], (M @ base)[1]
        b1, b2 = _gauss_reduce(v1, v2)
        assert np.linalg.norm(b1) <= np.linalg.norm(b2) + 1e-12
        assert np.dot(b1, b2) >= -1e-12  # acute
        # same lattice: original vectors are integer combinations
        B = np.column_stack([b1, b2])
        k = np.linalg.solve(B, np.column_stack([v1, v2]))
        assert np.allclose(k, np.rint(k), atol=1e-9)


def _square_lattice_cloud(h=1e-3, n=15, seed=0, rows=None, aspect=1.0):
    """``n`` x ``rows`` lattice points ``h (k1, aspect * k2)`` (``rows`` defaults to ``n``)."""
    k1, k2 = np.meshgrid(np.arange(n), np.arange(n if rows is None else rows), indexing="ij")
    u = h * np.stack([k1.ravel(), aspect * k2.ravel()], axis=-1).astype(float)
    params = SemiclassicalParams(h=h, delta=0.5, seed=seed)
    pts = chi(u, params.epsilon)
    rect = Rect((h * n / 2, h * n / 2), (h**0.5, h**0.5))  # h^delta / C0 at C0 = 1
    return SpectrumCloud(points=pts, k_true=None, params=params, rectangle=rect)


def _rescaled(cloud):
    """The rescaled points and the rectangle's center, as fit_hchart passes them on."""
    return chi_inverse(cloud.points, cloud.params.epsilon), cloud.rectangle.center


def test_basis_square_lattice():
    cloud = _square_lattice_cloud()
    b1, b2 = detect_basis(*_rescaled(cloud))
    B = np.abs(np.column_stack([b1, b2]))
    target = 1e-3 * np.eye(2)
    assert np.allclose(np.sort(B.ravel()), np.sort(target.ravel()), atol=1e-9)


def test_basis_flat_cloud_matches_jacobian(flat_setup):
    m, chart, a = flat_setup
    sym = NormalFormSymbol(chart, {})
    cloud = _cloud(sym, a, CLEAN)
    b1, b2 = detect_basis(*_rescaled(cloud))
    # lattice generated by h * columns of d(phi)/d(xi) at the center
    cols = PARAMS.h * np.linalg.inv(chart.d_xi(a))
    got = np.column_stack([b1, b2])
    k = np.linalg.solve(cols, got)
    assert np.allclose(k, np.rint(k), atol=0.01)  # integer combinations, 1% level
    assert abs(abs(np.linalg.det(k)) - 1.0) < 0.05  # same lattice


@pytest.mark.parametrize("n", [25, 27, 29])
def test_basis_small_cloud_is_its_own_patch(n):
    # fewer points than BASIS_PATCH: the patch is the whole cloud, and every
    # pair of its points gives a difference vector
    u, anchor = _rescaled(_square_lattice_cloud(n=5, rows=6))
    assert n < BASIS_PATCH == len(u)
    b1, b2 = detect_basis(u[:n], anchor)
    B = np.abs(np.column_stack([b1, b2]))
    assert np.allclose(np.sort(B.ravel()), [0.0, 0.0, 1e-3, 1e-3], atol=1e-9)


def _detect_basis_reference(u, anchor):
    """``detect_basis`` as the pair list computed it: gathered differences,
    a scattered neighbor matrix, ``np.median`` and the LAPACK basis test."""
    if len(u) > BASIS_PATCH:
        d = u - anchor
        u = u[np.sort(np.argpartition(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1], BASIS_PATCH - 1)[:BASIS_PATCH])]
    i, j = np.triu_indices(len(u), 1)
    diffs = u[j] - u[i]
    flip = (diffs[:, 1] < 0) | ((diffs[:, 1] == 0) & (diffs[:, 0] < 0))
    np.negative(diffs, out=diffs, where=flip[:, None])
    lens = np.linalg.norm(diffs, axis=1)
    ang = np.mod(np.arctan2(diffs[:, 1], diffs[:, 0]), math.pi)
    near = np.full((len(u), len(u)), np.inf)
    near[i, j] = near[j, i] = lens
    L0 = np.median(np.min(near, axis=1))
    short = (lens > 0.5 * L0) & (lens < 1.45 * L0)
    b1 = _direction_peak_reference(diffs[short], ang[short])
    theta1 = math.atan2(b1[1], b1[0]) % math.pi
    rest = (np.abs(np.mod(ang - theta1 + math.pi / 2, math.pi) - math.pi / 2) > 0.35) & (lens < 4.0 * L0)
    rest &= lens < 1.45 * np.min(lens[rest])
    b1, b2 = _gauss_reduce(b1, _direction_peak_reference(diffs[rest], ang[rest]))
    B = np.column_stack([b1, b2])
    return None if abs(np.linalg.det(B)) < 1e-300 or np.linalg.cond(B) > 50.0 else (b1, b2)


def test_basis_matches_the_pair_list_reference(flat_square_loop):
    # the difference matrix gives the pair list's differences, lengths and
    # median nearest-neighbor distance bit for bit: the same basis on every
    # cloud of a loop, and on random patches of 25 to 30 points
    rng = np.random.default_rng(11)
    clouds = [(_rescaled(cloud)[0], cloud.rectangle.center) for cloud, _ in flat_square_loop[4]]
    for n in (25, 26, 29, 30, 31):
        u = rng.uniform(0.0, 1.0, (n, 2)) @ np.array([[1e-3, 2e-4], [-3e-4, 1.2e-3]]) + 0.3
        clouds.append((u, u[0]))
    for u, anchor in clouds:
        want = _detect_basis_reference(u, anchor)
        try:
            got = detect_basis(u, anchor)
        except DetectionError as exc:
            assert want is None and exc.reason == "ill_conditioned_basis"
            continue
        assert want is not None and all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


def _bases_of_condition(rng, cond, n):
    """``n`` random 2 x 2 bases ``U diag(s, s / cond) V`` with rotations ``U``, ``V``."""
    rot = lambda t: np.stack([np.cos(t), -np.sin(t), np.sin(t), np.cos(t)], axis=-1).reshape(-1, 2, 2)
    s = 10.0 ** rng.uniform(-6.0, 2.0, n)
    sigma = np.zeros((n, 2, 2))
    sigma[:, 0, 0], sigma[:, 1, 1] = s, s / cond
    return rot(rng.uniform(0, 2 * np.pi, n)) @ sigma @ rot(rng.uniform(0, 2 * np.pi, n))


def test_closed_form_basis_test_decides_as_lapack():
    # |det| < 1e-300 or cond > 50, in closed form on Python floats: the same
    # decision as np.linalg.det and np.linalg.cond, on random bases of every
    # scale, on bases built at condition 50 (1 +- 1e-9) and on degenerate ones
    rng = np.random.default_rng(12)
    B = rng.standard_normal((10_000, 2, 2)) * 10.0 ** rng.uniform(-6.0, 2.0, (10_000, 1, 1))
    B = np.concatenate([B, _bases_of_condition(rng, 50.0 * (1 - 1e-9), 500), _bases_of_condition(rng, 50.0 * (1 + 1e-9), 500)])
    B = np.concatenate([B, [[[1.0, 2.0], [2.0, 4.0]], [[1e-151, 0.0], [0.0, 1e-151]], np.zeros((2, 2))]])
    want = (np.abs(np.linalg.det(B)) < 1e-300) | (np.linalg.cond(B) > 50.0)
    got = np.array([_ill_conditioned(M[:, 0], M[:, 1]) for M in B])
    assert np.array_equal(got, want)
    assert 100 < np.count_nonzero(want[:10_000]) < 9_900
    assert not np.any(want[10_000:10_500]) and np.all(want[10_500:])


def test_basis_needs_points():
    cloud = _square_lattice_cloud(n=3)
    with pytest.raises(DetectionError) as exc:
        detect_basis(*_rescaled(cloud))
    assert exc.value.reason == "too_few_points"


def test_basis_rejects_collinear_cloud():
    cloud = _square_lattice_cloud(n=60, rows=1)
    with pytest.raises(DetectionError, match="only one difference direction") as exc:
        detect_basis(*_rescaled(cloud))
    assert exc.value.reason == "ill_conditioned_basis"


def test_basis_rejects_anisotropic_lattice():
    # the second direction is sought among differences shorter than 4 |b1|
    with pytest.raises(DetectionError, match="only one difference direction"):
        detect_basis(*_rescaled(_square_lattice_cloud(n=30, aspect=5.0)))


def test_basis_accepts_moderately_anisotropic_lattice():
    b1, b2 = detect_basis(*_rescaled(_square_lattice_cloud(n=30, aspect=3.5)))
    assert np.allclose(np.abs(b1), [1e-3, 0.0], atol=1e-12)
    assert np.allclose(np.abs(b2), [0.0, 3.5e-3], atol=1e-12)


def test_basis_ignores_points_far_from_anchor(flat_cloud):
    # a rotated copy of the cloud beside the rectangle adds a second set of
    # difference directions, all of it far from the anchor
    u, ua = _rescaled(flat_cloud)
    c, s = np.cos(0.5), np.sin(0.5)
    far = (u - ua) @ np.array([[c, s], [-s, c]]) + ua + np.array([2.5 * flat_cloud.rectangle.half[0], 0.0])
    for got, want in zip(detect_basis(np.concatenate([u, far]), ua), detect_basis(u, ua)):
        assert np.array_equal(got, want)


def test_labels_perfect_lattice_zero_residual():
    cloud = _square_lattice_cloud()
    u, anchor = _rescaled(cloud)
    _, labeled, _ = label_lattice(u, detect_basis(u, anchor), cloud.rectangle)
    assert np.all(labeled)
    assert np.max(fit_hchart(cloud).residuals) < 1e-9


def _gauge_between(k_a, k_b):
    """Solve k_b = M k_a + c; return (M, c) and the exactness flag."""
    X = np.hstack([k_a, np.ones((len(k_a), 1))])
    sol, *_ = np.linalg.lstsq(X, k_b.astype(float), rcond=None)
    M = sol[:2].T
    c = sol[2]
    exact = np.allclose(M, np.rint(M), atol=1e-6) and np.allclose(c, np.rint(c), atol=1e-6)
    Mi, ci = np.rint(M).astype(int), np.rint(c).astype(int)
    pred = k_a @ Mi.T + ci
    return Mi, ci, exact and np.array_equal(pred, k_b)


def test_labels_match_k_true_up_to_gauge(flat_cloud):
    u, anchor = _rescaled(flat_cloud)
    labels, labeled, _ = label_lattice(u, detect_basis(u, anchor), flat_cloud.rectangle)
    assert np.all(labeled)
    M, c, exact = _gauge_between(flat_cloud.k_true, labels)
    assert exact
    assert abs(round(float(np.linalg.det(M)))) == 1


def test_label_gauge_freedom_between_anchors(flat_cloud):
    u, anchor = _rescaled(flat_cloud)
    basis = detect_basis(u, anchor)
    rect = flat_cloud.rectangle
    labels1 = label_lattice(u, basis, rect)[0]
    labels2 = label_lattice(u, basis, Rect(anchor + [0.6 * rect.half[0], 0.0], rect.half))[0]
    M, c, exact = _gauge_between(labels1, labels2)
    assert exact


def test_label_conflict_detected(flat_cloud):
    u, anchor = _rescaled(flat_cloud)
    basis = detect_basis(u, anchor)
    # corrupt the geometry: collapse two distant points onto nearly the same
    # position so any consistent labeling must assign duplicate labels
    u[-1] = u[0] + [1e-9, 0.0]
    with pytest.raises(DetectionError, match="duplicate integer labels") as exc:
        label_lattice(u, basis, flat_cloud.rectangle)
    assert exc.value.reason == "label_conflict"


def test_label_conflict_detected_negative_labels(flat_cloud):
    # the duplicated label is negative on both axes relative to the anchor
    u, anchor = _rescaled(flat_cloud)
    basis = detect_basis(u, anchor)
    k = label_lattice(u, basis, flat_cloud.rectangle)[0]
    neg = np.flatnonzero((k[:, 0] < 0) & (k[:, 1] < 0))
    i, j = neg[np.argmin(k[neg].sum(axis=1))], neg[np.argmax(k[neg].sum(axis=1))]
    u[j] = u[i] + [1e-9, 0.0]
    with pytest.raises(DetectionError, match="duplicate integer labels"):
        label_lattice(u, basis, flat_cloud.rectangle)


def _label_lattice_reference(u, basis, anchor):
    """``label_lattice`` as first written: a full least-squares refit and a
    prediction over every point per growth round, and a lexsort for
    distinct labels.  Kept as the reference the seed and two predictions must match."""
    n = len(u)
    b1, b2 = basis
    Binv = np.linalg.inv(np.column_stack([b1, b2]))
    i0 = int(np.argmin(np.linalg.norm(u - anchor, axis=1)))
    u0 = u[i0]
    labels = np.zeros((n, 2), dtype=np.int64)
    labeled = np.zeros(n, dtype=bool)
    labeled[i0] = True
    seed_r = 4.5 * max(np.linalg.norm(b1), np.linalg.norm(b2))
    d0 = np.linalg.norm(u - u0, axis=1)
    kf = (u - u0) @ Binv.T
    kr = np.rint(kf).astype(np.int64)
    res = np.max(np.abs(kf - kr), axis=1)
    seed = (d0 <= seed_r) & (res <= 0.25)
    labels[seed] = kr[seed]
    labeled |= seed
    scale = np.maximum(u.max(axis=0) - u.min(axis=0), 1e-300) / 2.0
    X = _features((u - u0) / scale)
    for _ in range(200):
        if labeled.sum() < 8:
            break
        C, _, rank, _ = np.linalg.lstsq(X[labeled], labels[labeled].astype(float), rcond=None)
        if rank < X.shape[1] and labeled.sum() >= 12:
            raise DetectionError("labeling fit is rank deficient", "too_few_points")
        pred = X @ C
        back = np.rint(pred[labeled]).astype(np.int64)
        if np.any(back != labels[labeled]):
            raise DetectionError("label conflict: refit disagrees with assigned labels", "label_conflict")
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
        labeled[ci] = True
    if labeled.sum() < n:
        frac = 1.0 - labeled.sum() / n
        if frac > MAX_UNLABELED:
            raise DetectionError(f"unlabeled fraction {frac:.3f} exceeds {MAX_UNLABELED}", "unlabeled_fraction")
    k = labels[labeled]
    k = k[np.lexsort((k[:, 1], k[:, 0]))]
    if np.any(np.all(k[1:] == k[:-1], axis=1)):
        raise DetectionError("label conflict: duplicate integer labels", "label_conflict")
    return labels, labeled


def _label_outcome(label, *args):
    """``(labels, labeled)``, or the message of the ``DetectionError`` raised."""
    try:
        return label(*args)[:2]
    except DetectionError as exc:
        return f"[{exc.reason}] {exc}"


def _assert_labels_match_reference(u, basis, rect):
    got = _label_outcome(label_lattice, u, basis, rect)
    want = _label_outcome(_label_lattice_reference, u, basis, rect.center)
    if isinstance(want, str):
        assert got == want
    else:
        assert not isinstance(got, str), got
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    return want


def test_label_lattice_matches_reference_fine_flat_cloud(flat_setup):
    _, chart, a = flat_setup
    params = SemiclassicalParams(h=2.5e-4, delta=0.5, noise_order=3, seed=42)
    cloud = _cloud(NormalFormSymbol(chart, default_higher_coeffs()), a, params)
    assert len(cloud) > 3000
    u, anchor = _rescaled(cloud)
    _, labeled = _assert_labels_match_reference(u, detect_basis(u, anchor), cloud.rectangle)
    assert np.all(labeled)


def test_label_lattice_matches_reference_champagne_cloud(champ_setup):
    _, chart, a = champ_setup
    cloud = _cloud(NormalFormSymbol(chart, default_higher_coeffs()), a)
    u, anchor = _rescaled(cloud)
    _, labeled = _assert_labels_match_reference(u, detect_basis(u, anchor), cloud.rectangle)
    assert np.all(labeled)


def test_label_lattice_matches_reference_wide_cloud(champ_setup):
    # the widest champagne rectangle whose chart passes the residual limit
    # at h = 1e-4: 199 lattice spacings in half-width, 65 516 points
    _, chart, a = champ_setup
    params = SemiclassicalParams(h=1e-4, delta=0.35, noise_order=3, seed=42)
    cloud = _cloud(NormalFormSymbol(chart, default_higher_coeffs()), a, params)
    assert round(cloud.rectangle.half[0] / params.h) == 199
    u, anchor = _rescaled(cloud)
    basis = detect_basis(u, anchor)
    _, labeled = _assert_labels_match_reference(u, basis, cloud.rectangle)
    assert np.all(labeled)
    assert fit_hchart(cloud).max_residual() <= RESIDUAL_LIMIT
    # label_lattice solves the normal equations; its worst-conditioned fit,
    # the seed's, stays well within double precision on this widest cloud
    X = label_lattice(u, basis, cloud.rectangle)[2]
    u0 = u[np.argmin(_row_norm(u - cloud.rectangle.center))]
    seed = X[_row_norm(u - u0) <= 4.5 * max(map(np.linalg.norm, basis))]
    assert np.linalg.cond(seed.T @ seed) < 1e8


def test_label_lattice_matches_reference_failures(flat_cloud):
    # a planted duplicate
    u, anchor = _rescaled(flat_cloud)
    basis = detect_basis(u, anchor)
    u[-1] = u[0] + [1e-9, 0.0]
    assert _assert_labels_match_reference(u, basis, flat_cloud.rectangle) == "[label_conflict] label conflict: duplicate integer labels"
    # off-lattice points: the centers of 12 cells of a square lattice stay unlabeled
    h = 1e-3
    square = _square_lattice_cloud()
    u = _rescaled(square)[0]
    u = np.concatenate([u, u[:12] + 0.5 * h])
    msg = _assert_labels_match_reference(u, (np.array([h, 0.0]), np.array([0.0, h])), square.rectangle)
    assert msg == f"[unlabeled_fraction] unlabeled fraction {12 / len(u):.3f} exceeds {MAX_UNLABELED}"
    # 41 points on a diagonal line, collinear up to rounding: the seed's nine
    # points leave the refit underdetermined, the first growth round reaches 21
    b1 = np.array([h, h])
    line = np.array([0.3, 0.15]) + np.arange(-20, 21)[:, None] * b1
    msg = _assert_labels_match_reference(line, (b1, np.array([-h, h])), Rect(line[20], square.rectangle.half))
    assert msg == "[too_few_points] labeling fit is rank deficient"


def test_column_kernels_equal_axis_reductions():
    # the per-point kernels of synthesis and detection work on (n, 2) arrays
    # column by column, and gather rows with compress
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4000, 2)) * 10.0 ** rng.integers(-9, 3, size=(4000, 2))
    assert np.array_equal(_row_norm(x), np.linalg.norm(x, axis=1))
    assert np.array_equal(x[:, 0] * x[:, 0] + x[:, 1] * x[:, 1], np.sum(x**2, axis=1))
    r = np.abs(x)
    assert np.array_equal(np.maximum(r[:, 0], r[:, 1]), np.max(r, axis=1))
    t = x[:, 0], x[:, 1]
    stacked = np.stack([np.ones_like(t[0]), t[0], t[1], t[0] * t[0], t[0] * t[1], t[1] * t[1]], axis=-1)
    assert np.array_equal(_features(x), stacked)
    # the flat model's value sums the two squares, as synthesis computes it
    m = make_flat_model((1.0, 0.7))
    p = x @ m.omega_star + 0.5 * np.sum(x * x, axis=-1)
    assert m.value_from_xi(x).tobytes() == np.stack([p, x[:, 1]], axis=-1).tobytes()
    # compress gathers the same C-ordered rows as boolean indexing
    for mask in (np.ones(len(x), dtype=bool), np.zeros(len(x), dtype=bool), rng.random(len(x)) < 0.5):
        for a in (x, stacked, chi(x, 0.03), np.rint(x).astype(np.int64)):
            got, want = a.compress(mask, axis=0), a[mask]
            assert got.flags.c_contiguous and (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()


def test_fit_hchart_accepts_and_reports(flat_cloud, flat_setup):
    _, chart, _ = flat_setup
    hc = fit_hchart(flat_cloud)
    assert hc.labeled_fraction == 1.0
    assert hc.max_residual() <= 0.05
    assert abs(np.linalg.det(hc.affine)) > 0
    M, _ = gauge_alignment(hc, chart)
    assert abs(round(float(np.linalg.det(M)))) == 1
    # fitted map sends points to h * labels within the residual bound
    pred = hc.f(hc.u)
    assert np.max(np.linalg.norm(pred - hc.h * hc.labels, axis=1)) <= 0.05 * hc.h


def test_affine_is_the_feature_jacobian_at_the_center(flat_cloud, champ_setup):
    # the fit's affine part is read off its linear coefficients, which is
    # what _feature_jac returns at the rectangle's center, bit for bit
    _, chart, a = champ_setup
    for cloud in (flat_cloud, _cloud(NormalFormSymbol(chart, default_higher_coeffs()), a)):
        hc = fit_hchart(cloud)
        assert hc.affine.tobytes() == _feature_jac(hc.coeffs, np.zeros(2), hc.rectangle.half).tobytes()


def test_fit_hchart_partial_labeling():
    # points at the centers of five lattice cells stay unlabeled (5 of 630,
    # under MAX_UNLABELED); the fit is least squares over the labeled points
    h = 1e-3
    cloud = _square_lattice_cloud(h=h, n=25)
    u, anchor = _rescaled(cloud)
    u = np.concatenate([u, u[:5] + 0.5 * h])
    partial = SpectrumCloud(chi(u, cloud.params.epsilon), None, cloud.params, cloud.rectangle)
    hc = fit_hchart(partial)
    u, rect = chi_inverse(partial.points, cloud.params.epsilon), cloud.rectangle
    labels, m, _ = label_lattice(u, detect_basis(u, anchor), rect)
    assert np.count_nonzero(~m) == 5 and hc.labeled_fraction == float(np.mean(m)) == 625 / 630
    X = _features((u[m] - rect.center) / rect.half)
    target = h * labels[m].astype(float)
    C = np.linalg.lstsq(X, target, rcond=None)[0]
    assert hc.u.tobytes() == u[m].tobytes()
    assert hc.labels.tobytes() == labels[m].tobytes()
    assert hc.coeffs.tobytes() == C.tobytes()
    assert hc.residuals.tobytes() == (_row_norm(X @ C - target) / h).tobytes()


@pytest.fixture(scope="module")
def flat_square_loop(flat_setup):
    """The acceptance flat square at seed 0: its params, centers and 76
    elements, and each element's cloud and fit, made again from it."""
    model = flat_setup[0]
    params = SemiclassicalParams(h=1e-3, delta=0.5, noise_order=3, seed=0)
    dio = DiophantineParams(alpha=1e-3, d=1.0, k_max=500)
    centers = _cover(model, np.array([(0.30, 0.10), (0.42, 0.10), (0.42, 0.22), (0.30, 0.22)]), params)
    elements = spectral_chart_at(model, centers, params, dio)
    return params, dio, centers, elements, [(el.cloud, el.hchart) for el in elements]


def test_label_lattice_matches_reference_on_a_loop(flat_square_loop):
    # every cloud of the acceptance flat square at seed 0: the labels the
    # chart fits use, and label_lattice's own, are the reference's
    *_, elements, rebuilt = flat_square_loop
    assert len(elements) == 76
    for cloud, hc in rebuilt:
        labels, labeled = _assert_labels_match_reference(_rescaled(cloud)[0], hc.basis, cloud.rectangle)
        assert np.all(labeled) and hc.labeled_fraction == 1.0
        assert np.array_equal(hc.labels, labels)


def test_rebuilt_clouds_and_fits_equal_the_batch(flat_square_loop):
    # an element keeps no per-point array: its cloud and fit are made again
    # from its symbol and rectangle on first access, kept, and must be the
    # loop's, bit for bit
    params, _, _, elements, rebuilt = flat_square_loop
    batch = list(_synth_clouds([el.symbol for el in elements], [el.rectangle for el in elements], params))
    for el, (cloud, hc), row in zip(elements, rebuilt, batch):
        ref = fit_hchart(row.without_labels())
        assert cloud.points.tobytes() == row.points.tobytes()
        assert cloud.k_true.tobytes() == row.k_true.tobytes()
        for f in ("u", "labels", "residuals", "coeffs"):
            assert getattr(hc, f).tobytes() == getattr(ref, f).tobytes()
        assert cloud.rectangle is hc.rectangle is el.rectangle
        assert el.cloud is cloud and el.hchart is hc
        # the kept fields are the fit's
        assert el.coeffs.tobytes() == ref.coeffs.tobytes()
        assert (el.max_residual, el.labeled_fraction) == (ref.max_residual(), ref.labeled_fraction)


def test_cocycle_matrices_equal_pairwise_transitions(flat_square_loop, monkeypatch):
    # cocycle_check evaluates each overlap's two Jacobians once and forms
    # both orders from them: its matrices are transition_matrix's, pair by
    # pair in both orders, bit for bit
    atlas, calls, rounded = _spectral_atlas(flat_square_loop[3]), [], monodromy._rounded

    def record(ii, jj, pre):
        calls.append((ii, jj, pre, rounded(ii, jj, pre)[0]))
        return rounded(ii, jj, pre)

    with monkeypatch.context() as mp:
        mp.setattr(monodromy, "_rounded", record)
        assert cocycle_check(atlas).ok
    ((i, j, pre, M),) = calls
    assert len(i) > 2 * len(atlas) and sorted(zip(i, j)) == sorted(zip(j, i))
    for a, b, p, m in zip(i, j, pre, M):
        (t,) = transition_matrix(atlas, [a], [b])
        assert np.array_equal(t.pre_round, p) and np.array_equal(t.M, m)


def test_detection_error_in_a_later_block_names_the_first_failing_rectangle(flat_setup, flat_square_loop, monkeypatch):
    # clouds are fitted as their synthesis block is made: a failure in a
    # later block names the first failing rectangle in loop order, and no
    # block after it is synthesized
    import pseudolattice.pipeline as pipeline
    import pseudolattice.synth as synth

    params, dio, centers, elements, _ = flat_square_loop
    candidates = synth._candidates
    starts = [int(idx[0]) for idx, *_ in candidates([el.symbol for el in elements], [el.rectangle for el in elements], params)]
    assert len(starts) >= 4
    first = starts[2] + 1  # in the third block, after its first rectangle
    failing = {first, first + 1, starts[-1]}
    blocks, fit, rects = [], pipeline.fit_hchart, []

    def recorded(*args):
        for block in candidates(*args):
            blocks.append(block[0])
            yield block

    def fit_failing(cloud):
        rects.append(cloud.rectangle)
        if len(rects) - 1 in failing:
            raise DetectionError("planted failure", "residual")
        return fit(cloud)

    monkeypatch.setattr(synth, "_candidates", recorded)
    monkeypatch.setattr(pipeline, "fit_hchart", fit_failing)
    with pytest.raises(DetectionError) as exc:
        pipeline.spectral_chart_at(flat_setup[0], centers, params, dio)
    E, G = rects[first].center
    assert exc.value.index == first == len(rects) - 1
    assert str(exc.value) == f"rectangle {first} at ({E:.6g}, {G:.6g}): planted failure"
    assert len(blocks) == 3


@pytest.mark.parametrize("amplitude, accepted", [(0.05, True), (0.3, False)])
def test_fit_hchart_residual_limit(amplitude, accepted):
    # a smooth cubic deformation of the square lattice that still labels in
    # full, as growth labels it; a quadratic chart leaves about 0.45 of its
    # amplitude as residual.  A fit to the seed alone, predicting once,
    # leaves 4 % of the cloud unlabeled at amplitude 0.3
    h = 1e-3
    cloud = _square_lattice_cloud(h=h, n=25)
    u, anchor = _rescaled(cloud)
    u = u + amplitude * h * ((u - anchor) / (12.5 * h))[:, ::-1] ** 3
    deformed = SpectrumCloud(chi(u, cloud.params.epsilon), None, cloud.params, cloud.rectangle)
    _, labeled = _assert_labels_match_reference(u, detect_basis(u, anchor), cloud.rectangle)
    assert np.all(labeled)
    if accepted:
        assert fit_hchart(deformed).max_residual() <= RESIDUAL_LIMIT
    else:
        with pytest.raises(DetectionError, match=r"^chart rejected: max residual 0\.\d{4} > 0\.05 \(units of h\)$") as exc:
            fit_hchart(deformed)
        assert exc.value.reason == "residual"


def test_fit_hchart_large_cloud(flat_setup):
    # the basis comes from a strict subset of the cloud; labels and fit cover all of it
    _, chart, a = flat_setup
    params = SemiclassicalParams(h=2.5e-4, delta=0.5, noise_order=3, seed=42)
    cloud = _cloud(NormalFormSymbol(chart, default_higher_coeffs()), a, params)
    assert len(cloud) > 3000
    hc = fit_hchart(cloud.without_labels())
    assert hc.labeled_fraction == 1.0
    M, c, exact = _gauge_between(cloud.k_true, hc.labels)
    assert exact
    assert abs(round(float(np.linalg.det(M)))) == 1
    assert hc.max_residual() <= 0.05


def test_fit_leading_term_error_bound(flat_setup, champ_setup):
    h, eps = PARAMS.h, PARAMS.epsilon
    bound = 5.0 * (eps + h / eps)
    for m, chart, a in (flat_setup, champ_setup):
        sym = NormalFormSymbol(chart, default_higher_coeffs())
        cloud = _cloud(sym, a)
        hc = fit_hchart(cloud)
        M, c = gauge_alignment(hc, chart)
        r = cloud.rectangle
        gx = np.stack(
            np.meshgrid(np.linspace(-1, 1, 9), np.linspace(-1, 1, 9), indexing="ij"), axis=-1
        ).reshape(-1, 2)
        us = r.center + gx * r.half
        gt = chart.tau_c + chart.xi_of_c(us)
        assert np.max(np.abs(hc.f_tilde0(us, M, c, chart.eta) - gt)) <= bound


def test_f_tilde0_stable_across_rectangles(flat_setup):
    # two overlapping good rectangles in the same chart: leading terms agree
    m, chart, a = flat_setup
    h, eps = PARAMS.h, PARAMS.epsilon
    sym = NormalFormSymbol(chart, default_higher_coeffs())
    a2 = a + np.array([0.008, 0.008])
    hc1 = fit_hchart(_cloud(sym, a))
    hc2 = fit_hchart(_cloud(sym, a2))
    mid = 0.5 * (a + a2)
    gx = mid + 0.002 * np.stack(
        np.meshgrid(np.linspace(-1, 1, 5), np.linspace(-1, 1, 5), indexing="ij"), axis=-1
    ).reshape(-1, 2)
    f1, f2 = (hc.f_tilde0(gx, *gauge_alignment(hc, chart), chart.eta) for hc in (hc1, hc2))
    d = np.max(np.abs(f1 - f2))
    assert d <= 5.0 * (eps + h / eps)


def test_exact_cloud_oracle_chart_is_machine_precision(flat_setup):
    # the exact leading-term map sends every exact eigenvalue to h Z^2
    m, chart, a = flat_setup
    sym = NormalFormSymbol(chart, {})
    cloud = _cloud(sym, a, CLEAN)
    u = chi_inverse(cloud.points, PARAMS.epsilon)
    f = chart.tau_c + PARAMS.h * chart.eta / 4.0 + chart.xi_of_c(u)
    assert np.max(np.abs(f - PARAMS.h * cloud.k_true)) < 1e-10 * max(
        1.0, float(np.max(np.abs(cloud.k_true)))
    )


def test_spectrum_plot_draws_one_lattice_line_per_label_value(flat_setup, champ_setup):
    # each polyline joins the frame images of the labeled points with one
    # value of one label, in order along the other label
    for m, chart, a in (flat_setup, champ_setup):
        cloud = _cloud(NormalFormSymbol(chart, default_higher_coeffs()), a)
        hc = fit_hchart(cloud)
        svg = plot_spectrum(cloud, hc)
        drawn = re.findall(r'<polyline points="([^"]*)"', svg)
        px, py = _Frame(cloud.points.real, cloud.points.imag)(hc.u[:, 0], hc.epsilon * hc.u[:, 1])
        expected = []
        for axis in (0, 1):
            values = np.unique(hc.labels[:, axis])
            assert len(values) > 10
            for v in values:
                on = np.flatnonzero(hc.labels[:, axis] == v)
                on = on[np.argsort(hc.labels[on, 1 - axis])]
                expected.append(" ".join(f"{px[i]:.3f},{py[i]:.3f}" for i in on))
        assert drawn == expected
        assert svg.count("<circle") == len(cloud)


def test_hchart_serialization(flat_cloud):
    hc = fit_hchart(flat_cloud)
    text = hc.to_text()
    assert text.startswith("[h-chart]")
    rows = [l for l in text.splitlines() if "\t" in l and not l.startswith("#")]
    assert len(rows) == len(hc.labels)


def test_invert_leading_round_trip(flat_setup, champ_setup):
    for m, chart, a in (flat_setup, champ_setup):
        xi_star = chart.xi_of_c(a) + np.array([0.003, -0.002])
        target = chart.phi(xi_star)
        got = invert_leading(chart, target)
        assert np.max(np.abs(got - xi_star)) < 1e-13


def test_invert_leading_is_the_chart_map(flat_setup, champ_setup):
    # phi's inverse is the chart map itself, bit for bit, one target or many
    for m, chart, a in (flat_setup, champ_setup):
        targets = chart.domain.grid(5)
        assert invert_leading(chart, targets).tobytes() == chart.xi_of_c(targets).tobytes()
        assert invert_leading(chart, a).tobytes() == chart.xi_of_c(a).tobytes()


def _feature_jac_reference(coeffs, t, scale):
    """The feature-derivative matrices times the coefficients, as a product."""
    n = len(t)
    zero, one = np.zeros(n), np.ones(n)
    dt1 = np.stack([zero, one, zero, 2 * t[:, 0], t[:, 1], zero], axis=-1)
    dt2 = np.stack([zero, zero, one, zero, t[:, 0], 2 * t[:, 1]], axis=-1)
    return np.stack([dt1 @ coeffs / scale[0], dt2 @ coeffs / scale[1]], axis=-1)


def test_feature_jac_matches_product_form():
    rng = np.random.default_rng(6)
    coeffs, scale = rng.standard_normal((6, 2)), np.array([3e-3, 2e-3])
    t = rng.uniform(-1.0, 1.0, size=(500, 2))
    J, ref = _feature_jac(coeffs, t, scale), _feature_jac_reference(coeffs, t, scale)
    # the closed form sums three terms where the product sums six: a few ulps
    assert np.allclose(J, ref, rtol=0.0, atol=8 * np.finfo(float).eps * np.max(np.abs(ref)))
    # at the center it is exactly the linear coefficients (the chart's affine part)
    center = np.zeros((1, 2))
    assert _feature_jac(coeffs, center, scale).tobytes() == _feature_jac_reference(coeffs, center, scale).tobytes()


def _direction_peak_reference(vs, ang, ang_tol=0.15):
    """``_direction_peak`` with the wrap-around smoothing by ``np.roll``."""
    nb = 60
    idx = np.minimum((ang / math.pi * nb).astype(int), nb - 1)
    hist = np.bincount(idx, minlength=nb)
    smooth = hist + np.roll(hist, 1) + np.roll(hist, -1)
    theta = (np.argmax(smooth) + 0.5) * math.pi / nb
    dist = np.abs(np.mod(ang - theta + math.pi / 2, math.pi) - math.pi / 2)
    members = vs[dist < max(ang_tol, 1.5 * math.pi / nb)]
    direction = np.array([math.cos(theta), math.sin(theta)])
    return (members * np.sign(members @ direction)[:, None]).mean(axis=0)


@pytest.mark.parametrize("center", [0.0, 0.02, 1.5, np.pi - 0.02])
def test_direction_peak_matches_roll_smoothing(center):
    # clusters at both ends of [0, pi) test the wrap-around
    rng = np.random.default_rng(9)
    ang = np.mod(center + 0.03 * rng.standard_normal(300), np.pi)
    ang = np.concatenate([ang, rng.uniform(0.0, np.pi, 100)])
    vs = np.stack([np.cos(ang), np.sin(ang)], axis=-1) * rng.uniform(0.5, 1.0, (400, 1))
    assert _direction_peak(vs, ang).tobytes() == _direction_peak_reference(vs, ang).tobytes()
