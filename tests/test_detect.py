import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudolattice.detect import (
    DetectionError,
    _gauss_reduce,
    chi,
    chi_inverse,
    detect_basis,
    fit_hchart,
    invert_leading,
    label_lattice,
)
from pseudolattice.models import action_coords, make_champagne_model, make_flat_model
from pseudolattice.synth import (
    NormalFormSymbol,
    SemiclassicalParams,
    SpectrumCloud,
    default_higher_coeffs,
    good_rectangle,
    synth_spectrum,
)

PARAMS = SemiclassicalParams(h=1e-3, delta=0.5, noise_order=3, seed=42)


@pytest.fixture(scope="module")
def flat_setup():
    m = make_flat_model((1.0, 0.7), "xi_weighted")
    a = np.array([0.25, 0.15])
    return m, action_coords(m, a), a


@pytest.fixture(scope="module")
def flat_cloud(flat_setup):
    m, chart, a = flat_setup
    sym = NormalFormSymbol(chart, default_higher_coeffs())
    return synth_spectrum(sym, a, PARAMS, C0=2.0)


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


def _square_lattice_cloud(h=1e-3, eps=0.0316, n=15, seed=0, rows=None, aspect=1.0):
    """``n`` x ``rows`` lattice points ``h (k1, aspect * k2)`` (``rows`` defaults to ``n``)."""
    k1, k2 = np.meshgrid(np.arange(n), np.arange(n if rows is None else rows), indexing="ij")
    u = h * np.stack([k1.ravel(), aspect * k2.ravel()], axis=-1).astype(float)
    pts = chi(u, eps)
    params = SemiclassicalParams(h=h, delta=0.5, seed=seed)
    rect = good_rectangle((h * n / 2, h * n / 2), params, C0=1.0)
    return SpectrumCloud(points=pts, k_true=None, params=params, rectangle=rect)


def test_basis_square_lattice():
    cloud = _square_lattice_cloud(eps=PARAMS.epsilon)
    b1, b2 = detect_basis(cloud)
    B = np.abs(np.column_stack([b1, b2]))
    target = 1e-3 * np.eye(2)
    assert np.allclose(np.sort(B.ravel()), np.sort(target.ravel()), atol=1e-9)


def test_basis_flat_cloud_matches_jacobian(flat_setup):
    m, chart, a = flat_setup
    sym = NormalFormSymbol(chart, {})
    cloud = synth_spectrum(sym, a, PARAMS, C0=2.0, noise=False)
    b1, b2 = detect_basis(cloud)
    # lattice generated by h * columns of d(phi)/d(xi) at the center
    cols = PARAMS.h * np.linalg.inv(chart.d_xi(a))
    got = np.column_stack([b1, b2])
    k = np.linalg.solve(cols, got)
    assert np.allclose(k, np.rint(k), atol=0.01)  # integer combinations, 1% level
    assert abs(abs(np.linalg.det(k)) - 1.0) < 0.05  # same lattice


def test_basis_needs_points():
    cloud = _square_lattice_cloud(n=3)
    with pytest.raises(DetectionError):
        detect_basis(cloud)


def test_basis_rejects_collinear_cloud():
    cloud = _square_lattice_cloud(n=60, rows=1)
    with pytest.raises(DetectionError, match="only one difference direction"):
        detect_basis(cloud)


def test_basis_rejects_anisotropic_lattice():
    # the second direction is sought among differences shorter than 4 |b1|
    with pytest.raises(DetectionError, match="only one difference direction"):
        detect_basis(_square_lattice_cloud(eps=PARAMS.epsilon, n=30, aspect=5.0))


def test_basis_accepts_moderately_anisotropic_lattice():
    b1, b2 = detect_basis(_square_lattice_cloud(eps=PARAMS.epsilon, n=30, aspect=3.5))
    assert np.allclose(np.abs(b1), [1e-3, 0.0], atol=1e-12)
    assert np.allclose(np.abs(b2), [0.0, 3.5e-3], atol=1e-12)


def test_labels_perfect_lattice_zero_residual():
    cloud = _square_lattice_cloud(eps=PARAMS.epsilon)
    basis = detect_basis(cloud)
    res = label_lattice(cloud, basis, cloud.rectangle.center)
    assert np.all(res.labeled)
    assert np.max(res.residuals) < 1e-9


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
    basis = detect_basis(flat_cloud)
    res = label_lattice(flat_cloud, basis, flat_cloud.rectangle.center)
    assert np.all(res.labeled)
    M, c, exact = _gauge_between(flat_cloud.k_true, res.labels)
    assert exact
    assert abs(round(float(np.linalg.det(M)))) == 1


def test_label_gauge_freedom_between_anchors(flat_cloud):
    basis = detect_basis(flat_cloud)
    r = flat_cloud.rectangle
    res1 = label_lattice(flat_cloud, basis, r.center)
    res2 = label_lattice(flat_cloud, basis, r.center + 0.6 * r.half_width)
    M, c, exact = _gauge_between(res1.labels, res2.labels)
    assert exact


def test_label_conflict_detected(flat_cloud):
    basis = detect_basis(flat_cloud)
    # corrupt the geometry: collapse two distant points onto nearly the same
    # position so any consistent labeling must assign duplicate labels
    pts = flat_cloud.points.copy()
    pts[-1] = pts[0] + 1e-9
    bad = SpectrumCloud(pts, None, flat_cloud.params, flat_cloud.rectangle)
    with pytest.raises(DetectionError, match="duplicate integer labels"):
        label_lattice(bad, basis, bad.rectangle.center)


def test_label_conflict_detected_negative_labels(flat_cloud):
    # the duplicated label is negative on both axes relative to the anchor
    basis = detect_basis(flat_cloud)
    k = label_lattice(flat_cloud, basis, flat_cloud.rectangle.center).labels
    neg = np.flatnonzero((k[:, 0] < 0) & (k[:, 1] < 0))
    i, j = neg[np.argmin(k[neg].sum(axis=1))], neg[np.argmax(k[neg].sum(axis=1))]
    pts = flat_cloud.points.copy()
    pts[j] = pts[i] + 1e-9
    bad = SpectrumCloud(pts, None, flat_cloud.params, flat_cloud.rectangle)
    with pytest.raises(DetectionError, match="duplicate integer labels"):
        label_lattice(bad, basis, bad.rectangle.center)


def test_fit_hchart_accepts_and_reports(flat_cloud, flat_setup):
    _, chart, a = flat_setup
    hc = fit_hchart(flat_cloud, a, chart_hint=chart)
    assert hc.labeled_fraction == 1.0
    assert hc.max_residual() <= 0.05
    assert abs(np.linalg.det(hc.affine)) > 0
    assert abs(round(float(np.linalg.det(hc.gauge_M)))) == 1
    # fitted map sends points to h * labels within the residual bound
    pred = hc.f(hc.u)
    assert np.max(np.linalg.norm(pred - hc.h * hc.labels, axis=1)) <= 0.05 * hc.h


def test_fit_leading_term_error_bound(flat_setup, champ_setup):
    h, eps = PARAMS.h, PARAMS.epsilon
    bound = 5.0 * (eps + h / eps)
    for m, chart, a in (flat_setup, champ_setup):
        sym = NormalFormSymbol(chart, default_higher_coeffs())
        cloud = synth_spectrum(sym, a, PARAMS, C0=2.0)
        hc = fit_hchart(cloud, a, chart_hint=chart)
        r = cloud.rectangle
        gx = np.stack(
            np.meshgrid(np.linspace(-1, 1, 9), np.linspace(-1, 1, 9), indexing="ij"), axis=-1
        ).reshape(-1, 2)
        us = np.array([r.center.real, r.center.imag / eps]) + gx * np.array(
            [r.half_width, r.half_height / eps]
        )
        gt = chart.tau_c + chart.xi_of_c(us)
        assert np.max(np.abs(hc.f_tilde0(us) - gt)) <= bound


def test_f_tilde0_stable_across_rectangles(flat_setup):
    # two overlapping good rectangles in the same chart: leading terms agree
    m, chart, a = flat_setup
    h, eps = PARAMS.h, PARAMS.epsilon
    sym = NormalFormSymbol(chart, default_higher_coeffs())
    a2 = a + np.array([0.008, 0.008])
    hc1 = fit_hchart(synth_spectrum(sym, a, PARAMS, C0=2.0), a, chart_hint=chart)
    hc2 = fit_hchart(synth_spectrum(sym, a2, PARAMS, C0=2.0), a2, chart_hint=chart)
    mid = 0.5 * (a + a2)
    gx = mid + 0.002 * np.stack(
        np.meshgrid(np.linspace(-1, 1, 5), np.linspace(-1, 1, 5), indexing="ij"), axis=-1
    ).reshape(-1, 2)
    d = np.max(np.abs(hc1.f_tilde0(gx) - hc2.f_tilde0(gx)))
    assert d <= 5.0 * (eps + h / eps)


def test_exact_cloud_oracle_chart_is_machine_precision(flat_setup):
    # the exact leading-term map sends every exact eigenvalue to h Z^2
    m, chart, a = flat_setup
    sym = NormalFormSymbol(chart, {})
    cloud = synth_spectrum(sym, a, PARAMS, C0=2.0, noise=False)
    u = chi_inverse(cloud.points, PARAMS.epsilon)
    f = chart.tau_c + PARAMS.h * chart.eta / 4.0 + chart.xi_of_c(u)
    assert np.max(np.abs(f - PARAMS.h * cloud.k_true)) < 1e-10 * max(
        1.0, float(np.max(np.abs(cloud.k_true)))
    )


def test_f_inverse_round_trip(flat_cloud, flat_setup):
    _, chart, a = flat_setup
    hc = fit_hchart(flat_cloud, a)
    u0 = np.array([a[0] + 0.004, a[1] - 0.003])
    t = hc.f(u0)
    assert np.max(np.abs(hc.f_inverse(t) - u0)) < 1e-10


def test_f_inverse_unconverged_raises(flat_cloud, flat_setup):
    _, _, a = flat_setup
    hc = fit_hchart(flat_cloud, a)
    t = hc.f(np.array([a[0] + 0.004, a[1] - 0.003]))
    with pytest.raises(DetectionError, match="did not converge in 1 iterations"):
        hc.f_inverse(t, max_iter=1)


def test_f_inverse_stops_at_rounding_floor(flat_cloud, flat_setup):
    # no residual is below tol = 0: Newton stops once its step is rounding noise
    _, _, a = flat_setup
    hc = fit_hchart(flat_cloud, a)
    u0 = np.array([a[0] + 0.004, a[1] - 0.003])
    assert np.max(np.abs(hc.f_inverse(hc.f(u0), tol=0.0) - u0)) < 1e-10


def test_hchart_serialization(flat_cloud, flat_setup):
    _, chart, a = flat_setup
    hc = fit_hchart(flat_cloud, a)
    text = hc.to_text()
    assert text.startswith("[h-chart]")
    rows = [l for l in text.splitlines() if "\t" in l and not l.startswith("#")]
    assert len(rows) == len(hc.labels)


def test_invert_leading_round_trip(flat_setup, champ_setup):
    for m, chart, a in (flat_setup, champ_setup):
        xi_star = chart.xi_of_c(a) + np.array([0.003, -0.002])
        target = chart.phi(xi_star)
        got = invert_leading(chart, target)
        assert np.max(np.abs(got - xi_star)) < 1e-10


def test_invert_leading_flat_is_fast(flat_setup):
    # phi is close to affine over the chart: a couple of Newton steps converge
    m, chart, a = flat_setup
    target = np.asarray(a, dtype=float)
    got = invert_leading(chart, target, max_iter=5)
    assert np.max(np.abs(chart.phi(got) - target)) < 1e-12
