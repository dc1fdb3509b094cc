from dataclasses import replace

import numpy as np
import pytest

from pseudolattice.averaging import torus_average
from pseudolattice.models import ParameterError, Rect, _frequencies_at, action_coords, make_champagne_model, make_flat_model
from pseudolattice.synth import (
    NormalFormSymbol,
    SemiclassicalParams,
    chi,
    chi_inverse,
    default_higher_coeffs,
    good_rectangle,
    spectral_band,
    synth_spectrum,
)

PARAMS = SemiclassicalParams(h=1e-3, delta=0.5, noise_order=3, seed=42)


def _symbol(sym, xi, eps, h):
    """The full symbol at the actions ``xi``: the leading term ``chi(phi(xi))`` plus the corrections."""
    return chi(sym.chart.phi(xi), eps) + sym.correction(xi, eps, h)


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
def champ_setup():
    m = make_champagne_model(1.0)
    a = np.array([0.3, 0.15])
    return m, action_coords(m, a), a


def test_params_validation():
    with pytest.raises(ValueError):
        SemiclassicalParams(h=0.5, delta=0.5)
    with pytest.raises(ValueError):
        SemiclassicalParams(h=1e-3, delta=1.5)
    with pytest.raises(ValueError):
        SemiclassicalParams(h=1e-3, delta=0.5, noise_order=0)
    with pytest.raises(ValueError, match="non-negative"):
        SemiclassicalParams(h=1e-3, delta=0.5, seed=-1)
    with pytest.raises(ValueError):
        # eps/h = h^(delta-1) too close to 1: scales not separated
        SemiclassicalParams(h=0.09, delta=0.9)
    assert PARAMS.epsilon == pytest.approx(1e-3**0.5)


@pytest.mark.parametrize(
    "kwargs, key",
    [
        ({"h": float("nan"), "delta": 0.5}, "h"),
        ({"h": 1e-3, "delta": float("nan")}, "delta"),
        ({"h": 0.1, "delta": 0.9}, "delta"),  # eps/h = h^(delta - 1) = 1.26
        ({"h": 1e-3, "delta": 0.5, "noise_order": 0}, "noise_order"),
        ({"h": 1e-3, "delta": 0.5, "seed": -1}, "seed"),
        ({"h": 1e-3, "delta": 0.5, "seed": 2**64}, "seed"),  # np.uint64 overflows in the noise seed
        ({"h": 1e-3, "delta": 0.5, "C0": float("nan")}, "C0"),
        ({"h": 1e-3, "delta": 0.5, "C0": 0.5}, "C0"),
        ({"h": 1e-3, "delta": 0.5, "C0": float("inf")}, "C0"),
    ],
    ids=["h-nan", "delta-nan", "scales-not-separated", "noise_order-zero", "seed-negative", "seed-2^64", "C0-nan", "C0-half", "C0-inf"],
)
def test_params_errors_name_their_key(kwargs, key):
    with pytest.raises(ValueError, match=key) as exc:
        SemiclassicalParams(**kwargs)
    assert exc.value.key == key


def test_good_rectangle_geometry():
    # a square in the value plane; chi carries it onto a window eps times
    # as high as wide
    r = good_rectangle((0.0, 0.0), replace(PARAMS, C0=1.0), 1.0)
    assert np.array_equal(r.center, [0.0, 0.0])
    assert r.half[0] == pytest.approx(0.0316227766, abs=1e-6)
    assert PARAMS.epsilon * r.half[1] == pytest.approx(1e-3, rel=1e-12)
    assert r.half[1] == r.half[0]
    r10 = good_rectangle((0.0, 0.0), replace(PARAMS, C0=10.0), 1.0)
    assert r10.half[0] == pytest.approx(r.half[0] / 10.0)
    assert r10.half[1] == pytest.approx(r.half[1] / 10.0)
    quarter = SemiclassicalParams(h=2.5e-4, delta=0.5, seed=1, C0=1.0)
    assert good_rectangle((0.0, 0.0), quarter, 1.0).half[0] == pytest.approx(r.half[0] / 2.0)
    # C0 = 2 by default; a rectangle that would leave the chart is capped at
    # 0.8 chart radius
    assert np.array_equal(good_rectangle((0.0, 0.0), PARAMS, 1.0).half, [r.half[0] / 2.0] * 2)
    assert np.array_equal(good_rectangle((0.0, 0.0), PARAMS, 0.015).half, [0.8 * 0.015] * 2)
    # centered on the good value itself, bit for bit
    a = np.array([0.3, 0.1 + 0.2])
    assert good_rectangle(a, PARAMS, 1.0).center.tobytes() == a.tobytes()


def test_good_rectangle_rejects_bad_value():
    # the parameter block owns C0 and checks it
    for C0 in (0.5, float("nan"), float("inf")):
        with pytest.raises(ParameterError, match="C0") as exc:
            replace(PARAMS, C0=C0)
        assert exc.value.key == "C0"


def test_coefficient_table_validation(flat_setup):
    _, chart, _ = flat_setup
    with pytest.raises(ValueError):
        NormalFormSymbol(chart, {(0, 0, 1, 0): 0.1})  # would pollute the leading term
    with pytest.raises(ValueError):
        NormalFormSymbol(chart, {(0, 0, 0, 1): 0.1j})  # j=0 must be real
    with pytest.raises(ValueError):
        NormalFormSymbol(chart, {(2, 1, 0, 1): 0.1})  # total degree 4
    NormalFormSymbol(chart, default_higher_coeffs())  # defaults are valid


def test_symbol_real_at_eps_zero(flat_setup):
    _, chart, _ = flat_setup
    sym = NormalFormSymbol(chart, default_higher_coeffs())
    xi = chart.grid_xi[:5]
    vals = _symbol(sym, xi, 0.0, PARAMS.h)
    assert np.max(np.abs(vals.imag)) == 0.0


def _brute_force_labels(chart, sym, rect, params):
    # every label whose actions lie in the chart's action box grown by 5h,
    # each mapped through the full symbol
    h, eps = params.h, params.epsilon
    box = chart.xi_box
    kb = (np.stack([box.center - box.half, box.center + box.half]) + chart.tau_c) / h + chart.eta / 4.0
    lo, hi = np.floor(kb[0]).astype(int) - 5, np.ceil(kb[1]).astype(int) + 5
    k1, k2 = np.meshgrid(np.arange(lo[0], hi[0] + 1), np.arange(lo[1], hi[1] + 1), indexing="ij")
    k = np.stack([k1.ravel(), k2.ravel()], axis=-1)
    xi = h * (k - chart.eta / 4.0) - chart.tau_c
    ok = chart.xi_box.contains(xi, margin=5 * h)
    return k[ok][rect.contains(chi_inverse(_symbol(sym, xi[ok], eps, h), eps))]


def test_exact_cloud_count_matches_brute_force(flat_setup, champ_setup):
    # synthesis inverts only the labels its preimage filter keeps; the kept
    # labels must be exactly those of the full enumeration, on a flat, a
    # sheared champagne and a plain champagne chart, without and with the
    # higher-order corrections, also at 50 times their size (which move
    # points across the rectangle's edges by several lattice rows)
    m = make_champagne_model(1.0)
    sheared = (m, action_coords(m, np.array([0.3, 0.0])), np.array([0.3, 0.0]))
    assert sheared[1].shear == 1
    fifty = {key: 50 * c for key, c in default_higher_coeffs().items()}
    for _, chart, a in (flat_setup, sheared, champ_setup):
        for coeffs in ({}, default_higher_coeffs(), fifty):
            sym = NormalFormSymbol(chart, coeffs)
            cloud = _cloud(sym, a, CLEAN)
            assert len(cloud) > 100
            assert np.array_equal(cloud.k_true, _brute_force_labels(chart, sym, cloud.rectangle, PARAMS))


def test_exact_cloud_oracle_labeling(flat_setup):
    # applying the exact leading-term inverse recovers h*(k - eta/4) - tau_c
    m, chart, a = flat_setup
    sym = NormalFormSymbol(chart, {})
    cloud = _cloud(sym, a, CLEAN)
    u = np.stack([cloud.points.real, cloud.points.imag / PARAMS.epsilon], axis=-1)
    kf = chart.xi_of_c(u) / PARAMS.h + chart.eta / 4.0 + chart.tau_c / PARAMS.h
    assert np.max(np.abs(kf - cloud.k_true)) < 1e-9  # 1e-12 relative to k ~ O(1e3)


def test_cloud_spacing(flat_setup):
    # horizontal gaps ~ h * dp/dxi1, vertical gaps ~ eps*h * d<q>/dxi2
    m, chart, a = flat_setup
    sym = NormalFormSymbol(chart, {})
    cloud = _cloud(sym, a, CLEAN)
    k = cloud.k_true
    mu = cloud.points
    omega = _frequencies_at(m, chart.phi(chart.xi_of_c(a)), chart.shear)[0]
    # neighbors along the k1 direction on the same row
    order = np.lexsort((k[:, 0], k[:, 1]))
    ks, mus = k[order], mu[order]
    same_row = (np.diff(ks[:, 1]) == 0) & (np.diff(ks[:, 0]) == 1)
    gaps = np.diff(mus.real)[same_row]
    assert np.allclose(gaps, PARAMS.h * omega[0], rtol=0.05)
    order = np.lexsort((k[:, 1], k[:, 0]))
    ks, mus = k[order], mu[order]
    same_col = (np.diff(ks[:, 0]) == 0) & (np.diff(ks[:, 1]) == 1)
    vgaps = np.diff(mus.imag)[same_col]
    # <q> = xi_2 for this model: d<q>/dxi2 = 1
    assert np.allclose(vgaps, PARAMS.epsilon * PARAMS.h, rtol=0.05)


def test_cloud_injectivity_and_containment(champ_setup):
    m, chart, a = champ_setup
    sym = NormalFormSymbol(chart, default_higher_coeffs())
    cloud = _cloud(sym, a)
    assert len(set(map(tuple, cloud.k_true))) == len(cloud)
    assert len(set(cloud.points.tolist())) == len(cloud)
    assert np.all(cloud.rectangle.contains(chi_inverse(cloud.points, PARAMS.epsilon)))


def test_cloud_determinism(champ_setup):
    m, chart, a = champ_setup
    sym = NormalFormSymbol(chart, default_higher_coeffs())
    c1 = _cloud(sym, a)
    c2 = _cloud(sym, a)
    assert np.array_equal(c1.points, c2.points)
    assert np.array_equal(c1.k_true, c2.k_true)
    c3 = _cloud(sym, a, SemiclassicalParams(h=1e-3, delta=0.5, seed=43))
    assert not np.array_equal(c1.points, c3.points)


def test_noise_magnitude(champ_setup):
    m, chart, a = champ_setup
    sym = NormalFormSymbol(chart, {})
    clean = _cloud(sym, a, CLEAN)
    noisy = _cloud(sym, a)
    # same lattice points, perturbed by at most sqrt(2) h^3 each
    common = set(map(tuple, clean.k_true)) & set(map(tuple, noisy.k_true))
    assert len(common) >= len(clean) - 2  # boundary points may drop out
    idx_c = {tuple(k): i for i, k in enumerate(clean.k_true)}
    idx_n = {tuple(k): i for i, k in enumerate(noisy.k_true)}
    for kk in common:
        d = abs(clean.points[idx_c[kk]] - noisy.points[idx_n[kk]])
        assert 0 < d <= np.sqrt(2) * PARAMS.h**3


def test_rectangle_must_fit_chart(champ_setup):
    m, chart, a = champ_setup
    sym = NormalFormSymbol(chart, {})
    big = SemiclassicalParams(h=0.01, delta=0.5, seed=0)
    with pytest.raises(ValueError):
        synth_spectrum(sym, Rect(a, (0.1, 0.1)), big)  # h^delta = 0.1: good_rectangle would cap it


def test_band_constant_q_degenerates():
    m = make_flat_model((1.0, 0.7), "const3")
    chart = action_coords(m, m.value_from_xi(np.array([0.2, 0.1])))
    lo, hi = spectral_band(m, chart, chart.c[0], 0.01, PARAMS, NormalFormSymbol(chart, {}))
    c = 3.0 * PARAMS.epsilon
    noise = PARAMS.h**3
    assert lo == pytest.approx(c - noise, rel=1e-9)
    assert hi == pytest.approx(c + noise, rel=1e-9)


def test_band_xi_weighted_window(flat_setup):
    # <q> = xi_2: leaves in the window map the band onto eps * (xi_2 range),
    # widened by the noise amplitude
    m, chart, a = flat_setup
    lo, hi = spectral_band(m, chart, a[0], 0.005, PARAMS)
    eps, noise, box = PARAMS.epsilon, PARAMS.h**PARAMS.noise_order, chart.xi_box
    assert lo >= eps * (box.center[1] - box.half[1]) - noise - 1e-12
    assert hi <= eps * (box.center[1] + box.half[1]) + noise + 1e-12
    assert lo <= eps * a[1] <= hi


def test_band_without_symbol_keeps_the_noise_margin(flat_setup, champ_setup):
    # every cloud carries h^noise_order noise, symbol or not; a symbol with an
    # empty table adds a zero correction bound
    for m, chart, a in (flat_setup, champ_setup):
        band = spectral_band(m, chart, a[0], 0.005, PARAMS)
        assert band == spectral_band(m, chart, a[0], 0.005, PARAMS, NormalFormSymbol(chart, {}))


def test_band_contains_all_points(flat_setup, champ_setup):
    for m, chart, a in (flat_setup, champ_setup):
        sym = NormalFormSymbol(chart, default_higher_coeffs())
        cloud = _cloud(sym, a)
        lo, hi = spectral_band(m, chart, a[0], cloud.rectangle.half[0], PARAMS, sym)
        assert np.all((cloud.points.imag >= lo) & (cloud.points.imag <= hi))


def test_band_matches_trapezoid_torus_averages(flat_setup, champ_setup):
    # reference: the 64 x 64 trapezoid torus average at every leaf point
    for m, chart, a in (flat_setup, champ_setup):
        sym = NormalFormSymbol(chart, default_higher_coeffs())
        hw = PARAMS.h**PARAMS.delta / 2.0
        xis = chart.xi_box.grid(40)
        on_leaf = np.abs(chart.phi(xis)[..., 0] - a[0]) <= hw
        avgs = np.array([torus_average(m, chart, xi) for xi in xis[on_leaf]])
        margin = sym.imag_correction_bound(PARAMS.epsilon, PARAMS.h) + PARAMS.h**PARAMS.noise_order
        lo, hi = spectral_band(m, chart, a[0], hw, PARAMS, sym)
        assert lo == pytest.approx(PARAMS.epsilon * avgs.min() - margin, rel=0, abs=1e-15)
        assert hi == pytest.approx(PARAMS.epsilon * avgs.max() + margin, rel=0, abs=1e-15)


def test_band_empty_window_raises(flat_setup):
    m, chart, a = flat_setup
    with pytest.raises(ValueError):
        spectral_band(m, chart, 99.0, 1e-4, PARAMS)


def test_to_text_with_and_without_labels(flat_setup):
    m, chart, a = flat_setup
    cloud = _cloud(NormalFormSymbol(chart, {}), a, replace(PARAMS, C0=4.0))
    txt = cloud.to_text()
    rows = [l for l in txt.splitlines() if not l.startswith(("#", "[")) and "=" not in l]
    assert len(rows) == len(cloud)
    assert len(rows[0].split("\t")) == 4
    blind = cloud.without_labels()
    assert blind.k_true is None
    rows_b = [l for l in blind.to_text().splitlines() if not l.startswith(("#", "[")) and "=" not in l]
    assert len(rows_b[0].split("\t")) == 2
    # full-precision round trip
    mu0 = complex(*map(float, rows[0].split("\t")[:2]))
    assert mu0 == cloud.points[0]
    # the value-plane rectangle prints as its spectral window: center
    # E + i eps G and half-sizes hw, eps hw, to full precision
    eps, hw = PARAMS.epsilon, PARAMS.h**PARAMS.delta / 4.0
    head = dict(l.split(" = ") for l in txt.splitlines() if " = " in l)
    assert head["center"] == f"{float(a[0])!r} {eps * float(a[1])!r}"
    assert head["half"] == f"{hw!r} {eps * hw!r}"
