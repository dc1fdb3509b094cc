import math

import numpy as np
import pytest

from pseudolattice.diophantine import (
    DiophantineParams,
    _margins,
    bad_measure_estimate,
    diophantine_margin,
    good_values,
    is_diophantine,
    is_good_value,
)
from pseudolattice.models import GOLDEN, action_coords, make_champagne_model, make_flat_model


def brute_margin(omega, params):
    """Full O(k_max^2) sweep, the oracle for the reduced candidate sweep."""
    km = params.k_max
    k1, k2 = np.meshgrid(np.arange(-km, km + 1), np.arange(-km, km + 1), indexing="ij")
    k = np.stack([k1.ravel(), k2.ravel()], axis=-1).astype(float)
    nk = np.linalg.norm(k, axis=1)
    ok = (nk > 0) & (nk <= km)
    vals = np.abs(k[ok] @ np.asarray(omega)) * nk[ok] ** (1.0 + params.d)
    return float(vals.min())


def test_params_validation():
    with pytest.raises(ValueError):
        DiophantineParams(alpha=0.0)
    with pytest.raises(ValueError):
        DiophantineParams(alpha=0.1, d=-1.0)
    with pytest.raises(ValueError):
        DiophantineParams(alpha=0.1, k_max=10)


def test_margin_matches_brute_force():
    params = DiophantineParams(alpha=1e-3, d=1.0, k_max=100)
    rng = np.random.default_rng(5)
    omegas = rng.uniform(-2.0, 2.0, size=(25, 2))
    margins, _ = _margins(omegas, params)
    for w, m in zip(omegas, margins):
        assert m == pytest.approx(brute_margin(w, params), rel=1e-12)


def test_resonant_frequency_detected():
    params = DiophantineParams(alpha=1e-3, d=1.0, k_max=500)
    margin, k = diophantine_margin((1.0, 2.0), params)
    assert margin == pytest.approx(0.0, abs=1e-12)
    assert abs(k[0] * 1.0 + k[1] * 2.0) < 1e-12
    margin_axis, k_axis = diophantine_margin((0.0, 1.0), params)
    assert margin_axis == 0.0 and k_axis == (1, 0)
    margin_axis, k_axis = diophantine_margin((1.0, 0.0), params)
    assert margin_axis == 0.0 and k_axis == (0, 1)


def test_golden_ratio_is_diophantine():
    params = DiophantineParams(alpha=0.5, d=1.0, k_max=10_000)
    margin, _ = diophantine_margin((1.0, GOLDEN), params)
    assert margin == pytest.approx(1.0, abs=1e-12)  # minimized at k = (1, 0)
    assert is_diophantine((1.0, GOLDEN), params)
    assert not is_diophantine((1.0, 0.5), params)


def test_zero_frequency_rejected():
    with pytest.raises(ValueError):
        diophantine_margin((0.0, 0.0), DiophantineParams(alpha=0.1))


def test_good_values_flat_chart():
    m = make_flat_model((1.0, GOLDEN), "xi_weighted")
    chart = action_coords(m, np.array([0.25, 0.15]))
    params = DiophantineParams(alpha=1e-3, d=1.0, k_max=500)
    gv = good_values(m, chart, params, 8)
    assert gv.grid.shape == (64, 2)
    assert gv.good_fraction > 0.9
    text = gv.to_text()
    assert text.splitlines()[0].startswith("# E")
    assert len(text.splitlines()) == 65


def test_good_values_rejects_outside_grid():
    m = make_flat_model((1.0, GOLDEN), "xi_weighted")
    chart = action_coords(m, np.array([0.25, 0.15]))
    params = DiophantineParams(alpha=1e-3, k_max=500)
    with pytest.raises(ValueError):
        good_values(m, chart, params, np.array([[5.0, 5.0]]))


def test_is_good_value_champagne():
    m = make_champagne_model(1.0)
    chart = action_coords(m, np.array([0.3, 0.15]))
    params = DiophantineParams(alpha=1e-3, d=1.0, k_max=500)
    assert is_good_value(m, chart, (0.3, 0.15), params)


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
