import math

import numpy as np
import pytest

from pseudolattice import averaging
from pseudolattice.averaging import time_average, torus_average
from pseudolattice.models import GOLDEN, action_coords, make_champagne_model, make_flat_model

COS_X1 = lambda x, xi: np.cos(x[..., 0])
COS_X2 = lambda x, xi: np.cos(x[..., 1])
CONST3 = lambda x, xi: np.full(x.shape[:-1], 3.0)


def _chart_at_origin(q_symbol, omega_star=(1.0, GOLDEN)):
    # the flat model's charts do not depend on its symbol
    m = make_flat_model(omega_star)
    m.q_symbol = q_symbol
    c = m.value_from_xi(np.zeros(2))
    return m, action_coords(m, c)


def test_torus_average_zero_mean_harmonic():
    m, ch = _chart_at_origin(COS_X1)
    assert torus_average(m, ch, np.zeros(2)) == pytest.approx(0.0, abs=1e-12)


def test_torus_average_constant():
    m, ch = _chart_at_origin(CONST3)
    assert torus_average(m, ch, np.zeros(2)) == 3.0


def test_torus_average_xi_weighted():
    m = make_flat_model((1.0, 0.7), "xi_weighted")
    ch = action_coords(m, m.value_from_xi(np.array([0.2, 0.5])))
    assert torus_average(m, ch, np.array([0.2, 0.5])) == pytest.approx(0.5, abs=1e-12)
    # the value plane's G is the torus average of the perturbation, which is
    # what spectral_band reads off the chart map: phi(xi)[1] at every action
    # of the box, flat and champagne, the sheared chart at (0.3, 0) among them
    champ = make_champagne_model()
    cases = [(m, ch.c, 0), (champ, (0.3, 0.15), 0), (champ, (0.3, 0.0), 1), (champ, (0.05, 0.02), 0), (champ, (-0.15, 0.05), 0)]
    for model, c, shear in cases:
        chart = action_coords(model, np.array(c))
        assert chart.shear == shear
        for xi in chart.xi_box.grid(5):
            assert torus_average(model, chart, xi) == pytest.approx(chart.phi(xi)[1], rel=0, abs=1e-12)
    # the one stated exception: criterion 7's symbol averages to 0, not G = xi_2
    m = make_flat_model((1.0, GOLDEN), "cos_x1")
    ch = action_coords(m, m.value_from_xi(np.array([0.2, 0.5])))
    assert torus_average(m, ch, np.array([0.2, 0.5])) == pytest.approx(0.0, abs=1e-12)
    assert ch.phi(np.array([0.2, 0.5]))[1] == 0.5


def test_torus_average_grid_refinement(monkeypatch):
    m = make_flat_model((1.0, 0.7), "xi_weighted")
    ch = action_coords(m, m.value_from_xi(np.array([0.2, 0.3])))
    a = torus_average(m, ch, np.array([0.2, 0.3]))
    monkeypatch.setattr(averaging, "DEFAULT_ANGLE_GRID", 2 * averaging.DEFAULT_ANGLE_GRID)
    b = torus_average(m, ch, np.array([0.2, 0.3]))
    assert abs(a - b) < 1e-12


def test_time_average_constant():
    m, ch = _chart_at_origin(CONST3)
    assert time_average(m, ch, np.zeros(2), (0.4, 1.0), 57.3) == pytest.approx(3.0, abs=1e-12)


def test_time_average_single_harmonic_closed_form():
    # along the flow cos(x1 + t*w1) averages to (2/(T w1)) sin(T w1/2) cos(x1)
    m, ch = _chart_at_origin(COS_X1)
    for T in (100.0, 317.0):
        got = time_average(m, ch, np.zeros(2), (0.0, 0.0), T)
        assert got == pytest.approx(2.0 * math.sin(T / 2.0) / T, abs=1e-8)


def test_time_average_frozen_resonant_angle():
    # omega ~ (1, 0): x2 never moves, so q = cos(x2) stays at its initial value
    m, ch = _chart_at_origin(COS_X2, omega_star=(1.0, 1e-9))
    got = time_average(m, ch, np.zeros(2), (0.0, math.pi / 3), 400.0)
    assert got == pytest.approx(0.5, abs=1e-6)


def test_time_average_rejects_nonpositive_T():
    m, ch = _chart_at_origin(COS_X1)
    with pytest.raises(ValueError):
        time_average(m, ch, np.zeros(2), (0.0, 0.0), 0.0)


def test_ergodic_decay_golden_torus():
    # |<q>_T - <q>| <= C/T with C stable under doubling T
    m, ch = _chart_at_origin(COS_X1)
    xi = np.zeros(2)
    Cs = []
    for T in (100.0, 1000.0, 10_000.0):
        err = abs(time_average(m, ch, xi, (0.0, 0.0), T))
        Cs.append(err * T)
    assert max(Cs) <= 2.0  # explicit bound for one harmonic at |omega_1| = 1


def test_time_averages_bracket_torus_average():
    # on the golden torus the time averages from starting angles around the
    # circle lie on both sides of the torus average and close to it
    m, ch = _chart_at_origin(COS_X1)
    xi = np.zeros(2)
    avg = torus_average(m, ch, xi)
    assert avg == pytest.approx(0.0, abs=1e-12)
    avgs = [time_average(m, ch, xi, (2.0 * math.pi * j / 8, 0.0), 100.0) for j in range(8)]
    assert min(avgs) <= avg <= max(avgs)
    assert max(abs(t - avg) for t in avgs) < 0.05
