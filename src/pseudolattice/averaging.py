"""Torus averages and time averages of the perturbation along the angle flow.

On a torus with actions ``xi`` the unperturbed flow is the linear angle flow
``x(t) = x0 + t * omega(xi)``, so time averages are plain quadratures of a
quasi-periodic function -- no ODE integration is involved.  On tori whose
frequency passes the non-resonance test, the Diophantine tori that the
good-value decision keeps, the flow is ergodic: every long-time average is
the torus average.
"""

from __future__ import annotations

import numpy as np

from .models import ActionChart, ModelError, ModelSystem, _frequencies_at

DEFAULT_ANGLE_GRID = 64  # trapezoid rule is exact for harmonics below this degree


def torus_average(model: ModelSystem, chart: ActionChart, xi) -> float:
    """Average of the perturbation over the angle torus at ``xi``.

    Tensor-product trapezoid rule on a ``DEFAULT_ANGLE_GRID`` x
    ``DEFAULT_ANGLE_GRID`` periodic grid; spectrally accurate for the
    trigonometric-polynomial symbols used by the models.
    """
    xi = np.asarray(xi, dtype=float)
    ang = 2.0 * np.pi * np.arange(DEFAULT_ANGLE_GRID) / DEFAULT_ANGLE_GRID
    gx, gy = np.meshgrid(ang, ang, indexing="ij")
    x = np.stack([gx.ravel(), gy.ravel()], axis=-1)
    vals = model.q_symbol(x, xi)
    return float(np.mean(vals))


def time_average(
    model: ModelSystem,
    chart: ActionChart,
    xi,
    x0,
    T: float,
) -> float:
    """Symmetric time average of the perturbation along the angle flow.

    Composite Simpson quadrature of ``q(x0 + t*omega(xi), xi)`` over
    ``[-T/2, T/2]`` with step at most ``2*pi / (50*|omega|)``.  Raises
    :class:`ModelError` if ``xi`` is outside the chart's action box.
    """
    if T <= 0:
        raise ValueError("T must be positive")
    xi = np.asarray(xi, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    if not np.all(chart.xi_box.contains(np.atleast_2d(xi), margin=1e-9)):
        raise ModelError("xi outside chart domain")
    omega = _frequencies_at(chart.model, chart.phi(xi), chart.shear)[0]
    step = 2.0 * np.pi / (50.0 * max(np.linalg.norm(omega), 1e-12))
    m = int(np.ceil(T / step))
    m += m % 2  # Simpson needs an even interval count
    t = np.linspace(-T / 2.0, T / 2.0, m + 1)
    x = x0[None, :] + t[:, None] * omega[None, :]
    vals = model.q_symbol(x, xi)
    w = np.ones(m + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float(np.sum(w * vals) * (T / m) / 3.0 / T)
