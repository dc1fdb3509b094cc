"""Torus averages and time averages of the perturbation along the angle flow.

On a torus with actions ``xi`` the unperturbed flow is the linear angle flow
``x(t) = x0 + t * omega(xi)``, so time averages are plain quadratures of a
quasi-periodic function -- no ODE integration is involved.  On tori whose
frequency passes the non-resonance test the flow is ergodic and the time
average converges to the torus average; the ``q_infinity`` interval is a
finite-horizon surrogate for the set of attainable long-time averages.
"""

from __future__ import annotations

import numpy as np

from .models import ActionChart, ModelSystem, frequency

DEFAULT_ANGLE_GRID = 64  # trapezoid rule is exact for harmonics below this degree


def torus_average(model: ModelSystem, chart: ActionChart, xi, n: int = DEFAULT_ANGLE_GRID) -> float:
    """Average of the perturbation over the angle torus at ``xi``.

    Tensor-product trapezoid rule on an n x n periodic grid; spectrally
    accurate for the trigonometric-polynomial symbols used by the models.
    """
    xi = np.asarray(xi, dtype=float)
    ang = 2.0 * np.pi * np.arange(n) / n
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
    ``[-T/2, T/2]`` with step at most ``2*pi / (50*|omega|)``.
    """
    if T <= 0:
        raise ValueError("T must be positive")
    xi = np.asarray(xi, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    omega = frequency(chart, xi).omega
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


def _quasi_random_angles() -> np.ndarray:
    # deterministic low-discrepancy sample of the torus (Kronecker sequence), 16 angles
    i = np.arange(1, 17)
    a1 = (i * 0.7548776662466927) % 1.0  # plastic-number rotations
    a2 = (i * 0.5698402909980532) % 1.0
    return 2.0 * np.pi * np.stack([a1, a2], axis=-1)


def q_infinity(model: ModelSystem, chart: ActionChart, xi, T_list):
    """Finite-horizon surrogate of the attainable-average interval at ``xi``.

    Returns ``(lo, hi)``: the range of the longest-horizon time average over
    a deterministic quasi-random sample of starting angles.  This is an
    outer approximation of the infinite-time interval, which degenerates to
    the torus average on ergodic (non-resonant) tori.
    """
    T_list = list(T_list)
    if not T_list or any(b <= a for a, b in zip(T_list, T_list[1:])):
        raise ValueError("T_list must be nonempty and increasing")
    T_max = T_list[-1]
    avgs = [time_average(model, chart, xi, x0, T_max) for x0 in _quasi_random_angles()]
    return (float(np.min(avgs)), float(np.max(avgs)))
