"""Synthesize eigenvalue clouds inside good rectangles.

In a local action chart the eigenvalues near a good value form a deformed
lattice: ``mu_k = P(xi_k)`` with ``xi_k = h*(k - eta/4) - tau_c`` for integer
vectors ``k``, where ``P`` has leading term ``p(xi) + i*eps*<q>(xi)`` plus a
finite table of higher corrections and a seeded ``O(h^N)`` perturbation.
The cloud is restricted to the good rectangle: a square of half-size
``h^delta/C0`` (capped to fit the chart) around the chosen value in the
value plane, which ``chi`` carries onto a window of aspect ratio ``eps``,
that of the deformed lattice.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .models import BLOCK, ActionChart, ModelSystem, ParameterError, Rect

RESOLUTION_GUARD = 10.0  # smallest allowed eps/h separation of scales
BAND_GRID = 40  # leaves per axis of the action box that spectral_band sweeps


@dataclass
class SemiclassicalParams:
    """Semiclassical parameter block: h, the coupling exponent, noise and
    the good rectangles' size ``h^delta/C0``."""

    h: float
    delta: float
    noise_order: int = 3
    seed: int = 0
    C0: float = 2.0

    def __post_init__(self):
        if not 0.0 < self.h <= 0.1:
            raise ParameterError("h", f"h = {self.h} out of range (0, 0.1]")
        if not 0.0 < self.delta < 1.0:
            raise ParameterError("delta", f"delta = {self.delta} out of range (0, 1)")
        if not self.noise_order >= 1:
            raise ParameterError("noise_order", f"noise_order = {self.noise_order} must be positive")
        if not 0 <= self.seed < 2**64:  # the first word of the noise generator's seed
            raise ParameterError("seed", f"seed = {self.seed} must be a non-negative integer below 2^64")
        if not 1.0 <= self.C0 < np.inf:
            raise ParameterError("C0", f"C0 = {self.C0} out of range [1, inf)")
        if not self.epsilon / self.h >= RESOLUTION_GUARD:
            raise ParameterError(
                "delta", f"scales not separated: eps/h = h^(delta - 1) = {self.epsilon / self.h:.3g} < {RESOLUTION_GUARD}"
            )

    @property
    def epsilon(self) -> float:
        return self.h**self.delta


def chi(u, epsilon: float):
    """Identify ``(u1, u2)`` with the complex number ``u1 + i*eps*u2``."""
    u = np.asarray(u, dtype=float)
    return u[..., 0] + 1j * epsilon * u[..., 1]


def chi_inverse(z, epsilon: float):
    """Exact inverse of :func:`chi`; requires a positive ``epsilon``."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    z = np.asarray(z, dtype=complex)
    return np.stack([z.real, z.imag / epsilon], axis=-1)


def good_rectangle(a, params: SemiclassicalParams, chart_radius: float) -> Rect:
    """Square of half-size ``min(h^delta/C0, 0.8*chart_radius)`` around the
    good value ``a``, in the value plane, so that it fits inside the chart;
    :func:`chi` carries it onto the spectral window of half-sizes ``hw`` by
    ``eps*hw``.

    The caller is responsible for the goodness of ``a``.
    """
    hw = min(params.h**params.delta / params.C0, 0.8 * chart_radius)
    return Rect(np.array(a, dtype=float), (hw, hw))


def default_higher_coeffs() -> dict:
    """Deterministic table of correction coefficients C_{(a1,a2),j,k}.

    Keys are ``(a1, a2, j, k)`` with ``a1+a2+j+k <= 3`` and either ``j >= 2``
    or ``k >= 1`` (so the leading term in the separated-scale regime stays
    exactly ``p + i*eps*<q>``); entries with ``j == 0`` are real so the
    unperturbed symbol is real-valued.
    """
    table = {}
    idx = 0
    for a1 in range(4):
        for a2 in range(4):
            for j in range(4):
                for k in range(4):
                    if a1 + a2 + j + k > 3:
                        continue
                    if j < 2 and k < 1:
                        continue
                    idx += 1
                    mag = 0.02 * (0.5 + 0.5 * np.cos(1.7 * idx))
                    if j == 0:
                        table[(a1, a2, j, k)] = complex(mag, 0.0)
                    else:
                        table[(a1, a2, j, k)] = mag * np.exp(0.9j * idx)
    return table


def _validate_coeffs(table: dict):
    for key, c in table.items():
        a1, a2, j, k = key
        if min(key) < 0 or a1 + a2 + j + k > 3:
            raise ValueError(f"coefficient index {key} out of range (total degree <= 3)")
        if j < 2 and k < 1:
            raise ValueError(f"coefficient {key} would pollute the leading term (need j>=2 or k>=1)")
        if j == 0 and abs(complex(c).imag) > 0:
            raise ValueError(f"coefficient {key} must be real (symbol is real at eps=0)")


@dataclass
class NormalFormSymbol:
    """Polynomial symbol with leading term ``p(xi) + i*eps*<q>(xi)``, which
    is ``chi(phi(xi), eps)``, and the higher corrections of ``correction``."""

    chart: ActionChart
    higher_coeffs: dict = field(default_factory=dict)

    def __post_init__(self):
        _validate_coeffs(self.higher_coeffs)

    def correction(self, xi, eps: float, h: float):
        xi = np.asarray(xi, dtype=float)
        out = 0.0  # an empty table allocates nothing; the sum is complex from its first term
        for (a1, a2, j, k), c in self.higher_coeffs.items():
            out = out + c * xi[..., 0] ** a1 * xi[..., 1] ** a2 * eps**j * h**k
        return out

    def imag_correction_bound(self, eps: float, h: float) -> float:
        """Upper bound on |corrections|, so on |Im| and |Re|, over the chart's action box."""
        box = self.chart.xi_box
        hi = np.abs(box.center) + box.half
        bound = 0.0
        for (a1, a2, j, k), c in self.higher_coeffs.items():
            bound += abs(c) * hi[0] ** a1 * hi[1] ** a2 * eps**j * h**k
        return float(bound)


@dataclass
class SpectrumCloud:
    """Synthesized eigenvalues in one good rectangle."""

    points: np.ndarray  # complex
    k_true: np.ndarray | None  # (n, 2) integers, or None in blind mode
    params: SemiclassicalParams
    rectangle: Rect  # in the value plane

    def __len__(self):
        return len(self.points)

    def without_labels(self) -> "SpectrumCloud":
        return SpectrumCloud(self.points, None, self.params, self.rectangle)

    def to_text(self) -> str:
        # the spectral window: the rectangle carried over by chi
        eps = self.params.epsilon
        (E, G), hw = map(float, self.rectangle.center), float(self.rectangle.half[0])
        lines = [
            "[spectrum]",
            f"h = {self.params.h!r}",
            f"delta = {self.params.delta!r}",
            f"epsilon = {eps!r}",
            f"center = {E!r} {eps * G!r}",
            f"half = {hw!r} {eps * hw!r}",
        ]
        with_k = self.k_true is not None
        lines.append("# re_mu\tim_mu" + ("\tk1\tk2" if with_k else ""))
        for i, mu in enumerate(self.points):
            row = f"{float(mu.real)!r}\t{float(mu.imag)!r}"
            if with_k:
                row += f"\t{int(self.k_true[i, 0])}\t{int(self.k_true[i, 1])}"
            lines.append(row)
        return "\n".join(lines) + "\n"


def _rect_seed(params: SemiclassicalParams, rect: Rect):
    # decorrelate rectangles while keeping runs bit-reproducible
    center = [rect.center[0], params.epsilon * rect.center[1]]  # the spectral window's
    center_bits = np.frombuffer(np.array(center, dtype="<f8").tobytes(), dtype="<u8")
    return [np.uint64(params.seed), center_bits[0], center_bits[1]]


def _ranges(start, count):  # the ranges start[i], ..., start[i] + count[i] - 1, concatenated
    return np.repeat(start - np.cumsum(count) + count, count) + np.arange(np.sum(count))


def _candidates(symbols, rects, params: SemiclassicalParams):
    """Blocks of whole rectangles: their indices, and the labels, actions and
    rectangle indices of the lattice points that may map into their rectangle.

    Within the integer box of the value preimage sampled on a 7 x 7 grid and
    the action box (grown by 2h), a label is kept if the linear prediction of
    its value from the jet at the rectangle center lies in the preimage grown
    by all the prediction leaves out: the corrections and noise (the slack),
    and the curvature of E, bounded by the largest Hessian on the samples (G
    is an action in both models).  That is one k2 interval per k1 row.
    """
    h, eps = params.h, params.epsilon
    charts = [sym.chart for sym in symbols]
    center, half = (np.array([getattr(r, f) for r in rects]) for f in ("center", "half"))
    t = np.linspace(-1, 1, 7)
    ares = center[:, None] + half[:, None] * np.stack(np.meshgrid(t, t, indexing="ij"), axis=-1).reshape(-1, 2)
    dom = Rect(*(np.array([getattr(c.domain, f) for c in charts])[:, None] for f in ("center", "half")))
    if not np.all(dom.contains(ares, margin=1e-12)):
        raise ValueError("chart domain too small to cover the rectangle preimage")
    shear, tau_c = np.array([c.shear for c in charts]), np.array([c.tau_c for c in charts])
    xis, J, hess = charts[0].model.jet(ares, shear=shear[:, None])
    # the grown preimages' half-sizes in the value plane; sample 24 is the center
    slack = np.array([sym.imag_correction_bound(eps, h) for sym in symbols]) + h**params.noise_order
    reach = half + slack[:, None] * np.array([1.0, 1.0 / eps])
    # the samples' integer box, dilated by 2 and by as far as the slack moves a label
    kf = xis / h + charts[0].eta / 4.0 + tau_c[:, None] / h
    grow = 2 + np.ceil(np.einsum("nij,nj->ni", np.abs(J[:, 24]), reach - half) / h).astype(int)
    kmin, kmax = np.floor(kf.min(axis=1)).astype(int) - grow, np.ceil(kf.max(axis=1)).astype(int) + grow
    radius = np.max(np.linalg.norm(xis - xis[:, 24:25], axis=-1), axis=1) * np.max(reach / half, axis=1)
    reach[:, 0] += 0.5 * np.max(np.linalg.norm(hess, axis=(-2, -1)), axis=1) * radius**2
    # |(h (d xi/d a)^-1 (k - kf[24]))_i| <= reach_i, row by row of every box
    rows = kmax[:, 0] - kmin[:, 0] + 1
    r, k1 = np.repeat(np.arange(len(rects)), rows), _ranges(kmin[:, 0], rows)
    N = h * np.linalg.inv(J[:, 24])[r]
    lo, hi = np.full(len(r), -np.inf), np.full(len(r), np.inf)
    for i in (0, 1):
        t1, n2, w = N[:, i, 0] * (k1 - kf[r, 24, 0]), N[:, i, 1], reach[r, i]
        with np.errstate(divide="ignore", invalid="ignore"):
            e = np.sort([(-w - t1) / n2, (w - t1) / n2], axis=0) + kf[r, 24, 1]
        flat = n2 == 0.0  # a strip parallel to the k2 axis keeps whole rows or none
        e[:, flat] = np.where(np.abs(t1[flat]) <= w[flat], [[-np.inf], [np.inf]], np.inf)
        lo, hi = np.maximum(lo, e[0]), np.minimum(hi, e[1])
    lo = np.clip(np.ceil(lo), kmin[r, 1], kmax[r, 1] + 1).astype(int)
    n = np.maximum(np.clip(np.floor(hi), kmin[r, 1] - 1, kmax[r, 1]).astype(int) - lo + 1, 0)
    box = [np.array([getattr(c.xi_box, f) for c in charts]) for f in ("center", "half")]
    # whole rectangles in blocks of about BLOCK // 16 labels: each label
    # gathers the 16 coefficients of its 4 x 4 action-table cell
    block = np.cumsum(np.bincount(r, weights=n, minlength=len(rects))) // (BLOCK // 16)
    for b in np.unique(block):
        idx = np.flatnonzero(block == b)
        sel = (r >= idx[0]) & (r <= idx[-1])
        k = np.repeat(k1[sel], n[sel]), _ranges(lo[sel], n[sel])
        rect_of = np.repeat(r[sel], n[sel])
        xi_k = np.stack([h * (k[j] - charts[0].eta[j] / 4.0) - tau_c[:, j].take(rect_of) for j in (0, 1)], axis=-1)
        inside = Rect(box[0].take(rect_of, axis=0), box[1].take(rect_of, axis=0)).contains(xi_k, margin=2.0 * h)
        k, xi_k = np.stack(k, axis=-1).compress(inside, axis=0), xi_k.compress(inside, axis=0)
        yield idx, k, xi_k, rect_of.compress(inside)


def _synth_clouds(symbols, rects, params: SemiclassicalParams):
    """The clouds of the rectangles ``rects`` in order, made one block of
    ``_candidates`` at a time, so that only one block's arrays are alive.
    A block's clouds are all made before the first is handed on: fitting
    each as it was made slowed the octagon's synthesis by 20 %."""
    h, eps = params.h, params.epsilon
    shear_seed = np.array([(sym.chart.shear, sym.chart.c[0]) for sym in symbols])
    for idx, labels, xi, rect_of in _candidates(symbols, rects, params):
        vals = symbols[0].chart.model.value_from_xi(xi, *shear_seed[rect_of].T)  # per-point shear and seed_E
        block = []
        for i, k, xi_k, a_k in zip(idx, *(np.split(x, np.searchsorted(rect_of, idx[1:])) for x in (labels, xi, vals))):
            sym, rect = symbols[i], rects[i]
            mu = chi(a_k, eps) + sym.correction(xi_k, eps, h)
            keep = rect.contains(chi_inverse(mu, eps))
            # labels run k1-major, k2-minor: the canonical order for the noise
            k, mu = k.compress(keep, axis=0), mu.compress(keep)
            if len(mu) > 0:
                rng = np.random.default_rng(_rect_seed(params, rect))
                amp = h**params.noise_order
                mu = mu + amp * (rng.uniform(-1, 1, len(mu)) + 1j * rng.uniform(-1, 1, len(mu)))
                keep = rect.contains(chi_inverse(mu, eps))
                k, mu = k.compress(keep, axis=0), mu.compress(keep)
            block.append(SpectrumCloud(points=mu, k_true=k, params=params, rectangle=rect))
        yield from block


def synth_spectrum(symbol, rectangle, params: SemiclassicalParams):
    """Enumerate the quantization lattice and keep points in the rectangle.

    ``xi_k = h*(k - eta/4) - tau_c``; ``mu_k`` is the symbol at ``xi_k``
    plus seeded uniform complex noise of magnitude ``h^noise_order``.  A
    rectangle's cloud is the same, bit for bit, alone or in a loop's block.
    """
    (cloud,) = _synth_clouds([symbol], [rectangle], params)
    return cloud


def spectral_band(
    model: ModelSystem,
    chart: ActionChart,
    E: float,
    delta_E: float,
    params: SemiclassicalParams,
    symbol: NormalFormSymbol | None = None,
):
    """Interval containing Im(mu) for eigenvalues with |Re(mu) - E| <= delta_E.

    The exact torus averages are swept over the energy leaves inside the
    chart's action box on a ``BAND_GRID`` x ``BAND_GRID`` grid; the o(1)
    widening is the noise amplitude ``h^noise_order``, plus the symbol's
    correction bound when a symbol is given.
    """
    xis = chart.xi_box.grid(BAND_GRID)
    on_leaf = np.abs(chart.phi(xis)[..., 0] - E) <= delta_E
    if not np.any(on_leaf):
        raise ValueError("no leaves intersect the requested energy window")
    avgs = model.q_symbol.mean(xis[on_leaf])
    eps = params.epsilon
    margin = params.h**params.noise_order
    if symbol is not None:
        margin = margin + symbol.imag_correction_bound(eps, params.h)
    return (float(eps * avgs.min() - margin), float(eps * avgs.max() + margin))
