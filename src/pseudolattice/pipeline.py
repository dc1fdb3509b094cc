"""End-to-end drivers: loop coverings of fitted spectral charts.

For each chart center along a user loop the driver picks a good value,
synthesizes the eigenvalue cloud in its rectangle, runs blind lattice
detection, and wraps the fitted chart map into an atlas element.  The
rectangles of consecutive centers overlap, so transition matrices and the
loop monodromy can be computed exactly as for the classical action atlas.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .detect import DetectionError, HChart, _feature_jac, fit_hchart
from .diophantine import DiophantineParams, good_margin
from .models import ActionChart, ModelSystem, _chart_radius, action_coords
from .monodromy import MonodromyError, PseudoChartAtlas, cover_loop, loop_monodromy
from .synth import (
    NormalFormSymbol,
    SemiclassicalParams,
    SpectrumCloud,
    good_rectangle,
    synth_spectrum,
)


def rect_half_width(params: SemiclassicalParams, C0: float, chart_radius: float) -> tuple:
    """Rectangle half-width and the effective C0 keeping it inside the chart."""
    hw = params.h**params.delta / C0
    cap = 0.8 * chart_radius
    if hw > cap:
        C0 = params.h**params.delta / cap
        hw = cap
    return hw, C0


def _nearest_good(model: ModelSystem, c, shear: int, dio: DiophantineParams, search_radius: float) -> np.ndarray:
    """The nearest good node of a 4 x 4 grid around a center that is not good."""
    offs = search_radius * np.array([-1.0, -0.5, 0.5, 1.0])
    cands = np.stack(np.meshgrid(c[0] + offs, c[1] + offs, indexing="ij"), axis=-1).reshape(-1, 2)
    cands = cands[np.argsort(np.linalg.norm(cands - c, axis=1))]
    good = np.flatnonzero(good_margin(model, cands, dio, shear) >= dio.alpha)
    if good.size == 0:
        raise MonodromyError(f"no good value found near {tuple(c.tolist())}")
    return cands[good[0]]


@dataclass
class SpectralChart:
    """Everything produced for one covering element."""

    center: np.ndarray
    a: np.ndarray  # good value actually used
    action_chart: ActionChart
    cloud: SpectrumCloud
    hchart: HChart


def spectral_chart_at(
    model: ModelSystem,
    c,
    params: SemiclassicalParams,
    dio: DiophantineParams,
    C0: float = 2.0,
    higher_coeffs: dict | None = None,
):
    """Synthesize and blind-detect the spectrum of the good rectangle at one
    center ``c``, or at each of an ``(n, 2)`` array of centers (a list)."""
    cs = np.atleast_2d(np.asarray(c, dtype=float))
    charts = action_coords(model, cs)
    # each center is its own good value if good, else the nearest good node
    ok = good_margin(model, cs, dio, np.array([ac.shear for ac in charts])) >= dio.alpha
    goods, rects = [], []
    for cc, ac, good in zip(cs, charts, ok):
        hw, C0_eff = rect_half_width(params, C0, ac.domain.half[0])
        goods.append(cc if good else _nearest_good(model, cc, ac.shear, dio, search_radius=0.25 * hw))
        rects.append(good_rectangle(goods[-1], params, C0_eff))
    syms = [NormalFormSymbol(ac, dict(higher_coeffs or {}), params.noise_order) for ac in charts]
    clouds = synth_spectrum(syms, goods, params, rectangle=rects)
    elements = []
    for i, (cc, a, ac, cloud) in enumerate(zip(cs, goods, charts, clouds)):
        try:
            hc = fit_hchart(cloud.without_labels())
        except DetectionError as exc:
            E, G = cloud.rectangle.center
            err = DetectionError(f"rectangle {i} at ({E:.6g}, {G:.6g}): {exc}")
            err.index = i
            raise err from exc
        elements.append(SpectralChart(cc, a, ac, cloud, hc))
    return elements if np.ndim(c) == 2 else elements[0]


def _spectral_atlas(elements) -> PseudoChartAtlas:
    """Atlas of the fitted charts of ``spectral_chart_at`` elements, each on
    its good rectangle; the Jacobians are ``HChart.df`` on stacked fits."""
    center, half = (np.array([getattr(el.hchart.rectangle, f) for el in elements]) for f in ("center", "half"))
    coeffs = np.array([el.hchart.coeffs for el in elements])
    return PseudoChartAtlas(
        center, half, lambda idx, pts: _feature_jac(coeffs[idx], (pts - center[idx]) / half[idx], half[idx])
    )


def spectral_monodromy(
    model: ModelSystem,
    vertices,
    params: SemiclassicalParams,
    dio: DiophantineParams,
    C0: float = 2.0,
    higher_coeffs: dict | None = None,
    spacing_factor: float = 0.4,
) -> tuple:
    """Loop monodromy of the blind-fitted spectral charts along a polygonal loop.

    Chart centers are spaced by a fraction of the local rectangle
    half-width, so consecutive rectangles overlap with margin and
    transitions are well-sampled.  Each chart's domain is its good
    rectangle, which lives in the value plane like the fitted chart.

    Returns ``(MonodromyClass, atlas, elements)``.
    """

    def rect_radius(c):
        return rect_half_width(params, C0, _chart_radius(model, c))[0]

    centers = cover_loop(model, vertices, spacing_factor=spacing_factor, radius_fn=rect_radius)
    elements = spectral_chart_at(model, centers, params, dio, C0=C0, higher_coeffs=higher_coeffs)
    atlas = _spectral_atlas(elements)
    return loop_monodromy(atlas, range(len(atlas))), atlas, elements
