"""End-to-end drivers: loop coverings of fitted spectral charts.

For each chart center along a user loop the driver picks a good value,
synthesizes the eigenvalue cloud in its rectangle, runs blind lattice
detection, and wraps the fitted chart map into an atlas element.  The
rectangles of consecutive centers overlap, so transition matrices and the
loop monodromy can be computed exactly as for the classical action atlas.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .detect import DetectionError, HChart, _feature_jac, fit_hchart
from .diophantine import DiophantineParams, good_margin
from .models import ActionChart, ModelSystem, Rect, _chart_radius, action_coords
from .monodromy import MonodromyError, PseudoChartAtlas, cover_loop, loop_monodromy
from .synth import (
    NormalFormSymbol,
    SemiclassicalParams,
    SpectrumCloud,
    _synth_clouds,
    good_rectangle,
    synth_spectrum,
)


def _nearest_good(model: ModelSystem, c, shear: int, dio: DiophantineParams, search_radius: float) -> np.ndarray | None:
    """The nearest good node of a 4 x 4 grid around a center that is not good, or None."""
    offs = search_radius * np.array([-1.0, -0.5, 0.5, 1.0])
    cands = np.stack(np.meshgrid(c[0] + offs, c[1] + offs, indexing="ij"), axis=-1).reshape(-1, 2)
    cands = cands[np.argsort(np.linalg.norm(cands - c, axis=1))]
    good = np.flatnonzero(good_margin(model, cands, dio, shear) >= dio.alpha)
    return cands[good[0]] if good.size else None


def _spectral_clouds(model: ModelSystem, cs, params: SemiclassicalParams, dio: DiophantineParams, higher_coeffs=None):
    """The normal-form symbols on the action charts at an ``(n, 2)`` array of
    centers, and a generator of their clouds in order, made one synthesis
    block at a time: each cloud fills the good rectangle at its center if
    that is a good value, else at the nearest good node."""
    charts = action_coords(model, cs)
    ok = good_margin(model, cs, dio, np.array([ac.shear for ac in charts])) >= dio.alpha
    rects = [good_rectangle(cc, params, ac.domain.half[0]) for cc, ac in zip(cs, charts)]
    for i in np.flatnonzero(~ok):
        a = _nearest_good(model, cs[i], charts[i].shear, dio, search_radius=0.25 * rects[i].half[0])
        if a is None:
            err = MonodromyError(f"rectangle {i}: no good value found near {tuple(cs[i].tolist())}")
            err.reason, err.index = "no_good_value", int(i)
            raise err
        rects[i] = good_rectangle(a, params, charts[i].domain.half[0])
    coeffs = dict(higher_coeffs or {})
    syms = [NormalFormSymbol(ac, coeffs) for ac in charts]
    return syms, _synth_clouds(syms, rects, params)


@dataclass
class SpectralChart:
    """What a loop reads of one covering element: its good rectangle,
    centered on the good value, its symbol on the action chart, and the
    fitted chart map without its per-point arrays.  ``cloud`` and ``hchart``
    are made again on first access and then kept: a cloud is seeded by its
    rectangle, so the symbol and the rectangle give it bit for bit.  Reading
    either keeps that element's per-point arrays for the element's life, so a
    caller that reads them over a whole loop holds every cloud of it."""

    symbol: NormalFormSymbol
    params: SemiclassicalParams
    rectangle: Rect
    coeffs: np.ndarray  # the fit's, as in HChart
    affine: np.ndarray
    max_residual: float  # in units of h
    labeled_fraction: float

    @property
    def action_chart(self) -> ActionChart:
        return self.symbol.chart

    @functools.cached_property
    def cloud(self) -> SpectrumCloud:
        return synth_spectrum(self.symbol, self.rectangle, self.params)

    @functools.cached_property
    def hchart(self) -> HChart:
        return fit_hchart(self.cloud.without_labels())


def spectral_chart_at(
    model: ModelSystem,
    c,
    params: SemiclassicalParams,
    dio: DiophantineParams,
    higher_coeffs: dict | None = None,
):
    """Synthesize and blind-detect the spectrum of the good rectangle at one
    center ``c``, or at each of an ``(n, 2)`` array of centers (a list).

    Each cloud is fitted once its synthesis block is made, then dropped: a
    detection failure is raised before any later block is made, naming the
    first failing rectangle in order."""
    cs = np.atleast_2d(np.asarray(c, dtype=float))
    syms, clouds = _spectral_clouds(model, cs, params, dio, higher_coeffs)
    elements = []
    for i, (sym, cloud) in enumerate(zip(syms, clouds)):
        try:
            hc = fit_hchart(cloud.without_labels())
        except DetectionError as exc:
            E, G = cloud.rectangle.center
            err = DetectionError(f"rectangle {i} at ({E:.6g}, {G:.6g}): {exc}", exc.reason)
            err.index = i
            raise err from exc
        elements.append(
            SpectralChart(sym, params, cloud.rectangle, hc.coeffs, hc.affine, hc.max_residual(), hc.labeled_fraction)
        )
    return elements if np.ndim(c) == 2 else elements[0]


def _cover(model: ModelSystem, vertices, params: SemiclassicalParams, spacing_factor: float = 0.4) -> np.ndarray:
    """Chart centers along a loop, spaced by a fraction of the half-width of
    the good rectangle at each, so consecutive rectangles overlap."""
    radius = lambda c: good_rectangle(c, params, _chart_radius(model, c)).half[0]
    return cover_loop(model, vertices, spacing_factor=spacing_factor, radius_fn=radius)


def _spectral_atlas(elements) -> PseudoChartAtlas:
    """Atlas of the fitted charts of ``spectral_chart_at`` elements, each on
    its good rectangle; the Jacobians are ``_feature_jac`` of the stacked fits."""
    center, half = (np.array([getattr(el.rectangle, f) for el in elements]) for f in ("center", "half"))
    coeffs = np.array([el.coeffs for el in elements])
    return PseudoChartAtlas(
        center, half, lambda idx, pts: _feature_jac(coeffs[idx], (pts - center[idx]) / half[idx], half[idx])
    )


def spectral_monodromy(
    model: ModelSystem,
    vertices,
    params: SemiclassicalParams,
    dio: DiophantineParams,
    spacing_factor: float = 0.4,
) -> tuple:
    """Loop monodromy of the blind-fitted spectral charts along a polygonal loop.

    Chart centers are spaced by a fraction of the local rectangle
    half-width, so consecutive rectangles overlap with margin and
    transitions are well-sampled.  Each chart's domain is its good
    rectangle, which lives in the value plane like the fitted chart.

    Returns ``(MonodromyClass, atlas, elements)``.
    """
    centers = _cover(model, vertices, params, spacing_factor)
    elements = spectral_chart_at(model, centers, params, dio)
    atlas = _spectral_atlas(elements)
    return loop_monodromy(atlas, range(len(atlas))), atlas, elements
