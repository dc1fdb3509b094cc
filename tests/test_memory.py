"""Peak memory of the batch kernels, as traced by ``tracemalloc``.

NumPy reports its array buffers to ``tracemalloc``, so the traced peak is
the peak of the kernel's temporaries.  The action quadrature of the test
helper ``radial_action`` works in blocks of ``models.BLOCK`` elements (1 MB
of float64); its largest use is ``action_grid``, the 35 200 grid nodes of
the file that the package ships for the action table (the package only
reads the file).  The margins evaluate their continued-fraction candidates
in row blocks of the same size and sweep the rows within rounding of a
resonance ``BLOCK // 2n`` values at a time, so their peak stays a few
blocks however many points they are given;
``dist_to_singular`` bounds rows of ``BLOCK // 600`` points against the
boxes of its 20 runs of curve samples and scans only the runs that can
hold the nearest sample, at most all 600 samples a row, so its
temporaries stay within a few blocks (4.2 MB traced for 10^4 points that
are not finite, which scan every run); the cocycle check takes its chart
pairs in blocks of ``monodromy.PAIR_BLOCK``.

A spectral loop synthesizes its clouds one block of whole rectangles
(about ``BLOCK // 16`` labels) at a time and fits each cloud as its block
is made, so its peak is set by one block and not by the loop's point
count; the elements it returns keep no per-point array, only each fit's
coefficients, basis and summary, so they hold a few kB per chart.
"""

import tracemalloc

import numpy as np
import pytest
from radial_action import action_grid

from pseudolattice.diophantine import DiophantineParams, _margins
from pseudolattice.models import make_champagne_model, make_flat_model
from pseudolattice.monodromy import action_atlas, cocycle_check, cover_loop
from pseudolattice.pipeline import spectral_monodromy
from pseudolattice.synth import SemiclassicalParams


def traced_peak_mb(f):
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _margins_1e4():
    omegas = np.random.default_rng(0).uniform(-2.0, 2.0, size=(10_000, 2))
    _margins(omegas, DiophantineParams(alpha=1e-3, d=1.0, k_max=500))


def _dist_1e4():
    m = make_champagne_model(1.0)
    pts = np.random.default_rng(1).uniform([0.0, -0.3], [0.6, 0.3], size=(10_000, 2))
    m.dist_to_singular(pts)


@pytest.mark.parametrize("kernel,limit_mb", [(action_grid, 16.0), (_margins_1e4, 16.0), (_dist_1e4, 8.0)], ids=["action-table", "margins", "dist-to-singular"])
def test_batch_kernel_peak_memory(kernel, limit_mb):
    assert traced_peak_mb(kernel) < limit_mb


def test_cocycle_check_peak_memory():
    # the acceptance octagon's 211 action charts: 1 077 overlapping pairs,
    # 13 308 triples, and the champagne jet for every transition sample
    m = make_champagne_model(1.0)
    octagon = [(0.15 + 0.3 * np.cos(np.pi * t / 4), 0.3 * np.sin(np.pi * t / 4)) for t in range(8)]
    atlas = action_atlas(m, cover_loop(m, octagon))
    assert traced_peak_mb(lambda: cocycle_check(atlas)) < 3.0


def test_spectral_loop_peak_and_retained_memory():
    # the flat square at h = 2.5e-4: 152 charts of about 3,300 points each
    square = np.array([(0.30, 0.10), (0.42, 0.10), (0.42, 0.22), (0.30, 0.22)])
    params = SemiclassicalParams(h=2.5e-4, delta=0.5, seed=0)
    tracemalloc.start()
    try:
        out = spectral_monodromy(make_flat_model((1.0, 0.7)), square, params, DiophantineParams(alpha=1e-3, k_max=500))
        held, peak = tracemalloc.get_traced_memory()
        assert len(out[2]) == 152
        del out
        retained = (held - tracemalloc.get_traced_memory()[0]) / 2**20
    finally:
        tracemalloc.stop()
    assert peak / 2**20 < 10.0
    assert retained < 2.0
