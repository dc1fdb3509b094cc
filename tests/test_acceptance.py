"""End-to-end acceptance suite.

Each test prints a single pass/fail line (outside pytest capture, so the
lines survive in piped output) and asserts the same condition.
"""

import sys
import time

import numpy as np
import pytest

from pseudolattice.averaging import time_average, torus_average
from pseudolattice.detect import fit_hchart, gauge_alignment, invert_leading
from pseudolattice.diophantine import DiophantineParams, bad_measure_estimate
from pseudolattice.models import (
    GOLDEN,
    action_coords,
    make_champagne_model,
    make_flat_model,
)
from pseudolattice.monodromy import (
    classical_monodromy,
    cocycle_check,
    compare_monodromies,
    transition_matrix,
)
from pseudolattice.pipeline import _spectral_atlas, spectral_chart_at, spectral_monodromy
from pseudolattice.synth import (
    NormalFormSymbol,
    SemiclassicalParams,
    default_higher_coeffs,
    good_rectangle,
    spectral_band,
    synth_spectrum,
)

PARAMS = SemiclassicalParams(h=1e-3, delta=0.5, noise_order=3, seed=42)
DIO = DiophantineParams(alpha=1e-3, d=1.0, k_max=500)

OCTAGON = np.array(
    [
        (0.15 + 0.3 * np.cos(2 * np.pi * t / 8), 0.3 * np.sin(2 * np.pi * t / 8))
        for t in range(8)
    ]
)
FLAT_LOOP = np.array([(0.30, 0.10), (0.42, 0.10), (0.42, 0.22), (0.30, 0.22)])


@pytest.fixture
def report(capsys):
    """One visible pass/fail line per criterion, then the assertion."""

    def _report(n, desc, ok, detail=""):
        line = f"criterion {n:2d} [{desc}]: {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f"  ({detail})"
        with capsys.disabled():
            sys.stdout.write("\n" + line)
            sys.stdout.flush()
        assert ok, line

    return _report


@pytest.fixture(scope="module")
def flat_model():
    return make_flat_model((1.0, 0.7), "xi_weighted")


@pytest.fixture(scope="module")
def champ_model():
    return make_champagne_model(1.0)


def _center_grid(e_lo, e_hi, l_lo, l_hi):
    E, L = np.meshgrid(np.linspace(e_lo, e_hi, 5), np.linspace(l_lo, l_hi, 4), indexing="ij")
    return np.stack([E.ravel(), L.ravel()], axis=-1)


@pytest.fixture(scope="module")
def rectangles(flat_model, champ_model):
    """Twenty blind-fitted good rectangles per model, with the wall time."""
    coeffs = default_higher_coeffs()
    t0 = time.perf_counter()
    out = {}
    for name, model, centers in (
        ("flat", flat_model, _center_grid(0.22, 0.42, 0.08, 0.20)),
        ("champagne", champ_model, _center_grid(0.30, 0.50, 0.05, 0.20)),
    ):
        out[name] = [
            spectral_chart_at(model, c, PARAMS, DIO, higher_coeffs=coeffs)
            for c in centers
        ]
    out["elapsed"] = time.perf_counter() - t0
    return out


def test_criterion_01_blind_detection_at_scale(rectangles, report):
    ok = rectangles["elapsed"] <= 60.0
    worst_res, worst_frac, n_rects = 0.0, 1.0, 0
    for name in ("flat", "champagne"):
        els = rectangles[name]
        n_rects = min(n_rects, len(els)) if n_rects else len(els)
        worst_res = max(worst_res, max(el.hchart.max_residual() for el in els))
        worst_frac = min(worst_frac, min(el.hchart.labeled_fraction for el in els))
    ok = ok and n_rects >= 20 and worst_frac >= 0.99 and worst_res <= 0.05
    report(
        1,
        "blind lattice detection, 20 rectangles per model",
        ok,
        f"max residual {worst_res:.4f} h, min labeled {worst_frac:.3f}, "
        f"{rectangles['elapsed']:.1f} s",
    )


def _leading_error(model, a, params):
    chart = action_coords(model, a)
    sym = NormalFormSymbol(chart, default_higher_coeffs())
    cloud = synth_spectrum(sym, good_rectangle(a, params, chart.domain.half[0]), params)
    hc = fit_hchart(cloud.without_labels())
    M, c = gauge_alignment(hc, chart)
    r = cloud.rectangle
    gx = np.stack(
        np.meshgrid(np.linspace(-1, 1, 9), np.linspace(-1, 1, 9), indexing="ij"), axis=-1
    ).reshape(-1, 2)
    us = r.center + gx * r.half
    gt = chart.tau_c + chart.xi_of_c(us)
    return float(np.max(np.abs(hc.f_tilde0(us, M, c, chart.eta) - gt)))


def test_criterion_02_leading_term_error_scaling(flat_model, champ_model, report):
    fine = SemiclassicalParams(h=2.5e-4, delta=0.5, noise_order=3, seed=42)
    details, ok = [], True
    for name, model, a in (
        ("flat", flat_model, np.array([0.25, 0.15])),
        ("champagne", champ_model, np.array([0.30, 0.15])),
    ):
        e1 = _leading_error(model, a, PARAMS)
        e2 = _leading_error(model, a, fine)
        C1 = e1 / (PARAMS.epsilon + PARAMS.h / PARAMS.epsilon)
        ratio = e1 / e2
        ok = ok and C1 <= 5.0 and ratio >= 2.0
        details.append(f"{name}: C = {C1:.3f}, shrink x{ratio:.1f}")
    report(2, "f~0 error bound C(eps + h/eps) and refinement", ok, "; ".join(details))


def test_criterion_03_transition_consistency(flat_model, report):
    # six mutually overlapping blind spectral charts on a 2x3 grid
    hw = PARAMS.h**PARAMS.delta / 2.0
    base = np.array([0.30, 0.14])
    centers = [base + 0.6 * hw * np.array([i, j]) for i in range(3) for j in range(2)]
    els = [spectral_chart_at(flat_model, c, PARAMS, DIO) for c in centers]
    atlas = _spectral_atlas(els)
    i, j = np.triu_indices(len(atlas), 1)
    i, j = (x[np.all(atlas.overlap(i, j)[1] > 0, axis=1)] for x in (i, j))
    tij, tji = transition_matrix(atlas, i, j), transition_matrix(atlas, j, i)
    max_err = max(t.rounding_error for t in tij + tji)
    anti_ok = all(np.array_equal(a.M @ b.M, np.eye(2, dtype=np.int64)) for a, b in zip(tij, tji))
    assert all(int(round(abs(np.linalg.det(t.M)))) == 1 for t in tij)
    rep = cocycle_check(atlas)
    ok = max_err <= 0.1 and anti_ok and rep.ok and rep.triples_checked > 0
    report(
        3,
        "integral transitions, antisymmetry and cocycle on 6 charts",
        ok,
        f"max pre-round error {max_err:.4f}, {rep.triples_checked} triples",
    )


@pytest.fixture(scope="module")
def flat_spectral(flat_model):
    return spectral_monodromy(flat_model, FLAT_LOOP, PARAMS, DIO)


@pytest.fixture(scope="module")
def champ_spectral(champ_model):
    return spectral_monodromy(champ_model, OCTAGON, PARAMS, DIO)


def test_criterion_04_flat_loop_trivial(flat_spectral, report):
    cls, atlas, _ = flat_spectral
    ok = np.array_equal(cls.product, np.eye(2, dtype=np.int64))
    report(4, "flat-model loop has identity monodromy", ok, f"{len(atlas)} charts")


def test_criterion_05_champagne_monodromy(champ_model, champ_spectral, report):
    cls, atlas, elements = champ_spectral
    # one rule sizes every rectangle, bit for bit: h^delta/C0, capped at 0.8
    # chart radius where the chart is small
    half = np.array([el.cloud.rectangle.half for el in elements])
    cap = 0.8 * np.array([el.action_chart.domain.half[0] for el in elements])
    rule = np.minimum(PARAMS.h**PARAMS.delta / PARAMS.C0, cap)
    assert half.tobytes() == np.stack([rule, rule], axis=-1).tobytes()
    assert 0 < np.sum(rule == cap) < len(elements)
    single = classical_monodromy(champ_model, OCTAGON)
    double = classical_monodromy(champ_model, np.vstack([OCTAGON, OCTAGON]))
    ok = (
        cls.parabolic_m == 1
        and single.parabolic_m == 1
        and compare_monodromies(cls, single)
        and double.parabolic_m == 2
        and not compare_monodromies(cls, double)
    )
    report(
        5,
        "champagne loop |m|=1 vs classical, double winding |m|=2",
        ok,
        f"spectral m = {cls.parabolic_m}, classical m = {single.parabolic_m}, "
        f"double m = {double.parabolic_m}, {len(atlas)} charts",
    )


def test_criterion_06_covering_invariance(flat_model, champ_model, flat_spectral, champ_spectral, report):
    rng = np.random.default_rng(11)
    ok, details = True, []
    for name, model, verts, base in (
        ("flat", flat_model, FLAT_LOOP, flat_spectral[0]),
        ("champagne", champ_model, OCTAGON, champ_spectral[0]),
    ):
        fine = spectral_monodromy(model, verts, PARAMS, DIO, spacing_factor=0.2)[0]
        scale = 0.1 * np.max(np.linalg.norm(verts - verts.mean(axis=0), axis=1))
        wiggled = verts + rng.uniform(-scale, scale, size=verts.shape)
        pert = spectral_monodromy(model, wiggled, PARAMS, DIO)[0]
        same = (
            fine.invariants == base.invariants
            and pert.invariants == base.invariants
            and fine.parabolic_m == base.parabolic_m
            and pert.parabolic_m == base.parabolic_m
        )
        ok = ok and same
        details.append(f"{name}: m = {base.parabolic_m} under both changes" if same else f"{name}: CHANGED")
    report(6, "monodromy invariant under refinement and vertex noise", ok, "; ".join(details))


def test_criterion_07_ergodic_averaging(report):
    model = make_flat_model((1.0, GOLDEN), "cos_x1")
    chart = action_coords(model, model.value_from_xi(np.zeros(2)))
    xi = np.zeros(2)
    mean = torus_average(model, chart, xi)

    def cap(ts):
        return max(abs(time_average(model, chart, xi, (0.0, 0.0), T) - mean) * T for T in ts)

    C1 = cap([1e2, 1e3, 1e4])
    C2 = cap([2e2, 2e3, 2e4])
    ratio = max(C1, C2) / min(C1, C2)
    ok = C1 > 0 and ratio <= 2.0
    report(
        7,
        "golden-ratio torus: |<q>_T - <q>| <= C/T with stable C",
        ok,
        f"C = {C1:.3f}, doubled-T C = {C2:.3f}, ratio {ratio:.2f}",
    )


def test_criterion_08_bad_set_measure_scaling(champ_model, report):
    chart = action_coords(champ_model, np.array([0.3, 0.15]))
    alphas = [0.02, 0.01, 0.005, 0.0025]
    out = bad_measure_estimate(champ_model, chart, 1.0, alphas, samples=10_000, rng=1)
    a = np.log([x for x, _ in out])
    f = np.log([y for _, y in out])
    slope = float(np.polyfit(a, f, 1)[0])
    ok = 0.7 <= slope <= 1.3
    report(8, "bad-frequency measure scales linearly in alpha", ok, f"slope {slope:.3f}")


def test_criterion_09_band_containment(rectangles, flat_model, champ_model, report):
    coeffs = default_higher_coeffs()
    escaped = 0
    for name, model in (("flat", flat_model), ("champagne", champ_model)):
        for el in rectangles[name]:
            sym = NormalFormSymbol(el.action_chart, dict(coeffs))
            r = el.cloud.rectangle
            lo, hi = spectral_band(
                model, el.action_chart, r.center[0], r.half[0], PARAMS, sym
            )
            escaped += int(
                np.any((el.cloud.points.imag < lo) | (el.cloud.points.imag > hi))
            )
    report(9, "every eigenvalue inside its spectral band", escaped == 0, f"{escaped} escapes")


def _grid_zoom_inverse(chart, targets, levels=15, n=21):
    """Dense-grid descent oracle for the leading-term inverse."""
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    m = len(targets)
    centers = np.tile(np.asarray(chart.xi_box.center, float), (m, 1))
    half = np.tile(np.asarray(chart.xi_box.half, float), (m, 1))
    lin = np.linspace(-1.0, 1.0, n)
    g1, g2 = np.meshgrid(lin, lin, indexing="ij")
    offs = np.stack([g1.ravel(), g2.ravel()], axis=-1)
    for _ in range(levels):
        pts = centers[:, None, :] + offs[None, :, :] * half[:, None, :]
        vals = chart.phi(pts.reshape(-1, 2)).reshape(m, -1, 2)
        d = np.linalg.norm(vals - targets[:, None, :], axis=-1)
        best = np.argmin(d, axis=1)
        centers = pts[np.arange(m), best]
        half = 0.2 * half
    return centers


def test_criterion_10_newton_inversion_vs_grid_oracle(flat_model, champ_model, report):
    rng = np.random.default_rng(3)
    worst, ok = 0.0, True
    for model, a in ((flat_model, np.array([0.25, 0.15])), (champ_model, np.array([0.3, 0.15]))):
        chart = action_coords(model, a)
        box = chart.xi_box
        xi_true = box.center + rng.uniform(-0.5, 0.5, size=(100, 2)) * box.half
        targets = chart.phi(xi_true)
        oracle = _grid_zoom_inverse(chart, targets)
        newton = np.array([invert_leading(chart, t) for t in targets])
        worst = max(worst, float(np.max(np.abs(newton - oracle))))
    ok = worst <= 1e-10
    report(10, "chart inversion matches dense-grid oracle", ok, f"max gap {worst:.2e}")
