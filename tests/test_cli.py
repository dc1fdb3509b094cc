import configparser
import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pseudolattice.cli import ConfigError, _at, _line_map, main, parse_config
from pseudolattice.detect import gauge_alignment
from pseudolattice.models import action_coords, make_flat_model
from pseudolattice.pipeline import spectral_chart_at
from pseudolattice.synth import NormalFormSymbol, SemiclassicalParams, good_rectangle, synth_spectrum

FLAT_SYNTH = """\
[model]
name = flat
omega_star = 1.0 0.7
q_choice = xi_weighted

[semiclassical]
h = 1e-3
delta = 0.5
seed = 7

[run]
mode = synth
center = 0.25 0.15
"""

FLAT_LOOP = """\
[model]
name = flat
omega_star = 1.0 0.7

[semiclassical]
h = 1e-3
delta = 0.5

[run]
mode = monodromy

[loop]
vertices =
    0.30 0.10
    0.42 0.10
    0.42 0.22
    0.30 0.22
"""


_VERTICES = FLAT_LOOP[FLAT_LOOP.index("    0.30 0.10") :]


def _write(tmp_path, text, name="cfg.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_parse_config_valid(tmp_path):
    cfg = parse_config(_write(tmp_path, FLAT_SYNTH))
    assert cfg.model.name == "flat"
    assert cfg.params.h == 1e-3
    assert cfg.params.seed == 7
    assert cfg.mode == "synth"
    assert np.allclose(cfg.center, [0.25, 0.15])
    loop_cfg = parse_config(_write(tmp_path, FLAT_LOOP, "loop.ini"))
    assert loop_cfg.vertices.shape == (4, 2)


def test_parse_config_missing_section(tmp_path):
    with pytest.raises(ConfigError, match="missing section"):
        parse_config(_write(tmp_path, "[model]\nname = flat\nomega_star = 1 0.7\n"))


def test_parse_config_bad_value_has_line_number(tmp_path):
    bad = FLAT_SYNTH.replace("h = 1e-3", "h = banana")
    path = _write(tmp_path, bad)
    with pytest.raises(ConfigError) as exc:
        parse_config(path)
    expected_line = next(
        n for n, l in enumerate(bad.splitlines(), 1) if l.startswith("h =")
    )
    assert exc.value.lineno == expected_line


def test_parse_config_bad_value_line_is_in_its_section(tmp_path):
    # 'd' in [diophantine] must not be reported at 'delta' in [semiclassical]
    bad = FLAT_SYNTH + "\n[diophantine]\nalpha = 1e-3\nd = banana\n"
    path = _write(tmp_path, bad)
    with pytest.raises(ConfigError) as exc:
        parse_config(path)
    assert exc.value.lineno == bad.splitlines().index("d = banana") + 1


def test_parse_config_unknown_mode(tmp_path):
    with pytest.raises(ConfigError, match="unknown mode"):
        parse_config(_write(tmp_path, FLAT_SYNTH.replace("mode = synth", "mode = dance")))


def test_parse_config_mode_requirements(tmp_path):
    no_center = FLAT_SYNTH.replace("center = 0.25 0.15", "")
    with pytest.raises(ConfigError, match="requires 'center'"):
        parse_config(_write(tmp_path, no_center))
    with pytest.raises(ConfigError, match="requires a \\[loop\\]"):
        parse_config(
            _write(tmp_path, FLAT_SYNTH.replace("mode = synth", "mode = monodromy"))
        )


def test_parse_config_h_out_of_range(tmp_path):
    with pytest.raises(ConfigError, match="out of range"):
        parse_config(_write(tmp_path, FLAT_SYNTH.replace("h = 1e-3", "h = 0.5")))


def test_main_synth_matches_library(tmp_path, capsys):
    cfg = _write(tmp_path, FLAT_SYNTH)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    tsv = (out / "spectrum.tsv").read_text()
    rows = [l for l in tsv.splitlines() if not l.startswith(("#", "[")) and "=" not in l]
    m = make_flat_model((1.0, 0.7), "xi_weighted")
    chart = action_coords(m, np.array([0.25, 0.15]))
    params = SemiclassicalParams(h=1e-3, delta=0.5, seed=7)
    rect = good_rectangle(np.array([0.25, 0.15]), params, chart.domain.half[0])
    cloud = synth_spectrum(NormalFormSymbol(chart, {}), rect, params)
    assert len(rows) == len(cloud)
    assert (out / "spectrum.svg").exists()
    assert str(len(cloud)) in capsys.readouterr().out


CHAMPAGNE_SYNTH = """\
[model]
name = champagne

[semiclassical]
h = 1e-3
delta = 0.5

[run]
mode = synth
center = {center}
"""


@pytest.mark.parametrize("center", ["0.3 0.02", "0.1 0.01", "0.44 0.165"])
def test_main_synth_matches_detect_spectrum(tmp_path, capsys, center):
    # at (0.1, 0.01) the chart radius caps the rectangle, and (0.44, 0.165)
    # is not a good value: synth mode must build the rectangle that detect
    # mode builds
    synth = _write(tmp_path, CHAMPAGNE_SYNTH.format(center=center))
    detect = _write(tmp_path, CHAMPAGNE_SYNTH.format(center=center).replace("mode = synth", "mode = detect"), "d.ini")
    assert main(["run", synth, "--out", str(tmp_path / "s")]) == 0
    assert main(["run", detect, "--out", str(tmp_path / "d")]) == 0
    assert (tmp_path / "s" / "spectrum.tsv").read_bytes() == (tmp_path / "d" / "spectrum.tsv").read_bytes()
    # both summaries name the good value used when it is not the center
    run = parse_config(detect)
    a = spectral_chart_at(run.model, run.center, run.params, run.dio).cloud.rectangle.center
    note = f" at good value ({a[0]:.6g}, {a[1]:.6g}), {np.linalg.norm(a - run.center):.3g} from the center -> "
    summaries = capsys.readouterr().out.splitlines()
    assert [note in line for line in summaries] == [center == "0.44 0.165"] * 2


def test_main_detect_mode(tmp_path, capsys):
    cfg = _write(tmp_path, FLAT_SYNTH.replace("mode = synth", "mode = detect"))
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    assert (out / "hchart.txt").read_text().startswith("[h-chart]")
    assert (out / "residuals.svg").exists()
    assert "max residual" in capsys.readouterr().out


def test_main_detect_mode_writes_the_gauge(tmp_path):
    # hchart.txt ends with the gauge alignment against the action chart and
    # criterion 2's leading-term error at the labeled points, in units of h
    cfg = _write(tmp_path, FLAT_SYNTH.replace("mode = synth", "mode = detect"))
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    head, gauge = (out / "hchart.txt").read_text().split("[gauge]\n")
    run = parse_config(cfg)
    el = spectral_chart_at(run.model, run.center, run.params, run.dio)
    hc, ac = el.hchart, el.action_chart
    assert head == hc.to_text()
    M, c = gauge_alignment(hc, ac)
    err = float(np.max(np.abs(hc.f_tilde0(hc.u, M, c, ac.eta) - (ac.tau_c + ac.xi_of_c(hc.u)))) / hc.h)
    assert gauge == f"gauge_M = {M.tolist()}\ngauge_c = {c[0]} {c[1]}\nleading_term_error = {err!r}\n"
    assert abs(round(float(np.linalg.det(M)))) == 1
    eps = run.params.epsilon
    assert err <= 5.0 * (eps + hc.h / eps) / hc.h  # criterion 2's bound


def test_main_config_error_exit_2(tmp_path, capsys):
    bad = FLAT_SYNTH.replace("h = 1e-3", "h = banana")
    path = _write(tmp_path, bad)
    assert main(["run", path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    line = next(n for n, l in enumerate(bad.splitlines(), 1) if l.startswith("h ="))
    assert f"{path}:{line}:" in err
    assert not (tmp_path / "o").exists()


_CHAMPAGNE = CHAMPAGNE_SYNTH.format(center="0.3 0.02")


@pytest.mark.parametrize(
    "base, old, new, key",
    [
        (FLAT_LOOP, "delta = 0.5", "delta = 0.5\nC0 = 0", "C0"),
        (FLAT_SYNTH, "delta = 0.5", "delta = 0.5\nC0 = 0.5", "C0"),
        (FLAT_SYNTH, "[run]", "[diophantine]\nk_max = 50\n\n[run]", "k_max"),
        (FLAT_SYNTH, "[run]", "[diophantine]\nd = 0\n\n[run]", "d"),
        (FLAT_LOOP, _VERTICES, _VERTICES.replace("\n", " 0.0\n"), "vertices"),
        (FLAT_SYNTH, "seed = 7", "seed = -1", "seed"),
        (FLAT_SYNTH, "delta = 0.5", "delta = 0.5\nnoise_order = 0", "noise_order"),
        (_CHAMPAGNE, "name = champagne", "name = champagne\nwell_depth = -1", "well_depth"),
        (FLAT_SYNTH, "q_choice = xi_weighted", "q_choice = bogus", "q_choice"),
        (FLAT_SYNTH, "q_choice = xi_weighted", "q_choice = cos_x1", "q_choice"),
        (FLAT_SYNTH, "q_choice = xi_weighted", "q_choice = const3", "q_choice"),
        (_CHAMPAGNE, "name = champagne", "name = champagne\nwell_depth = nan", "well_depth"),
        (FLAT_SYNTH, "omega_star = 1.0 0.7", "omega_star = nan 1", "omega_star"),
        (FLAT_LOOP, "    0.42 0.10", "    nan 0.10", "vertices"),
        (FLAT_LOOP, "    0.42 0.10", "    inf 0.10", "vertices"),
        (FLAT_SYNTH, "[run]", "[diophantine]\nd = inf\n\n[run]", "d"),
        (FLAT_SYNTH, "h = 1e-3\ndelta = 0.5", "h = 0.1\ndelta = 0.9", "delta"),
        (FLAT_SYNTH, "omega_star = 1.0 0.7", "omega_star = 0 0", "omega_star"),
        (FLAT_SYNTH, "center = 0.25 0.15", "center = inf 0.15", "center"),
        (_CHAMPAGNE, "name = champagne", "name = champagne\nwell_depth = inf", "well_depth"),
        (FLAT_SYNTH, "delta = 0.5", "delta = 0.5\nC0 = nan", "C0"),
        (FLAT_LOOP, "delta = 0.5", "delta = 0.5\nC0 = inf", "C0"),
        (FLAT_SYNTH, "h = 1e-3", "h = 1e-3%", "h"),
        (FLAT_SYNTH, "seed = 7", "seed = 18446744073709551616", "seed"),
        (FLAT_SYNTH, "[run]", "[diophantine]\nk_max = 16777216\n\n[run]", "k_max"),
    ],
    ids=[
        "C0-zero",
        "C0-below-one",
        "k_max-below-100",
        "d-zero",
        "vertex-three-numbers",
        "seed-negative",
        "noise_order-zero",
        "well_depth-negative",
        "q_choice-unknown",
        "q_choice-cos_x1",
        "q_choice-const3",
        "well_depth-nan",
        "omega_star-nan",
        "vertex-nan",
        "vertex-inf",
        "d-inf",
        "scales-not-separated",
        "omega_star-zero",
        "center-inf",
        "well_depth-inf",
        "C0-nan",
        "C0-inf",
        "h-percent",
        "seed-2^64",
        "k_max-2^24",
    ],
)
def test_main_invalid_value_exit_2(tmp_path, capsys, base, old, new, key):
    # rejected while parsing, naming the key and its line, before any run
    assert old in base
    text = base.replace(old, new)
    path = _write(tmp_path, text)
    assert main(["run", path, "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()
    err = capsys.readouterr().err
    lines = text.splitlines()
    line = next(n for n, l in enumerate(lines, 1) if l.split("=")[0].strip() == key)
    if key == "vertices":  # a bad row is reported by its index, at its own line
        row = next(n for n, (l, b) in enumerate(zip(lines, base.splitlines()), 1) if l != b)
        assert f"row {row - line - 1} {lines[row - 1].strip()!r}" in err
        line = row
    assert f"{path}:{line}:" in err
    assert key in err


@pytest.mark.parametrize(
    "text, line",
    [
        (FLAT_SYNTH.replace("seed = 7", "seed = 7\nnoise_ordr = 1"), "noise_ordr = 1"),
        (FLAT_SYNTH.replace("[run]", "[diophantin]\nalpha = 5\n\n[run]"), "[diophantin]"),
        (FLAT_SYNTH.replace("q_choice = xi_weighted", "well_depth = 2"), "well_depth = 2"),
        (FLAT_SYNTH.replace("center = 0.25 0.15", "center = 0.25 0.15\nvertices = 0 0"), "vertices = 0 0"),
        ("[DEFAULT]\nnoise_ordr = 1\n\n" + FLAT_SYNTH, "noise_ordr = 1"),
        (FLAT_SYNTH + "\n[Model]\nname = flat\n", "[Model]"),
    ],
    ids=[
        "key-misspelled", "section-misspelled", "key-of-the-other-model", "key-of-another-section", "default-key-unknown",
        "section-case",
    ],
)
def test_main_unknown_key_or_section_exit_2(tmp_path, capsys, text, line):
    # a key or section that no constructor takes would be ignored: it is
    # rejected at its line before any run
    path = _write(tmp_path, text)
    out = tmp_path / "o"
    assert main(["run", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{path}:{text.splitlines().index(line) + 1}: unknown " in err
    assert not out.exists()


def test_parse_config_default_section_keys(tmp_path):
    # a [DEFAULT] key that some section takes reaches that section
    cfg = parse_config(_write(tmp_path, "[DEFAULT]\nseed = 3\n\n" + FLAT_SYNTH.replace("seed = 7\n", "")))
    assert cfg.params.seed == 3


def test_readme_config_runs_at_the_constructor_defaults(tmp_path):
    # every key the README example omits takes the default its constructor declares
    ini = re.search(r"```ini\n(.*?)```", (Path(__file__).parents[1] / "README.md").read_text(), re.S).group(1)
    cfg = parse_config(_write(tmp_path, ini))
    cp = configparser.ConfigParser()
    cp.read_string(ini)
    omitted = []
    for obj, section in ((cfg.params, "semiclassical"), (cfg.dio, "diophantine")):
        for f in dataclasses.fields(obj):
            if not cp.has_option(section, f.name):
                omitted.append(f.name)
                assert getattr(obj, f.name) == f.default, f.name
    assert omitted == ["C0", "d", "k_max"]


def test_main_negative_seed_option_exit_2(tmp_path, capsys):
    # --seed overrides the config after parsing; a negative one is refused
    # before any run, where it used to end in an OverflowError traceback
    path = _write(tmp_path, FLAT_SYNTH)
    out = tmp_path / "o"
    assert main(["run", path, "--out", str(out), "--seed", "-3"]) == 2
    assert "error: --seed: seed = -3 must be a non-negative integer" in capsys.readouterr().err
    assert not out.exists()


def test_main_seed_option_past_64_bits_exit_2(tmp_path, capsys):
    # the noise generator takes a 64-bit seed; a larger one used to end in an
    # OverflowError traceback from np.uint64
    path = _write(tmp_path, FLAT_SYNTH)
    out = tmp_path / "o"
    assert main(["run", path, "--out", str(out), "--seed", str(2**64)]) == 2
    assert f"error: --seed: seed = {2**64} must be a non-negative integer below 2^64" in capsys.readouterr().err
    assert not out.exists()


def test_main_missing_file_exit_2(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.ini"), "--out", str(tmp_path / "o")]) == 2
    assert "cannot read config" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_main_undecodable_file_exit_2(tmp_path, capsys):
    # a byte that is not text in the locale's encoding is a config error, not
    # a UnicodeDecodeError traceback
    path = tmp_path / "bad.ini"
    path.write_bytes(FLAT_SYNTH.replace("name = flat", "name = flat\xff").encode("latin-1"))
    with pytest.raises(ConfigError, match="cannot read config: .*can't decode byte 0xff"):
        parse_config(str(path))
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: cannot read config: ")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("out", ["file", "file/sub"])
def test_main_out_under_a_file_exit_2(tmp_path, capsys, out):
    # an --out that names an existing file, or a path under one, is refused
    # like a bad --seed, where it used to end in an OSError traceback
    (tmp_path / "file").write_text("kept")
    assert main(["run", _write(tmp_path, FLAT_SYNTH), "--out", str(tmp_path / out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --out: [Errno ") and str(tmp_path / out) in err
    assert (tmp_path / "file").read_text() == "kept"


@pytest.mark.parametrize(
    "text, line",
    [
        ("[DEFAULT]\nseed = -1\n\n" + FLAT_SYNTH.replace("seed = 7\n", ""), "seed = -1"),
        ("[DEFAULT]\nC0 = banana\n\n" + FLAT_SYNTH, "C0 = banana"),
        ("[DEFAULT]\nvertices = 0 0\n  0 1\n\n  # a comment\n  1 x\n\n" + FLAT_LOOP[: FLAT_LOOP.index("vertices =")], "  1 x"),
        ("[DEFAULT]\nmode = dance\n\n" + FLAT_SYNTH.replace("mode = synth\n", ""), "mode = dance"),
    ],
    ids=["bad-range", "bad-value", "bad-vertex-row", "unknown-mode"],
)
def test_main_default_key_error_at_its_line(tmp_path, capsys, text, line):
    # a key that a section takes from [DEFAULT] is reported at its [DEFAULT] line
    path = _write(tmp_path, text)
    assert main(["run", path, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}:{text.splitlines().index(line) + 1}: ")


def test_main_synth_deterministic(tmp_path):
    cfg = _write(tmp_path, FLAT_SYNTH)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", cfg, "--out", str(out1)]) == 0
    assert main(["run", cfg, "--out", str(out2)]) == 0
    assert (out1 / "spectrum.tsv").read_bytes() == (out2 / "spectrum.tsv").read_bytes()
    assert (out1 / "spectrum.svg").read_bytes() == (out2 / "spectrum.svg").read_bytes()
    # a different seed changes the table
    out3 = tmp_path / "c"
    assert main(["run", cfg, "--out", str(out3), "--seed", "8"]) == 0
    assert (out1 / "spectrum.tsv").read_bytes() != (out3 / "spectrum.tsv").read_bytes()


def test_plot_circle_count(tmp_path):
    cfg = _write(tmp_path, FLAT_SYNTH)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    tsv = (out / "spectrum.tsv").read_text()
    n = len([l for l in tsv.splitlines() if not l.startswith(("#", "[")) and "=" not in l])
    svg = (out / "spectrum.svg").read_text()
    assert svg.count("<circle") == n


def test_main_monodromy_flat_loop(tmp_path, capsys):
    cfg = _write(tmp_path, FLAT_LOOP)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    text = (out / "monodromy.txt").read_text()
    assert "conjugate = true" in text
    assert "normal_form = [[1, 0], [0, 1]]" in text
    assert "conjugate: true" in capsys.readouterr().out
    assert (out / "loop.svg").exists()


def test_parse_config_diophantine_defaults(tmp_path):
    cfg = parse_config(_write(tmp_path, FLAT_SYNTH))
    assert (cfg.dio.alpha, cfg.dio.d, cfg.dio.k_max) == (1e-3, 1.0, 1000)


def _with_product(run, P):
    """``run`` with the product of the class it returns (alone or first) replaced by ``P``."""

    def wrapped(*args, **kwargs):
        out = run(*args, **kwargs)
        cls = out[0] if isinstance(out, tuple) else out
        cls = dataclasses.replace(cls, product=np.array(P))
        return (cls,) + out[1:] if isinstance(out, tuple) else cls

    return wrapped


@pytest.mark.parametrize("mode", ["monodromy", "verify-all"])
def test_main_undecided_conjugacy_fails(tmp_path, capsys, monkeypatch, mode):
    # hyperbolic trace 3 products: equal (trace, det), conjugacy not decided
    import pseudolattice.cli as cli

    monkeypatch.setattr(cli, "spectral_monodromy", _with_product(cli.spectral_monodromy, [[2, 1], [1, 1]]))
    monkeypatch.setattr(cli, "classical_monodromy", _with_product(cli.classical_monodromy, [[1, 1], [1, 2]]))
    cfg = _write(tmp_path, FLAT_LOOP.replace("mode = monodromy", f"mode = {mode}"))
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 1
    assert "conjugate = undecided" in (out / "monodromy.txt").read_text()
    captured = capsys.readouterr()
    assert "conjugate: undecided" in captured.out
    assert captured.err == (
        "  FAIL: [undecided] conjugacy undecided for trace 3, det 1: "
        "only the det 1, |trace| <= 2 and the det -1, trace 0 classes are decided\n"
    )


@pytest.mark.parametrize("mode", ["monodromy", "verify-all"])
def test_main_not_conjugate_fails(tmp_path, capsys, monkeypatch, mode):
    # the flat loop's spectral class is the identity; a parabolic classical
    # class has the same (trace, det) and another |m|
    import pseudolattice.cli as cli

    monkeypatch.setattr(cli, "classical_monodromy", _with_product(cli.classical_monodromy, [[1, 1], [0, 1]]))
    cfg = _write(tmp_path, FLAT_LOOP.replace("mode = monodromy", f"mode = {mode}"))
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 1
    assert "conjugate = false" in (out / "monodromy.txt").read_text()
    captured = capsys.readouterr()
    assert "conjugate: false" in captured.out
    assert captured.err == "  FAIL: [not_conjugate] spectral class not conjugate to transposed classical class\n"


def test_main_verify_all_fails_on_a_cocycle_violation(tmp_path, capsys, monkeypatch):
    # verify-all checks the cocycle of the spectral atlas it used; a
    # violation is a failure naming the first triple
    import pseudolattice.cli as cli

    check, reports = cli.cocycle_check, []

    def with_violation(atlas):
        reports.append(check(atlas))
        eye = np.eye(2, dtype=np.int64)
        return dataclasses.replace(reports[0], violations=[(3, 4, 5, eye, -eye)])

    monkeypatch.setattr(cli, "cocycle_check", with_violation)
    cfg = _write(tmp_path, FLAT_LOOP.replace("mode = monodromy", "mode = verify-all"))
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 1
    assert len(reports) == 1 and reports[0].ok and reports[0].triples_checked > 0
    captured = capsys.readouterr()
    assert f"conjugate: true; cocycle: {reports[0].triples_checked} triples; 1 failure(s)" in captured.out
    assert captured.err == "  FAIL: [cocycle] cocycle violated on 1 triple(s), first at charts (3, 4, 5)\n"
    assert "conjugate = true" in (out / "monodromy.txt").read_text()


def test_main_verify_all_fails_on_eigenvalues_outside_the_band(tmp_path, capsys, monkeypatch):
    # a band above the real one holds none of the first rectangle's eigenvalues
    import pseudolattice.cli as cli

    band = cli.spectral_band

    def band_above(*args):
        hi = band(*args)[1]
        return hi + 1.0, hi + 2.0

    monkeypatch.setattr(cli, "spectral_band", band_above)
    cfg = _write(tmp_path, FLAT_LOOP.replace("mode = monodromy", "mode = verify-all"))
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert "conjugate: true; cocycle: " in captured.out and "; 1 failure(s)" in captured.out
    assert captured.err == "  FAIL: [band] eigenvalues escape the spectral band\n"


OCTAGON_NOISY = f"""\
[model]
name = champagne
well_depth = 1.0

[semiclassical]
h = 0.001
delta = 0.5
noise_order = 1

[diophantine]
alpha = 0.001
k_max = 500

[run]
mode = verify-all

[loop]
vertices =
""" + "".join(
    f"    {0.15 + 0.3 * math.cos(2 * math.pi * t / 8)!r} {0.3 * math.sin(2 * math.pi * t / 8)!r}\n" for t in range(8)
)


def test_main_chart_fit_error_names_rectangle(tmp_path, capsys):
    # noise of order h buries the lattice: the error gives its reason code and
    # the rectangle it came from, and no output file is written
    out = tmp_path / "out"
    assert main(["run", _write(tmp_path, OCTAGON_NOISY), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: \[unlabeled_fraction\] rectangle 0 at \(\S+, \S+\): unlabeled fraction \S+ exceeds 0.01\n", err)
    assert list(out.iterdir()) == []



def test_main_loop_through_the_focus_focus_value_names_it(tmp_path, capsys):
    # the cover shrinks toward the value geometrically and would never end:
    # it stops where a chart center would be refused, and says why
    verts = "".join(f"    {x} {y}\n" for x, y in [(-0.1, -0.1), (0.1, -0.1), (0.1, 0.1), (-0.1, 0.1), (0, 0)])
    text = OCTAGON_NOISY.replace("noise_order = 1", "noise_order = 3")
    out = tmp_path / "out"
    assert main(["run", _write(tmp_path, text[: text.index("vertices =\n") + 11] + verts), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: \[singular_set\] loop passes within 0.001 of the singular set at \((\S+), (\S+)\)\n", err)
    E, G = map(float, re.findall(r"\((\S+), (\S+)\)", err)[0])
    assert 0.0 < math.hypot(E, G) < 1e-3
    assert list(out.iterdir()) == []


def test_main_loop_outside_the_action_table_gives_reason(tmp_path, capsys):
    # the loop crosses E = 0.95 b^2, the top of the shipped action table: the
    # first of its centers whose chart grid leaves the table is named
    from pseudolattice.models import ModelError
    from pseudolattice.pipeline import spectral_monodromy

    verts = "".join(f"    {x} {y}\n" for x, y in [(0.6, 0), (1.1, 0), (1.1, 0.2), (0.6, 0.2)])
    text = OCTAGON_NOISY.replace("noise_order = 1", "noise_order = 3")
    cfg, out = _write(tmp_path, text[: text.index("vertices =\n") + 11] + verts), tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == (
        "error: [out_of_table] center 42 at (0.865631323454144, 0.0): "
        "value outside the tabled range -0.26 b^2 <= E <= 0.95 b^2, |l| <= 0.72 b^1.5\n"
    )
    assert list(out.iterdir()) == []
    c = parse_config(cfg)
    with pytest.raises(ModelError) as exc:
        spectral_monodromy(c.model, c.vertices, c.params, c.dio)
    assert (exc.value.reason, exc.value.index) == ("out_of_table", 42)


def test_main_no_good_value_gives_reason(tmp_path, capsys):
    # no value is 10 away from a resonance: the fallback search finds no good node
    cfg = _write(tmp_path, FLAT_SYNTH.replace("[run]", "[diophantine]\nalpha = 10\n\n[run]"))
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: [no_good_value] rectangle 0: no good value found near (0.25, 0.15)\n"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "mode, err",
    [
        ("synth", "error: [empty_cloud] rectangle 0 at (0.3, 0.15): no eigenvalue in the good rectangle\n"),
        ("detect", "error: [too_few_points] rectangle 0 at (0.3, 0.15): insufficient points for basis detection (0 < 25)\n"),
    ],
    ids=["synth", "detect"],
)
def test_main_empty_rectangle_fails_before_writing(tmp_path, capsys, mode, err):
    # at C0 = 10000 the good rectangle is about 3e-6 wide and holds no
    # eigenvalue: each mode names its reason and writes no file
    text = CHAMPAGNE_SYNTH.format(center="0.3 0.15").replace("delta = 0.5", "delta = 0.5\nC0 = 10000")
    out = tmp_path / "out"
    assert main(["run", _write(tmp_path, text.replace("mode = synth", f"mode = {mode}")), "--out", str(out)]) == 1
    assert capsys.readouterr().err == err
    assert list(out.iterdir()) == []


_ROW = st.text("0123456789 .=:-[]abXY", min_size=1, max_size=6)


@st.composite
def _ini_texts(draw):
    """INI texts with mixed-case keys set by = or :, values on the key line or
    on indented rows below it, blank and comment lines inside values, and
    perhaps a [DEFAULT] section; a key line may itself be indented."""
    fillers = ["", "   ", "# note", "  ; note = 1"]
    out = draw(st.lists(st.sampled_from(fillers), max_size=2))
    for section in draw(st.lists(st.sampled_from(["DEFAULT", "model", "Run", "a b"]), min_size=1, max_size=3, unique=True)):
        out.append(f"[{section}]")
        for key in draw(st.lists(st.text("abAB_", min_size=1, max_size=3), max_size=4, unique_by=str.lower)):
            indent = draw(st.sampled_from(["", " "]))
            space = draw(st.sampled_from(["", " ", "  "]))
            first = draw(st.one_of(st.just(""), _ROW))
            out.append(f"{indent}{key}{space}{draw(st.sampled_from('=:'))}{space}{first}")
            for row in draw(st.lists(st.one_of(_ROW, st.sampled_from(fillers)), max_size=4)):
                deeper = indent + draw(st.sampled_from([" ", "\t", "    "]))
                out.append(row if row in fillers else deeper + row)
    return "\n".join(out) + "\n"


def _own(text: str, n: int | None = None):
    """The parse of the first ``n`` lines of ``text`` by a parser that keeps
    each section's own keys, [DEFAULT] among the sections."""
    own = configparser.ConfigParser(interpolation=None, default_section="")
    own.read_string("\n".join(text.split("\n")[:n]))
    return own


@given(_ini_texts())
@settings(max_examples=150, deadline=None)
def test_line_map_agrees_with_configparser(text):
    # configparser itself is the oracle: a line defines a section or key when
    # the parse of the text up to it holds the section or key and the parse
    # of the text before it does not; row i of a value is at the line whose
    # stripped text is configparser's row i
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error:
        assume(False)
    lines, own, text_lines = _line_map(cp, text), _own(text), text.split("\n")
    assert list(lines) == [(s, k) for s in own.sections() for k in [None, *own.options(s)]]
    for (section, key), (n, *_) in lines.items():
        before, upto = _own(text, n - 1), _own(text, n)
        if key is None:
            assert not before.has_section(section) and upto.has_section(section)
        else:
            assert not before.has_option(section, key) and upto.has_option(section, key)
    for section in cp.sections():
        for key in cp.options(section):
            home = section if own.has_option(section, key) else "DEFAULT"
            assert _at(lines, section, key) == lines[home, key][0]
            rows = [r for r in cp.get(section, key).split("\n") if r]
            assert len(lines[home, key]) == 1 + len(rows)
            for i, row in enumerate(rows):
                text_line = text_lines[_at(lines, section, key, i) - 1].strip()
                assert text_line == row or (i == 0 and cp.OPTCRE.match(text_line)["value"] == row)
