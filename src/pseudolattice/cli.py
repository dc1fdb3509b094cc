"""Command-line driver: run declarative configs through the pipeline.

Usage: ``pseudolattice run config.ini [--out DIR] [--seed N]``.

Configs are INI-style structured text with [model], [semiclassical],
[diophantine], [loop] and [run] sections; any other section or key is a
config error.  Artifacts (spectrum tables, chart files, monodromy reports,
SVG plots) are written to a timestamped output directory, or directly to
``--out`` when given.  Exit status: 0 on success, 1 when a pipeline check
fails, 2 for config errors and a bad ``--seed`` or ``--out``.
"""

from __future__ import annotations

import argparse
import configparser
import inspect
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import plots
from .detect import gauge_alignment
from .diophantine import DiophantineParams
from .models import (
    ModelSystem,
    ParameterError,
    PipelineError,
    chart_to_text,
    make_champagne_model,
    make_flat_model,
)
from .monodromy import (
    VERDICT_TEXT,
    MonodromyClass,
    classical_monodromy,
    cocycle_check,
    compare_monodromies,
    monodromy_report,
)
from .pipeline import _spectral_clouds, spectral_chart_at, spectral_monodromy
from .synth import SemiclassicalParams, spectral_band

MODES = ("synth", "detect", "monodromy", "verify-all")


class ConfigError(Exception):
    def __init__(self, message, lineno=None):
        super().__init__(message)
        self.lineno = lineno


@dataclass
class RunConfig:
    model: ModelSystem
    params: SemiclassicalParams
    dio: DiophantineParams
    mode: str
    center: np.ndarray | None = None
    vertices: np.ndarray | None = None


def _line_map(cp, text: str) -> dict:
    """Where ``cp`` read ``text``: ``(section, None)`` maps to ``[line of its
    header]``, ``(section, key)`` to the lines of the key and of each non-empty
    row of its value.  configparser's scan: blank lines and full-line comments
    are skipped, and a line indented deeper than its key continues the value."""
    lines, rows, indent = {}, None, 0
    for n, line in enumerate(text.split("\n"), start=1):
        value = line.strip()
        if not value or value.startswith(("#", ";")):
            continue
        level = len(line) - len(line.lstrip())
        if rows is not None and level > indent:
            rows.append(n)
            continue
        indent, header = level, cp.SECTCRE.match(value)
        if header:
            section, rows = header["header"], None
            lines[section, None] = [n]
        else:
            option = cp.OPTCRE.match(value)
            rows = lines[section, cp.optionxform(option["option"].rstrip())] = [n, n] if option["value"] else [n]
    return lines


def _at(lines: dict, section: str, key: str, row: int | None = None) -> int | None:
    """The line of ``key`` in ``[section]``, or in ``[DEFAULT]`` if the section
    does not set it; with ``row``, the line of that non-empty row of its value."""
    key = key.lower()  # as configparser stores it
    at = lines.get((section, key)) or lines.get(("DEFAULT", key))
    return at and at[0 if row is None else row + 1]


def _get(cp, lines, section, key, cast, required=False):
    if not cp.has_option(section, key):
        if required:
            raise ConfigError(f"missing key '{key}' in section [{section}]")
        return None
    raw = cp.get(section, key)
    try:
        return cast(raw)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad value for '{key}' in section [{section}]: {raw!r} ({exc})", lineno=_at(lines, section, key)) from exc


def _build(cp, lines: dict, section: str, make, **casts):
    """``make`` called with the keys of ``[section]`` that the file sets, each
    read by its cast; a key that ``make`` has no default for is required.  A
    :class:`ParameterError` is a :class:`ConfigError` at the line of its key."""
    sig = inspect.signature(make).parameters
    kwargs = {
        key: _get(cp, lines, section, key, cast, required=True)
        for key, cast in casts.items()
        if cp.has_option(section, key) or sig[key].default is inspect.Parameter.empty
    }
    try:
        return make(**kwargs)
    except ParameterError as exc:
        raise ConfigError(str(exc), lineno=_at(lines, section, exc.key)) from exc


def _parse_pair(raw: str) -> np.ndarray:
    parts = raw.split()
    if len(parts) != 2:
        raise ValueError("expected two numbers")
    pair = np.array([float(parts[0]), float(parts[1])])
    if not np.all(np.isfinite(pair)):
        raise ValueError("expected finite numbers")
    return pair


def _q_choice(raw: str) -> str:
    if raw != "xi_weighted":
        raise ValueError("only xi_weighted is supported: the flat model's value plane takes G = xi_2, its torus average")
    return raw


# the casts of each section's keys; a model's keys are its constructor's
MODELS = {
    "flat": (make_flat_model, {"omega_star": _parse_pair, "q_choice": _q_choice}),
    "champagne": (make_champagne_model, {"well_depth": float}),
}
SEMICLASSICAL = {"h": float, "delta": float, "noise_order": int, "seed": int, "C0": float}
DIOPHANTINE = {"alpha": float, "d": float, "k_max": int}


def _check_keys(lines: dict, keys: dict):
    """Raise :class:`ConfigError` at the first section of ``lines`` that ``keys``
    does not name, or at the first key set in a section that the section does
    not take; a ``[DEFAULT]`` key must be taken by some section."""
    keys = dict(keys, DEFAULT=[k for ks in keys.values() for k in ks])
    for (section, key), (n, *_) in lines.items():
        if section not in keys:
            raise ConfigError(f"unknown section [{section}] (expected {', '.join(keys)})", lineno=n)
        if key is not None and key not in [k.lower() for k in keys[section]]:  # as configparser stores them
            raise ConfigError(f"unknown key '{key}' in section [{section}] (expected one of {', '.join(keys[section])})", lineno=n)


def _parse_vertices(cp, lines: dict) -> np.ndarray | None:
    """The ``[loop]`` vertex rows, or None; a bad row is reported by its
    index, at its own line."""
    if not cp.has_option("loop", "vertices"):
        return None
    rows = [r for r in cp.get("loop", "vertices").split("\n") if r]
    bad = "bad value for 'vertices' in section [loop]: "
    if len(rows) < 3:
        raise ConfigError(bad + "need at least 3 loop vertices", lineno=_at(lines, "loop", "vertices"))
    pairs = []
    for i, row in enumerate(rows):
        try:
            pairs.append(_parse_pair(row))
        except ValueError as exc:
            raise ConfigError(f"{bad}row {i} {row!r} ({exc})", lineno=_at(lines, "loop", "vertices", i)) from exc
    return np.array(pairs)


def parse_config(path: str) -> RunConfig:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}")
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text, source=path)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}", lineno=getattr(exc, "lineno", None))
    lines = _line_map(cp, text)

    for section in ("model", "semiclassical", "run"):
        if not cp.has_section(section):
            raise ConfigError(f"missing section [{section}]")

    name = _get(cp, lines, "model", "name", str, required=True)
    if name not in MODELS:
        raise ConfigError(f"unknown model '{name}' (expected flat or champagne)", lineno=_at(lines, "model", "name"))
    make, casts = MODELS[name]
    _check_keys(lines, {
        "model": ["name", *casts], "semiclassical": SEMICLASSICAL, "diophantine": DIOPHANTINE,
        "run": ["mode", "center"], "loop": ["vertices"],
    })

    model = _build(cp, lines, "model", make, **casts)
    params = _build(cp, lines, "semiclassical", SemiclassicalParams, **SEMICLASSICAL)
    dio = _build(cp, lines, "diophantine", DiophantineParams, **DIOPHANTINE)

    mode = _get(cp, lines, "run", "mode", str, required=True)
    if mode not in MODES:
        raise ConfigError(f"unknown mode '{mode}' (expected one of {', '.join(MODES)})", lineno=_at(lines, "run", "mode"))
    center = _get(cp, lines, "run", "center", _parse_pair)
    vertices = _parse_vertices(cp, lines)

    if mode in ("synth", "detect") and center is None:
        raise ConfigError(f"mode '{mode}' requires 'center' in section [run]")
    if mode in ("monodromy", "verify-all") and vertices is None:
        raise ConfigError(f"mode '{mode}' requires a [loop] section with vertices")

    return RunConfig(
        model=model,
        params=params,
        dio=dio,
        mode=mode,
        center=center,
        vertices=vertices,
    )


def _output_dir(out_arg: str | None, mode: str) -> Path:
    if out_arg:
        d = Path(out_arg)
        d.mkdir(parents=True, exist_ok=True)
        return d
    stamp = time.strftime("%Y%m%d-%H%M%S")
    base = Path("runs") / f"{mode}-{stamp}"
    d = base
    n = 1
    while d.exists():
        d = Path(f"{base}-{n}")
        n += 1
    d.mkdir(parents=True)
    return d


def _moved(cfg: RunConfig, cloud) -> str:
    """The summary's note of the good value a cloud was built at, when that
    is not the config's center."""
    a = cloud.rectangle.center
    if np.array_equal(a, cfg.center):
        return ""
    return f" at good value ({a[0]:.6g}, {a[1]:.6g}), {np.linalg.norm(a - cfg.center):.3g} from the center"


def _run_synth(cfg: RunConfig, out: Path) -> int:
    (sym,), (cloud,) = _spectral_clouds(cfg.model, cfg.center[None], cfg.params, cfg.dio)
    if len(cloud) == 0:
        E, G = cloud.rectangle.center
        raise PipelineError(f"rectangle 0 at ({E:.6g}, {G:.6g}): no eigenvalue in the good rectangle", "empty_cloud", 0)
    (out / "spectrum.tsv").write_text(cloud.to_text())
    (out / "chart.txt").write_text(chart_to_text(sym.chart))
    (out / "spectrum.svg").write_text(plots.plot_spectrum(cloud))
    print(f"synthesized {len(cloud)} eigenvalues{_moved(cfg, cloud)} -> {out}")
    return 0


def _run_detect(cfg: RunConfig, out: Path) -> int:
    el = spectral_chart_at(cfg.model, cfg.center, cfg.params, cfg.dio)
    cloud, hc, ac = el.cloud, el.hchart, el.action_chart
    M, c = gauge_alignment(hc, ac)
    # criterion 2's quantity at the labeled points: the leading term against the ground truth
    err = np.max(np.abs(hc.f_tilde0(hc.u, M, c, ac.eta) - ac.xi_of_c(hc.u))) / hc.h
    gauge = f"[gauge]\ngauge_M = {M.tolist()}\ngauge_c = {int(c[0])} {int(c[1])}\nleading_term_error = {float(err)!r}\n"
    (out / "spectrum.tsv").write_text(cloud.to_text())
    (out / "hchart.txt").write_text(hc.to_text() + gauge)
    (out / "spectrum.svg").write_text(plots.plot_spectrum(cloud, hc))
    (out / "residuals.svg").write_text(plots.plot_residuals(hc))
    print(
        f"detected lattice: {len(hc.labels)} labeled points, "
        f"max residual {hc.max_residual():.4f} h, fraction {hc.labeled_fraction:.4f}{_moved(cfg, cloud)} -> {out}"
    )
    return 0


def _loop_monodromy(cfg: RunConfig, out: Path):
    """Spectral and classical loop monodromy; writes ``monodromy.txt`` and
    ``loop.svg``.  Returns ``(spectral, classical, spectral atlas, elements,
    verdict)``."""
    cls, atlas, elements = spectral_monodromy(cfg.model, cfg.vertices, cfg.params, cfg.dio)
    classical = classical_monodromy(cfg.model, cfg.vertices)
    (out / "monodromy.txt").write_text(monodromy_report(cls, classical))
    centers = np.array([el.action_chart.c for el in elements])
    sing = [p for kind, p in cfg.model.singular_values if p is not None]
    (out / "loop.svg").write_text(plots.plot_loop(cfg.vertices, centers, sing))
    return cls, classical, atlas, elements, compare_monodromies(cls, classical)


def _verdict_failures(spectral: MonodromyClass, verdict: bool | None) -> list:
    """The failure for a verdict other than true, as a list of one
    :class:`PipelineError` with its reason code."""
    if verdict is None:
        trace, det = spectral.invariants
        msg = f"conjugacy undecided for trace {trace}, det {det}: only the det 1, |trace| <= 2 and the det -1, trace 0 classes are decided"
        return [PipelineError(msg, "undecided")]
    return [] if verdict else [PipelineError("spectral class not conjugate to transposed classical class", "not_conjugate")]


def _run_monodromy(cfg: RunConfig, out: Path) -> int:
    cls, classical, _, elements, verdict = _loop_monodromy(cfg, out)
    print(
        f"monodromy over {len(elements)} charts: spectral m = {cls.parabolic_m}, "
        f"classical m = {classical.parabolic_m}, conjugate: {VERDICT_TEXT[verdict]} -> {out}"
    )
    failures = _verdict_failures(cls, verdict)
    for exc in failures:
        print(f"  FAIL: [{exc.reason}] {exc}", file=sys.stderr)
    return 0 if not failures else 1


def _run_verify_all(cfg: RunConfig, out: Path) -> int:
    cls, _, atlas, elements, verdict = _loop_monodromy(cfg, out)
    failures = _verdict_failures(cls, verdict)
    cocycle = cocycle_check(atlas)
    if not cocycle.ok:
        i, j, k = cocycle.violations[0][:3]
        failures.append(PipelineError(f"cocycle violated on {len(cocycle.violations)} triple(s), first at charts ({i}, {j}, {k})", "cocycle"))

    # band containment on the first rectangle; its cloud and fit are made again
    el0 = elements[0]
    cloud0, hc0, rect0 = el0.cloud, el0.hchart, el0.rectangle
    band = spectral_band(cfg.model, el0.action_chart, rect0.center[0], rect0.half[0], cfg.params)
    if not np.all((cloud0.points.imag >= band[0]) & (cloud0.points.imag <= band[1])):
        failures.append(PipelineError("eigenvalues escape the spectral band", "band"))

    (out / "spectrum.tsv").write_text(cloud0.to_text())
    (out / "spectrum.svg").write_text(plots.plot_spectrum(cloud0, hc0))
    (out / "residuals.svg").write_text(plots.plot_residuals(hc0))

    worst = max(el.max_residual for el in elements)
    frac = min(el.labeled_fraction for el in elements)
    print(
        f"verify-all over {len(elements)} charts: max residual {worst:.4f} h, "
        f"min labeled fraction {frac:.4f}; conjugate: {VERDICT_TEXT[verdict]}; "
        f"cocycle: {cocycle.triples_checked} triples; {len(failures)} failure(s) -> {out}"
    )
    for exc in failures:
        print(f"  FAIL: [{exc.reason}] {exc}", file=sys.stderr)
    return 0 if not failures else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="pseudolattice", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute a run configuration")
    runp.add_argument("config", help="path to the config file")
    runp.add_argument("--out", default=None, help="output directory (default: timestamped under runs/)")
    runp.add_argument("--seed", type=int, default=None, help="override the config seed")
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config)
    except ConfigError as exc:
        loc = f"{args.config}:{exc.lineno}: " if exc.lineno else f"{args.config}: "
        print(f"error: {loc}{exc}", file=sys.stderr)
        return 2
    if args.seed is not None:
        try:
            cfg.params = replace(cfg.params, seed=args.seed)
        except ValueError as exc:
            print(f"error: --seed: {exc}", file=sys.stderr)
            return 2

    try:
        out = _output_dir(args.out, cfg.mode)
    except OSError as exc:  # an --out that names a file or a path under one
        print(f"error: {'--out' if args.out else 'output directory'}: {exc}", file=sys.stderr)
        return 2
    try:
        if cfg.mode == "synth":
            return _run_synth(cfg, out)
        if cfg.mode == "detect":
            return _run_detect(cfg, out)
        if cfg.mode == "monodromy":
            return _run_monodromy(cfg, out)
        return _run_verify_all(cfg, out)
    except ValueError as exc:  # ModelError, DetectionError and MonodromyError among them
        reason = getattr(exc, "reason", None)
        print(f"error: {f'[{reason}] ' if reason else ''}{exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
