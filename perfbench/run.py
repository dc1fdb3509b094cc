"""Benchmark of the pseudolattice pipeline, end to end and per layer.

    python3 perfbench/run.py --workload champagne-verify --seed 0 --seconds 38 --trace 0
    python3 perfbench/selftest.py     # checks of the benchmark itself, ~2 min

Run from the root of a source checkout; the package is imported from
``src/``.  Workloads:

* ``champagne-verify`` -- ``pseudolattice run`` in verify-all mode on the
  acceptance-suite octagon around the champagne focus-focus value
  (h = 1e-3, delta = 0.5): 341 spectral charts plus the classical oracle.
* ``flat-fine`` -- the same command on the flat model around the acceptance
  square loop at h = 2.5e-4: 152 charts of about 3,300 points each.
* ``bad-set`` -- ``bad_measure_estimate`` with 10^4 nodes on the champagne
  chart at (0.3, 0.15), four alphas (criterion 8).

The seed is the program's only varying input: the ``--seed`` of the CLI
run, or the ``rng`` of the bad-set estimate.  Each workload runs in its own
worker process with one BLAS/OpenMP thread and the library's default
concurrency.  Set-up (import, model, first action chart) is timed in
fresh processes and reported as the median.  Every call's output
fingerprint is checked; a call that raises, exits non-zero or breaks its
fingerprint counts as failed.

With ``--trace 0`` the last output line holds the end-to-end metrics
(``setup_s``, ``wall_s``, ``peak_rss_mb``; bad-set's ``wall_s`` is scaled
to a nominal machine speed, see REF_NOMINAL_S); with ``--trace 1`` it holds the
per-layer metrics of the traced calls, and the spans are written to
``.perfbench_out/``.  The line before it records the environment, every
call's wall time and fingerprint.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
DEADLINE_S = 170  # the whole run, set-up probes included, ends within this
# On a shared machine the speed of cache- and memory-bound NumPy work drifts
# by up to 1.6x for minutes at a time (bad-set calls: 0.9 to 1.5 s).  For a
# workload with "reference": True, each call's wall time is therefore divided
# by the mean time of a fixed memory-bound kernel (worker.reference_kernel,
# no package code) run just before and just after it, and reported in
# seconds at the speed where that kernel takes REF_NOMINAL_S (its median on
# a 2-core Xeon VM).  The kernels tried for the interpreter-bound loop
# workloads added more noise than they removed, so those report raw seconds,
# as does every set-up time.  Raw call times are in the record line.
REF_NOMINAL_S = 0.27
SETUP_PROBES = 2  # fresh processes timing set-up, besides the worker itself
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}

OCTAGON = [(0.15 + 0.3 * math.cos(2 * math.pi * t / 8), 0.3 * math.sin(2 * math.pi * t / 8)) for t in range(8)]
FLAT_SQUARE = [(0.30, 0.10), (0.42, 0.10), (0.42, 0.22), (0.30, 0.22)]

WORKLOADS = {
    "champagne-verify": {
        "kind": "loop",
        "model": "champagne",
        "well_depth": 1.0,
        "h": 1e-3,
        "vertices": OCTAGON,
        "reference": False,
        "expect": {
            "exit": 0,
            "charts": 341,
            "product": "[[2, -1], [1, 0]]",
            "normal_form": "[[1, 1], [0, 1]]",
            "parabolic_m": "1",
            "classical_product": "[[1, -1], [0, 1]]",
            "conjugate": "true",
        },
    },
    "flat-fine": {
        "kind": "loop",
        "model": "flat",
        "omega_star": [1.0, 0.7],
        "q_choice": "xi_weighted",
        "h": 2.5e-4,
        "vertices": FLAT_SQUARE,
        "reference": False,
        "expect": {
            "exit": 0,
            "charts": 152,
            "product": "[[1, 0], [0, 1]]",
            "normal_form": "[[1, 0], [0, 1]]",
            "parabolic_m": "0",
            "classical_product": "[[1, 0], [0, 1]]",
            "conjugate": "true",
        },
    },
    "bad-set": {
        "kind": "bad_set",
        "model": "champagne",
        "well_depth": 1.0,
        "setup_center": (0.3, 0.15),
        "d": 1.0,
        "alphas": [0.02, 0.01, 0.005, 0.0025],
        "samples": 10_000,
        "k_max": 500,
        "reference": True,
    },
}


# name, unit, better, and the end-to-end metric (and workloads) it should move
END_TO_END = [
    ("setup_s", "s", "lower", "import, model and first action chart (builds the champagne spline)"),
    ("wall_s", "s", "lower", "call to verdict or fractions, set-up excluded"),
    ("peak_rss_mb", "MB", "lower", "peak resident memory of the worker process"),
]
_CV, _FF, _BS = "champagne-verify", "flat-fine", "bad-set"
PER_LAYER = [
    ("models.self_s", "s", "lower", f"wall_s {_CV}, {_BS}; unchanged on {_FF}"),
    ("diophantine.self_s", "s", "lower", f"wall_s {_CV}, {_BS}"),
    ("averaging.self_s", "s", "lower", f"wall_s {_CV}"),
    ("synth.self_s", "s", "lower", f"wall_s {_CV}, {_FF}"),
    ("detect.self_s", "s", "lower", f"wall_s {_FF} first, then {_CV}"),
    ("monodromy.self_s", "s", "lower", f"wall_s {_CV}"),
    ("pipeline.self_s", "s", "lower", f"wall_s {_CV}, {_FF}"),
    ("cli.self_s", "s", "lower", f"wall_s {_CV}, {_FF} (small)"),
    ("plots.self_s", "s", "lower", f"wall_s {_CV}, {_FF} (small)"),
    ("pipeline.charts", "count", "lower", "exact count; wall_s on both loops scales with it"),
    ("pipeline.chart_ms_p50", "ms", "lower", f"wall_s {_CV}, {_FF}"),
    ("pipeline.chart_ms_p90", "ms", "lower", f"wall_s {_CV}, {_FF}"),
    ("models.min_energy.calls", "count", "lower", f"wall_s {_CV}"),
    ("models.min_energy.self_s", "s", "lower", f"wall_s {_CV}"),
    ("models.value_from_xi.calls", "count", "lower", f"wall_s {_CV}, {_BS}"),
    ("models.value_from_xi.self_s", "s", "lower", f"wall_s {_CV}, {_BS}"),
    ("models.action_coords.calls", "count", "lower", f"wall_s {_CV}"),
    ("models.action_coords.s", "s", "lower", f"wall_s {_CV}"),
    ("models.dist_to_singular.self_s", "s", "lower", f"wall_s and peak_rss_mb {_BS}"),
    ("diophantine.good_values.calls", "count", "lower", f"wall_s {_CV}"),
    ("diophantine.good_values.self_s", "s", "lower", f"wall_s {_CV}"),
    ("diophantine.good_hit_ratio", "ratio", "higher", f"wall_s {_CV}: charts per candidate value tested"),
    ("diophantine.bad_measure_estimate.self_s", "s", "lower", f"wall_s {_BS}"),
    ("synth.synth_spectrum.self_s", "s", "lower", f"wall_s {_CV}, {_FF}"),
    ("synth.points", "count", "lower", "exact count of synthesized eigenvalues"),
    ("synth.spectral_band.s", "s", "lower", f"wall_s {_CV}, {_FF}"),
    ("averaging.torus_average.calls", "count", "lower", f"wall_s {_CV}"),
    ("averaging.torus_average.self_s", "s", "lower", f"wall_s {_CV}"),
    ("detect.detect_basis.self_s", "s", "lower", f"wall_s {_FF} first, then {_CV}"),
    ("detect.label_lattice.self_s", "s", "lower", f"wall_s {_FF} first, then {_CV}"),
    ("detect.fit_hchart.self_s", "s", "lower", f"wall_s {_FF} first, then {_CV}"),
    ("detect.us_per_point", "us", "lower", f"wall_s {_FF} first, then {_CV}"),
    ("detect.max_residual_h", "h", "lower", "none: quality guard (fingerprint)"),
    ("detect.labeled_fraction_min", "fraction", "higher", "none: quality guard (fingerprint)"),
    ("monodromy.transition_matrix.calls", "count", "lower", f"wall_s {_CV}"),
    ("monodromy.transition_matrix.self_s", "s", "lower", f"wall_s {_CV}"),
    ("monodromy.classical_monodromy.s", "s", "lower", f"wall_s {_CV}"),
    ("monodromy.cover_loop.s", "s", "lower", f"wall_s {_CV}"),
    ("cli.output_bytes", "bytes", "lower", f"wall_s {_CV}, {_FF} (small)"),
    ("trace.overhead_frac", "fraction", "lower", "none: tracing health (traced vs untraced wall_s)"),
    ("trace.spans", "count", "lower", "none: tracing health"),
    ("trace.wall_s", "s", "lower", "none: traced wall_s, the base of trace.self_coverage"),
    ("trace.self_coverage", "fraction", "higher", "none: sum of self times over traced wall_s, 1 within 5 %"),
]


def loop_ini(w: dict) -> str:
    """verify-all config; vertices written with repr, so they are exact."""
    if w["model"] == "champagne":
        model = f"name = champagne\nwell_depth = {w['well_depth']!r}\n"
    else:
        model = f"name = flat\nomega_star = {w['omega_star'][0]!r} {w['omega_star'][1]!r}\nq_choice = {w['q_choice']}\n"
    verts = "".join(f"    {float(x)!r} {float(y)!r}\n" for x, y in w["vertices"])
    return (
        f"[model]\n{model}\n"
        f"[semiclassical]\nh = {w['h']!r}\ndelta = 0.5\nnoise_order = 3\n\n"
        "[diophantine]\nalpha = 0.001\nk_max = 500\n\n"
        "[run]\nmode = verify-all\n\n"
        f"[loop]\nvertices =\n{verts}"
    )


def make_job(name: str, seed: int, tmp: Path) -> dict:
    w = WORKLOADS[name]
    job = {k: v for k, v in w.items() if k not in ("vertices", "expect")}
    job.update(seed=seed, tmp=str(tmp))
    if w["kind"] == "loop":
        ini = tmp / "workload.ini"
        ini.write_text(loop_ini(w))
        job.update(ini=str(ini), setup_center=w["vertices"][0])
    return job


def spawn(job: dict, tmp: Path, tag: str, deadline: float) -> dict:
    """Run the worker on ``job`` in a fresh process and return its result."""
    job_path, res_path = tmp / f"{tag}.job.json", tmp / f"{tag}.result.json"
    job_path.write_text(json.dumps(job))
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = str(Path.cwd() / "src")
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(job_path), str(res_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    if proc.returncode != 0 or not res_path.exists():
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"worker '{tag}' exited with status {proc.returncode}")
    return json.loads(res_path.read_text())


def check_call(name: str, call: dict, first_fp: dict | None, expect: dict | None) -> str | None:
    """Reason the call failed, or None."""
    if call.get("error"):
        return call["error"].strip().splitlines()[-1]
    fp = call["fingerprint"]
    if first_fp is not None and fp != first_fp:
        return "fingerprint differs from the first call with the same seed"
    if WORKLOADS[name]["kind"] == "bad_set":
        fr = fp["fractions"]
        if len(fr) != len(WORKLOADS[name]["alphas"]) or not all(0.0 <= f <= 1.0 for f in fr):
            return f"fractions outside [0, 1]: {fr}"
        if any(b > a for a, b in zip(fr, fr[1:])):
            return f"fractions increase as alpha shrinks: {fr}"
        return None
    bad = {k: (fp.get(k), v) for k, v in expect.items() if fp.get(k) != v}
    return f"fingerprint mismatch (got, expected): {bad}" if bad else None


def median(xs):
    return float(statistics.median(xs))


def call_seconds(call: dict) -> float:
    """A call's wall time; with reference timings, at the nominal speed."""
    if "ref_before_s" not in call:
        return call["wall_s"]
    return call["wall_s"] * REF_NOMINAL_S / ((call["ref_before_s"] + call["ref_after_s"]) / 2)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="time budget of the measured calls")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--expect-product",
        default=None,
        help="override the expected spectral product, e.g. '[[1, 0], [0, 1]]' (self-test of the checks)",
    )
    args = ap.parse_args(argv)

    if not (Path.cwd() / "src" / "pseudolattice" / "__init__.py").is_file():
        print("error: run from the root of a pseudolattice checkout (src/pseudolattice not found)", file=sys.stderr)
        return 2
    name = args.workload
    seed = args.seed % 2**32  # the program takes non-negative seeds
    expect = dict(WORKLOADS[name].get("expect", {}))
    if args.expect_product is not None:
        expect["product"] = args.expect_product

    deadline = time.monotonic() + DEADLINE_S
    scratch = Path.cwd() / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=scratch))
    try:
        job = make_job(name, seed, tmp)
        probes = [spawn(dict(job, setup_only=True), tmp, f"setup{k}", deadline) for k in range(SETUP_PROBES)]
        out_dir = Path.cwd() / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        job.update(
            seconds=args.seconds,
            trace=args.trace,
            run_id=f"{name}-{seed}-{time.time_ns()}",
            spans_out=str(out_dir / f"spans-{name}-seed{seed}.jsonl"),
        )
        res = spawn(job, tmp, "worker", deadline)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    probes.append(res)

    calls = res["calls"]
    first_fp = next((c["fingerprint"] for c in calls if not c.get("error")), None)
    failures = []
    for k, call in enumerate(calls):
        why = check_call(name, call, first_fp, expect)
        if why:
            failures.append(f"call {k}: {why}")
    done = [c for c in calls if c["wall_s"] is not None]
    untraced = [call_seconds(c) for c in done if not c["traced"]]
    traced = [call_seconds(c) for c in done if c["traced"]]

    layers = res.get("layers", [])
    if args.trace and layers and untraced:
        table = PER_LAYER
        metrics = {key: median([m[key] for m in layers]) for key in layers[0]}
        metrics["trace.overhead_frac"] = median(traced) / median(untraced) - 1.0
    elif not args.trace and untraced:
        table = END_TO_END
        setup = median([p["setup_s"] for p in probes])
        metrics = {"setup_s": setup, "wall_s": median(untraced), "peak_rss_mb": res["peak_rss_mb"]}
    else:
        table = None

    record = {
        "workload": name,
        "seed": seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": res["env"]["numpy"],
        "scipy": res["env"]["scipy"],
        "thread_env": THREAD_ENV,
        "ref_nominal_s": REF_NOMINAL_S,
        "setup_s": [p["setup_s"] for p in probes],
        "calls": [{k: v for k, v in c.items() if k != "error"} for c in calls],
        "failures": failures,
    }
    for msg in failures:
        print(f"FAIL {msg}", file=sys.stderr)
    print(json.dumps({"record": record}))
    if table is None:
        print("error: no call completed, so there is nothing to measure", file=sys.stderr)
        return 1
    out = {}
    for key, unit, _, _ in table:
        out[key] = {"value": int(metrics[key]) if unit in ("count", "bytes") else metrics[key], "unit": unit}
    print(json.dumps({"correct": not failures, "attempted": len(calls), "failed": len(failures), "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
