"""One workload in one process: set up, then repeat the timed call.

Run by ``run.py``, never by hand:

    python3 perfbench/worker.py JOB.json RESULT.json

The job names the workload, its generated input and the time budget.  The
worker times the set-up (import, model, first action chart), then repeats
the workload's call until the budget would be exceeded, recording each
call's wall time and output fingerprint.  For a job that asks for it, the
reference kernel is timed before the first call and after each call, so
every call is bracketed by two reference timings.  A traced job alternates untraced and traced calls, so
the tracing overhead is measured in the same process.  Only the standard
library is imported before the set-up clock starts.
"""

import hashlib
import json
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path


def setup(job):
    """Import the package, build the model and one action chart."""
    t0 = time.perf_counter()
    import numpy as np

    import pseudolattice as pl

    if job["model"] == "champagne":
        model = pl.make_champagne_model(job["well_depth"])
    else:
        model = pl.make_flat_model(tuple(job["omega_star"]), job["q_choice"])
    chart = pl.action_coords(model, np.asarray(job["setup_center"], dtype=float))
    setup_s = time.perf_counter() - t0
    src = (Path.cwd() / "src").resolve()
    if src not in Path(pl.__file__).resolve().parents:
        raise RuntimeError(f"pseudolattice imported from {pl.__file__}, not from {src}")
    return setup_s, model, chart


def reference_kernel() -> float:
    """Seconds taken by fixed NumPy work that does not use the package.

    A broadcast distance minimum over 24 MB of temporaries, the same shape
    of work as ``dist_to_singular`` in the bad-set workload: bound by the
    shared cache and memory, whose speed drifts most on a shared machine.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    pts, curve = rng.random((2500, 2)), rng.random((600, 2))
    t0 = time.perf_counter()
    for _ in range(3):
        np.min(np.linalg.norm(pts[:, None, :] - curve[None, :, :], axis=-1), axis=-1)
    return time.perf_counter() - t0


def reference_seconds() -> float:
    """Run the reference kernel in a child process, so that its memory does
    not count in this process's peak RSS; returns the kernel's time."""
    out = subprocess.run([sys.executable, __file__, "--reference"], capture_output=True, text=True, check=True, timeout=60)
    return float(out.stdout)


def _parse_report(text):
    """Fingerprint fields of a ``monodromy.txt`` report."""
    sections, section = {}, None
    for line in text.splitlines():
        if line.startswith("["):
            section = sections.setdefault(line.strip("[]"), {})
        elif " = " in line and section is not None:
            key, val = line.split(" = ", 1)
            section[key] = val
    cls, classical = sections["class"], sections["classical"]
    return {
        "charts": len(sections["monodromy"]["loop"].split()),
        "product": cls["product"],
        "normal_form": cls["normal_form"],
        "parabolic_m": cls["parabolic_m"],
        "classical_product": classical["product"],
        "conjugate": classical["conjugate"],
    }


def run_loop(job, out: Path):
    """``pseudolattice run <ini> --out <out> --seed <s>``, in process."""
    from pseudolattice import cli

    t0 = time.perf_counter()
    rc = cli.main(["run", job["ini"], "--out", str(out), "--seed", str(job["seed"])])
    wall = time.perf_counter() - t0
    fp = {"exit": rc}
    report = out / "monodromy.txt"
    if report.exists():
        text = report.read_text()
        fp.update(_parse_report(text))
        fp["report_sha256"] = hashlib.sha256(text.encode()).hexdigest()
    out_bytes = sum(p.stat().st_size for p in out.iterdir())
    shutil.rmtree(out)
    return wall, fp, out_bytes


def run_bad_set(job, model, chart):
    """Criterion 8: Monte-Carlo bad-set fractions on the setup chart."""
    from pseudolattice import diophantine

    t0 = time.perf_counter()
    out = diophantine.bad_measure_estimate(
        model, chart, job["d"], job["alphas"], samples=job["samples"], rng=job["seed"], k_max=job["k_max"]
    )
    wall = time.perf_counter() - t0
    return wall, {"fractions": [f for _, f in out]}, 0


def main(job_path, result_path):
    job = json.loads(Path(job_path).read_text())
    setup_s, model, chart = setup(job)
    res = {"setup_s": setup_s, "calls": []}
    if job.get("setup_only"):
        Path(result_path).write_text(json.dumps(res))
        return 0

    import numpy as np
    import scipy

    res["env"] = {"numpy": np.__version__, "scipy": scipy.__version__}
    if job["trace"]:
        import tracing

        tracer = tracing.Tracer(run_id=job["run_id"])
        res["layers"] = []
    tmp = Path(job["tmp"])
    t_start = time.perf_counter()
    ref = reference_seconds() if job["reference"] else None
    n = 0
    while True:
        # a traced job alternates untraced and traced calls
        traced = bool(job["trace"]) and n % 2 == 1
        if traced:
            first = tracer.begin()
            restore = tracing.install(tracer)
        try:
            if job["kind"] == "loop":
                wall, fp, out_bytes = run_loop(job, tmp / f"out{n}")
            else:
                wall, fp, out_bytes = run_bad_set(job, model, chart)
            call = {"wall_s": wall, "traced": traced, "fingerprint": fp}
        except Exception:
            call = {"wall_s": None, "traced": traced, "error": traceback.format_exc()}
        finally:
            if traced:
                restore()
        if job["reference"]:
            call["ref_before_s"], ref = ref, reference_seconds()
            call["ref_after_s"] = ref
        if traced and call["wall_s"] is not None:
            m = tracing.layer_metrics(tracer, tracer.spans[first:], call["wall_s"])
            m["cli.output_bytes"] = out_bytes
            res["layers"].append(m)
        res["calls"].append(call)
        n += 1
        elapsed = time.perf_counter() - t_start
        # stop before a further call would overrun the budget; a traced job
        # needs one untraced and one traced call
        if elapsed + elapsed / n > job["seconds"] and not (job["trace"] and n < 2):
            break
    res["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if job["trace"]:
        tracer.write(job["spans_out"])
    Path(result_path).write_text(json.dumps(res))
    return 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--reference"]:
        print(repr(reference_kernel()))
        sys.exit(0)
    sys.exit(main(*sys.argv[1:3]))
