"""Self-test of the benchmark itself (about 2 minutes on two cores).

    python3 perfbench/selftest.py

Run from the root of a source checkout.  It checks that

* ``BENCHMARK.json`` lists exactly the workloads and metrics ``run.py``
  reports, with the same units and directions;
* on every workload, an untraced and a traced run of one seed give identical
  fingerprints, and each prints exactly its metric set;
* the per-layer self times account for the traced wall time within 5 %;
* a wrong expected spectral product makes every call count as failed.
"""

import json
import subprocess
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent


def bench(*args):
    """Run the benchmark; returns (record, result) from its last two lines."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seed", "0", "--seconds", "1", *args],
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def check(cond, what):
    print(f"{'ok  ' if cond else 'FAIL'} {what}", flush=True)
    return bool(cond)


def main() -> int:
    ok = True
    spec = json.loads(Path("BENCHMARK.json").read_text())
    ok &= check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS), "BENCHMARK.json workloads")
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        ok &= check(listed == [row[:3] for row in table], f"BENCHMARK.json {key} metrics")

    for name in run.WORKLOADS:
        fingerprints = []
        for trace, table in ((0, run.END_TO_END), (1, run.PER_LAYER)):
            record, result = bench("--workload", name, "--trace", str(trace))
            ok &= check(result["correct"] and result["failed"] == 0, f"{name} trace {trace}: correct")
            ok &= check(list(result["metrics"]) == [row[0] for row in table], f"{name} trace {trace}: metric set")
            fingerprints += [c["fingerprint"] for c in record["calls"]]
            if trace:
                cov = result["metrics"]["trace.self_coverage"]["value"]
                ok &= check(abs(cov - 1.0) <= 0.05, f"{name}: self times cover traced wall_s ({cov:.4f})")
        same = all(fp == fingerprints[0] for fp in fingerprints)
        ok &= check(same, f"{name}: traced and untraced fingerprints identical ({len(fingerprints)} calls)")

    _, result = bench("--workload", "flat-fine", "--expect-product", "[[2, -1], [1, 0]]")
    ok &= check(
        not result["correct"] and result["failed"] == result["attempted"] >= 1,
        "wrong expected product: every call counts as failed",
    )
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
