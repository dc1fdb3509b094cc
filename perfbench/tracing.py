"""Spans around the public functions of each pseudolattice layer.

The wrappers are installed from outside the package: every public function
of a layer module is replaced in each ``pseudolattice`` namespace that holds
it (``pipeline`` and ``cli`` import by name, so patching only the defining
module would miss their calls), and four ``ChampagneModel`` methods are
wrapped on the class.  Spans stay in memory with their parent ids and are
written out once, at the end of a run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import threading
import time

import numpy as np

LAYERS = ("models", "diophantine", "averaging", "synth", "detect", "monodromy", "pipeline", "cli", "plots")
CHAMPAGNE_METHODS = ("value_from_xi", "min_energy", "xi_from_value", "dist_to_singular")


class Tracer:
    """In-memory span recorder: one list of spans, a parent stack per thread."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []  # [id, parent, layer, name, start_ns, end_ns, iteration]
        self.iteration = -1
        self._local = threading.local()
        self._lock = threading.Lock()
        self.begin()

    def begin(self) -> int:
        """Start a new traced iteration; returns the index of its first span."""
        self.iteration += 1
        # objects returned by some calls, summarised after the iteration so
        # that no extra work lands inside a span
        self.results = {"fit_hchart": [], "synth_spectrum": []}
        self.detect_points = 0
        self.candidates = 0
        return len(self.spans)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "good_values":
                tracer._count_candidates(args[3] if len(args) > 3 else kwargs["grid_spec"])
            elif name == "fit_hchart":
                tracer.detect_points += len(args[0] if args else kwargs["cloud"])
            stack = tracer._stack()
            with tracer._lock:
                sid = len(tracer.spans)
                span = [sid, stack[-1] if stack else None, layer, name, 0, 0, tracer.iteration]
                tracer.spans.append(span)
            stack.append(sid)
            span[4] = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[5] = time.perf_counter_ns()
                stack.pop()
            if name in tracer.results:
                tracer.results[name].append(out)
            return out

        return traced

    def _count_candidates(self, grid_spec):
        if np.isscalar(grid_spec):
            self.candidates += int(grid_spec) ** 2
        else:
            self.candidates += len(np.atleast_2d(np.asarray(grid_spec)))

    def write(self, path):
        with open(path, "w") as fh:
            for sid, parent, layer, name, t0, t1, it in self.spans:
                rec = {"run": self.run_id, "iter": it, "id": sid, "parent": parent,
                       "layer": layer, "name": name, "start_ns": t0, "end_ns": t1}
                fh.write(json.dumps(rec) + "\n")


def install(tracer: Tracer):
    """Wrap every public layer function and the champagne model methods.

    Returns a function that puts the original objects back.
    """
    mods = {layer: importlib.import_module(f"pseudolattice.{layer}") for layer in LAYERS}
    namespaces = list(mods.values()) + [importlib.import_module("pseudolattice")]
    patched = []
    for layer, mod in mods.items():
        for name, fn in list(vars(mod).items()):
            if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            wrapped = tracer.wrap(layer, name, fn)
            for ns in namespaces:
                if vars(ns).get(name) is fn:
                    patched.append((ns, name, fn))
                    setattr(ns, name, wrapped)
    cls = mods["models"].ChampagneModel
    for name in CHAMPAGNE_METHODS:
        fn = vars(cls)[name]
        patched.append((cls, name, fn))
        setattr(cls, name, tracer.wrap("models", name, fn))

    def restore():
        for owner, name, fn in patched:
            setattr(owner, name, fn)

    return restore


def _durations(spans):
    """Inclusive and self duration (s) of every span."""
    incl = np.array([(s[5] - s[4]) * 1e-9 for s in spans], dtype=float)
    child = np.zeros(len(spans))
    for s in spans:
        if s[1] is not None:
            child[s[1] - spans[0][0]] += incl[s[0] - spans[0][0]]
    return incl, incl - child


def layer_metrics(tracer: Tracer, spans, wall_s: float) -> dict:
    """Per-layer figures of one traced iteration (``spans`` are its spans)."""
    incl, self_t = _durations(spans)
    layers = np.array([s[2] for s in spans])
    names = np.array([f"{s[2]}.{s[3]}" for s in spans])
    by_id = {s[0]: s for s in spans}

    def outermost(qual):
        """Inclusive time of calls to ``qual`` not nested in another such call."""
        total = 0.0
        for k, s in enumerate(spans):
            if names[k] != qual:
                continue
            p = s[1]
            while p is not None and f"{by_id[p][2]}.{by_id[p][3]}" != qual:
                p = by_id[p][1]
            if p is None:
                total += incl[k]
        return total

    def calls(qual):
        return int(np.sum(names == qual))

    def self_s(qual):
        return float(np.sum(self_t[names == qual]))

    m = {f"{layer}.self_s": float(np.sum(self_t[layers == layer])) for layer in LAYERS}
    chart_ms = incl[names == "pipeline.spectral_chart_at"] * 1e3
    charts = int(chart_ms.size)
    hcharts = tracer.results["fit_hchart"]
    clouds = tracer.results["synth_spectrum"]
    m.update({
        "pipeline.charts": charts,
        "pipeline.chart_ms_p50": float(np.percentile(chart_ms, 50)) if charts else 0.0,
        "pipeline.chart_ms_p90": float(np.percentile(chart_ms, 90)) if charts else 0.0,
        "models.min_energy.calls": calls("models.min_energy"),
        "models.min_energy.self_s": self_s("models.min_energy"),
        "models.value_from_xi.calls": calls("models.value_from_xi"),
        "models.value_from_xi.self_s": self_s("models.value_from_xi"),
        "models.action_coords.calls": calls("models.action_coords"),
        "models.action_coords.s": outermost("models.action_coords"),
        "models.dist_to_singular.self_s": self_s("models.dist_to_singular"),
        "diophantine.good_values.calls": calls("diophantine.good_values"),
        "diophantine.good_values.self_s": self_s("diophantine.good_values"),
        "diophantine.good_hit_ratio": charts / tracer.candidates if tracer.candidates else 0.0,
        "diophantine.bad_measure_estimate.self_s": self_s("diophantine.bad_measure_estimate"),
        "synth.synth_spectrum.self_s": self_s("synth.synth_spectrum"),
        "synth.points": int(sum(len(c) for c in clouds)),
        "synth.spectral_band.s": outermost("synth.spectral_band"),
        "averaging.torus_average.calls": calls("averaging.torus_average"),
        "averaging.torus_average.self_s": self_s("averaging.torus_average"),
        "detect.detect_basis.self_s": self_s("detect.detect_basis"),
        "detect.label_lattice.self_s": self_s("detect.label_lattice"),
        "detect.fit_hchart.self_s": self_s("detect.fit_hchart"),
        "detect.us_per_point": m["detect.self_s"] / tracer.detect_points * 1e6 if tracer.detect_points else 0.0,
        "detect.max_residual_h": max((float(h.max_residual()) for h in hcharts), default=0.0),
        "detect.labeled_fraction_min": min((float(h.labeled_fraction) for h in hcharts), default=0.0),
        "monodromy.transition_matrix.calls": calls("monodromy.transition_matrix"),
        "monodromy.transition_matrix.self_s": self_s("monodromy.transition_matrix"),
        "monodromy.classical_monodromy.s": outermost("monodromy.classical_monodromy"),
        "monodromy.cover_loop.s": outermost("monodromy.cover_loop"),
        "trace.spans": len(spans),
        "trace.wall_s": wall_s,
        "trace.self_coverage": float(np.sum(self_t)) / wall_s,
    })
    return m
