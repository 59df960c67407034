"""Span tracing of the library from outside.

``Tracer.install`` wraps every public function of the ``loopybp`` modules,
but the per-message ``engine.update_message``, at every place its name is
bound (a function imported into another module is wrapped there too), so
calls between modules and within one module are both seen. Spans ``[name, start, end, parent, note]`` stay in memory; ``note``
holds a small value taken from the return value for the counters below.
``uninstall`` restores the original bindings.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time

MODULES = ("models", "engine", "trees", "bounds", "convergence", "accuracy",
           "uniform", "cli")


def _arg(fn, name):
    """Reads argument ``name`` of a call to ``fn`` from (args, kwargs)."""
    sig = inspect.signature(fn)

    def get(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments[name]

    return get


# Span-name suffixes that split one function into the variants the metrics
# name, and notes kept from return values.
def _variants(mods):
    improved = _arg(mods["bounds"].nonuniform_distance_bound, "improved")
    tree = _arg(mods["convergence"].nonuniform_condition, "tree")
    return {
        "bounds.nonuniform_distance_bound":
            lambda a, kw: ":improved" if improved(a, kw) else "",
        "convergence.nonuniform_condition": lambda a, kw: ":" + tree(a, kw),
    }


# Called once per message update, so a span each would put the tracer's own
# cost into the per-sweep and per-pop figures of its callers.
_UNWRAPPED = {"engine.update_message"}

_NOTES = {
    "engine.run_synchronous": lambda out: out.iterations,
    "engine.run_residual_scheduled": lambda out: out[1],
    "trees.saw_tree": len,
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._saved: list = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def _wrap(self, name, fn, variant, note):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name if variant is None
                            else name + variant(args, kwargs))
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if note is not None:
                self.spans[idx][4] = note(out)
            return out

        return traced

    def install(self) -> None:
        pkg = importlib.import_module("loopybp")
        mods = {m: importlib.import_module(f"loopybp.{m}") for m in MODULES}
        variants = _variants(mods)
        wrappers = {}
        for short, mod in mods.items():
            for name, obj in vars(mod).items():
                span = f"{short}.{name}"
                if inspect.isfunction(obj) and not name.startswith("_") \
                        and obj.__module__ == mod.__name__ \
                        and span not in _UNWRAPPED:
                    wrappers[id(obj)] = self._wrap(span, obj,
                                                   variants.get(span),
                                                   _NOTES.get(span))
        for mod in (pkg, *mods.values()):
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._saved.append((mod, name, obj))
                    setattr(mod, name, wrappers[id(obj)])

    def uninstall(self) -> None:
        for mod, name, obj in self._saved:
            setattr(mod, name, obj)
        self._saved.clear()


# -- metrics ---------------------------------------------------------------


def _children(spans):
    kids = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            kids[s[3]].append(i)
    return kids


def self_times(spans) -> list:
    """Duration of each span minus the time its direct children cover."""
    kids = _children(spans)
    return [s[2] - s[1] - sum(spans[c][2] - spans[c][1] for c in kids[i])
            for i, s in enumerate(spans)]


def _outermost(spans, names):
    """Spans in ``names`` with no ancestor in ``names``, so nested calls of
    one layer are not counted twice."""
    out = []
    for i, s in enumerate(spans):
        if s[0] not in names:
            continue
        p = s[3]
        while p >= 0 and spans[p][0] not in names:
            p = spans[p][3]
        if p < 0:
            out.append(i)
    return out


def _busy(spans, *names):
    """Time inside the outermost spans of ``names``; None if none ran."""
    idx = _outermost(spans, set(names))
    return sum(spans[i][2] - spans[i][1] for i in idx) if idx else None


def _notes(spans, name) -> list:
    return [s[4] for s in spans if s[0] == name]


def _nested(spans, inner, outer) -> int:
    """How many spans named ``inner`` run inside a span named ``outer``."""
    n = 0
    for s in spans:
        if s[0] != inner:
            continue
        p = s[3]
        while p >= 0 and spans[p][0] != outer:
            p = spans[p][3]
        n += p >= 0
    return n


def module_self(spans) -> dict:
    """Self time per module; spans outside the library count as ``bench``."""
    out: dict = {}
    for s, t in zip(spans, self_times(spans)):
        mod = s[0].split(".")[0]
        key = mod if mod in MODULES else "bench"
        out[key] = out.get(key, 0.0) + t
    return out


def _ratio(num, den, scale=1.0):
    return None if num is None or not den else num / den * scale


def _sum(values):
    return sum(values) if values else None


def pass_metrics(spans, useful_residual: float) -> dict:
    """Per-module metrics of one traced pass, as {name: (value, unit)}.

    A value is None when the layer did not run in the pass.
    """
    m = {}
    m["models.parse_s"] = (_busy(spans, "models.parse_graph_file",
                                 "models.parse_graph_text"), "s")
    m["models.strengths_s"] = (_busy(spans, "models.compute_strengths"), "s")
    m["models.generate_s"] = (_busy(spans, "models.build_generator",
                                    "models.with_uniform_binary"), "s")

    sync_s = _busy(spans, "engine.run_synchronous")
    sweeps = _sum(_notes(spans, "engine.run_synchronous"))
    m["engine.sync_s"] = (sync_s, "s")
    m["engine.sync_sweeps"] = (sweeps, "count")
    m["engine.sweep_us"] = (_ratio(sync_s, sweeps, 1e6), "us")
    res_s = _busy(spans, "engine.run_residual_scheduled")
    traces = _notes(spans, "engine.run_residual_scheduled")
    updates = _sum([t.total_updates for t in traces])
    pops = [(p, r) for t in traces for _, p, r in t.entries]
    m["engine.residual_s"] = (res_s, "s")
    m["engine.residual_updates"] = (updates, "count")
    m["engine.pop_us"] = (_ratio(res_s, updates, 1e6), "us")
    m["engine.residual_useful_ratio"] = (_ratio(
        sum(1 for _, r in pops if r > useful_residual), len(pops)), "ratio")
    m["engine.residual_slack_p50"] = (
        statistics.median(p - r for p, r in pops) if pops else None, "log")
    m["engine.certificate_violations"] = (
        sum(1 for p, r in pops if r > p) if traces else None, "count")
    emp_s = _busy(spans, "engine.empirical_critical_eta")
    emp_probes = _nested(spans, "engine.empirical_convergent",
                         "engine.empirical_critical_eta")
    m["engine.empirical_critical_s"] = (emp_s, "s")
    m["engine.empirical_probes"] = (emp_probes if emp_s else None, "count")
    m["engine.empirical_probe_ms"] = (_ratio(emp_s, emp_probes, 1e3), "ms")

    m["bounds.report_s"] = (_busy(spans, "bounds.bound_report"), "s")
    for key, span in (
            ("udb", "uniform_distance_bound"),
            ("improved_udb", "improved_uniform_distance_bound"),
            ("ihler_udb", "ihler_uniform_distance_bound"),
            ("nudb", "nonuniform_distance_bound"),
            ("improved_nudb", "nonuniform_distance_bound:improved"),
            ("ihler_nudb", "ihler_nonuniform_distance_bound"),
            ("true_distance", "true_distance")):
        m[f"bounds.{key}_s"] = (_busy(spans, f"bounds.{span}"), "s")

    for key, span in (("uniform", "uniform_condition"),
                      ("ihler_uniform", "ihler_uniform_condition"),
                      ("bethe", "nonuniform_condition:bethe"),
                      ("saw", "nonuniform_condition:saw"),
                      ("walksum", "walk_summability"),
                      ("interaction_matrix", "interaction_matrix"),
                      ("spectral_radius", "spectral_radius")):
        m[f"convergence.{key}_s"] = (_busy(spans, f"convergence.{span}"), "s")
    crit_s = _busy(spans, "convergence.critical_eta")
    probes = _nested(spans, "convergence.evaluate_condition",
                     "convergence.critical_eta")
    m["convergence.critical_probes"] = (probes if crit_s else None, "count")
    m["convergence.probe_ms"] = (_ratio(crit_s, probes, 1e3), "ms")

    m["trees.saw_tree_s"] = (_busy(spans, "trees.saw_tree"), "s")
    m["trees.saw_tree_nodes"] = (_sum(_notes(spans, "trees.saw_tree")),
                                 "count")

    acc_s = _busy(spans, "accuracy.saw_accuracy")
    m["accuracy.exact_s"] = (_busy(spans, "accuracy.exact_marginals"), "s")
    m["accuracy.saw_accuracy_s"] = (acc_s, "s")
    m["accuracy.per_node_ms"] = (
        _ratio(acc_s, len(_notes(spans, "accuracy.saw_accuracy")), 1e3), "ms")

    m["uniform.fixed_points_s"] = (_busy(spans, "uniform.fixed_points"), "s")
    m["cli.self_s"] = (module_self(spans).get("cli"), "s")
    return m
