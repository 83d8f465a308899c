"""Span recording from outside the program, for the traced passes only.

``install(tracer)`` replaces every public function of the eight modules
under ``src/mtriples/`` with a proxy that records a span (name, start, end,
parent span, job) around the call.  The proxy is bound in every module
namespace that holds the function, so names re-imported into sibling
modules (``geodesy.gauss4_segments``, ``surfaces.simpson_segments``,
``mtriple.eval_array`` ...) and recursive calls through the module global
(``derivative``) are traced too.  A few proxies also read problem sizes
from arguments and return values, and count the points a quadrature rule
hands to its integrand by wrapping that callable.  Spans stay in memory;
the caller writes them out when its pass ends.  The program's source does
not change, and untraced passes never import this module.
"""

from __future__ import annotations

import functools
import os
import sys
import time
import types
from collections import defaultdict

import numpy as np

MODULES = ("expr", "mtriple", "quadrature", "geodesy", "estimates", "surfaces", "reporting", "cli")


class Tracer:
    """Spans of one process, kept as parallel lists."""

    def __init__(self):
        self.names: list = []
        self.start: list = []
        self.end: list = []
        self.parent: list = []
        self.job: list = []
        self.attrs: dict = {}
        self.current_job = -1
        self._stack: list = []

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self.current_job)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def to_json(self) -> dict:
        return {"names": self.names, "start": self.start, "end": self.end,
                "parent": self.parent, "job": self.job,
                "attrs": {str(k): v for k, v in self.attrs.items()}}

    def merge(self, spans: dict, parent: int, job: int) -> None:
        """Append spans recorded by a child process under span ``parent``.

        perf_counter is CLOCK_MONOTONIC on Linux, so child times line up.
        """
        base = len(self.names)
        self.names += spans["names"]
        self.start += spans["start"]
        self.end += spans["end"]
        self.parent += [parent if p < 0 else p + base for p in spans["parent"]]
        self.job += [job] * len(spans["names"])
        for k, v in spans["attrs"].items():
            self.attrs[int(k) + base] = v


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_integrand(args, kwargs):
    """Swap the integrand for a wrapper that counts the points it is given."""
    fvec = _arg(args, kwargs, 0, "fvec")
    seen = [0]

    def counted(zs):
        seen[0] += int(np.size(zs))
        return fvec(zs)

    if args:
        args = (counted,) + tuple(args[1:])
    else:
        kwargs = dict(kwargs, fvec=counted)
    return args, kwargs, (seen, int(np.size(_arg(args, kwargs, 1, "za"))))


def _quadrature_sizes(result, ctx):
    seen, segments = ctx
    return {"segments": segments, "points": seen[0]}


def _file_bytes(path) -> int:
    total = os.path.getsize(path)
    sidecar = f"{path}.hermitian.json"
    return total + (os.path.getsize(sidecar) if os.path.exists(sidecar) else 0)


def _points(args, kwargs, index, name):
    return args, kwargs, int(np.size(_arg(args, kwargs, index, name)))


# span name -> (before(args, kwargs) -> (args, kwargs, ctx), after(result, ctx) -> attrs)
_HOOKS = {
    "geodesy.build_mesh": (
        lambda a, k: (a, k, (repr(_arg(a, k, 0, "domain")), _arg(a, k, 2, "resolution"),
                             bool(k.get("refine_punctures", a[3] if len(a) > 3 else True)))),
        lambda r, ctx: {"nodes": r.n_nodes, "edges": len(r.edges_i), "key": repr(ctx)},
    ),
    "quadrature.gauss4_segments": (_count_integrand, _quadrature_sizes),
    "quadrature.simpson_segments": (_count_integrand, _quadrature_sizes),
    "mtriple.metric_density_array": (lambda a, k: _points(a, k, 1, "zs"), lambda r, n: {"points": n}),
    "mtriple.curvature_array": (lambda a, k: _points(a, k, 1, "zs"), lambda r, n: {"points": n}),
    "expr.eval_array": (lambda a, k: _points(a, k, 1, "zs"), lambda r, n: {"points": n}),
    "expr.eval_array_checked": (lambda a, k: _points(a, k, 1, "zs"), lambda r, n: {"points": n}),
    "expr.spherical_gradient_array": (lambda a, k: _points(a, k, 1, "zs"), lambda r, n: {"points": n}),
    "mtriple.check_regularity": (None, lambda r, ctx: {"candidates": len(r.entries)}),
    "surfaces.export_mesh": (
        lambda a, k: (a, k, _arg(a, k, 2, "path")), lambda r, path: {"bytes": _file_bytes(path)}),
    "geodesy.write_nodes_csv": (
        lambda a, k: (a, k, _arg(a, k, 1, "path")), lambda r, path: {"bytes": _file_bytes(path)}),
    "geodesy.write_edges_csv": (
        lambda a, k: (a, k, _arg(a, k, 1, "path")), lambda r, path: {"bytes": _file_bytes(path)}),
    "reporting.emit_report": (None, lambda r, ctx: {"bytes": os.path.getsize(r)}),
}
for _name in ("synth_minimal", "synth_maxface", "synth_improper_affine", "synth_flatfront"):
    _HOOKS[f"surfaces.{_name}"] = (None, lambda r, ctx: {"tree_edges": r.n_vertices - 1})


def _proxy(tracer: Tracer, name: str, fn):
    before, after = _HOOKS.get(name, (None, None))

    @functools.wraps(fn)
    def proxy(*args, **kwargs):
        i = tracer.open(name)
        ctx = None
        try:
            if before is not None:
                args, kwargs, ctx = before(args, kwargs)
            result = fn(*args, **kwargs)
        finally:
            tracer.close(i)
        if after is not None:
            tracer.attrs[i] = after(result, ctx)
        return result

    return proxy


def _public_functions(module) -> dict:
    names = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
    out = {}
    for name in names:
        obj = getattr(module, name)
        is_function = isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info")
        if is_function and getattr(obj, "__module__", "") == module.__name__:
            out[name] = obj
    return out


def install(tracer: Tracer) -> None:
    """Proxy the public functions everywhere they are bound."""
    import importlib

    modules = [importlib.import_module(f"mtriples.{m}") for m in MODULES]
    proxies = {}
    for module in modules:
        short = module.__name__.split(".")[-1]
        for name, fn in _public_functions(module).items():
            proxies[id(fn)] = (fn, _proxy(tracer, f"{short}.{name}", fn))
    namespaces = [sys.modules["mtriples"]] + modules
    for module in namespaces:
        for attr, value in list(vars(module).items()):
            hit = proxies.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced pass
# ---------------------------------------------------------------------------

SYNTH = ("synth_minimal", "synth_maxface", "synth_improper_affine", "synth_flatfront")
ARRAY_EVALUATORS = {"mtriple.metric_density_array", "mtriple.curvature_array",
                    "expr.spherical_gradient_array", "expr.eval_array_checked"}
SCALAR_EVALUATORS = {"mtriple.metric_density", "mtriple.curvature",
                     "expr.spherical_gradient", "expr.eval_ext"}


def self_times(spans: dict) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    start = np.asarray(spans["start"], dtype=float)
    dur = np.asarray(spans["end"], dtype=float) - start
    parent = np.asarray(spans["parent"], dtype=int)
    child = np.zeros(len(dur))
    has = parent >= 0
    np.add.at(child, parent[has], dur[has])
    return dur - child


def layer_metrics(spans: dict) -> tuple:
    """(per-layer metrics, per-job sizes) for one traced pass."""
    names = spans["names"]
    own = self_times(spans)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    attr = defaultdict(float)
    keys = set()
    module_self = defaultdict(float)
    repairs = 0
    jobs = defaultdict(lambda: defaultdict(float))
    for i, name in enumerate(names):
        self_s[name] += own[i]
        calls[name] += 1
        module_self[name.split(".")[0]] += own[i]
        p = spans["parent"][i]
        if name in SCALAR_EVALUATORS and p >= 0 and names[p] in ARRAY_EVALUATORS:
            repairs += 1
        extra = spans["attrs"].get(str(i))
        if not extra:
            continue
        job = jobs[spans["job"][i]]
        for k, v in extra.items():
            if k == "key":
                keys.add(v)
                continue
            attr[(name, k)] += v
            if name == "geodesy.build_mesh" and k in ("nodes", "edges"):
                job[f"mesh_{k}"] += v
            elif name == "quadrature.gauss4_segments" and k == "points":
                job["density_evals"] += v
            elif name.startswith("quadrature.") and k == "segments":
                job["quad_segments"] += v
            elif name == "expr.eval_array" and k == "points":
                job["eval_points"] += v
            elif k in ("tree_edges", "bytes"):
                job[k] += v

    def s(*span_names):
        return float(sum(self_s[n] for n in span_names))

    def ratio(num, den):
        return float(num / den) if den else 0.0

    g4, simpson = "quadrature.gauss4_segments", "quadrature.simpson_segments"
    builds = calls["geodesy.build_mesh"]
    m = {
        "geodesy.build_mesh.self_s": s("geodesy.build_mesh"),
        "geodesy.build_mesh.calls": builds,
        "geodesy.topology_reuse": ratio(builds, len(keys)),
        "geodesy.mesh.nodes": attr[("geodesy.build_mesh", "nodes")],
        "geodesy.mesh.edges": attr[("geodesy.build_mesh", "edges")],
        "quadrature.gauss4.self_s": s(g4),
        "quadrature.gauss4.segments": attr[(g4, "segments")],
        "quadrature.gauss4.panel_ratio": ratio(attr[(g4, "points")], 4 * attr[(g4, "segments")]),
        "mtriple.density_array.self_s": s("mtriple.metric_density_array"),
        "mtriple.density_array.points": attr[("mtriple.metric_density_array", "points")],
        "mtriple.curvature_array.self_s": s("mtriple.curvature_array"),
        "geodesy.dijkstra.self_s": s("geodesy.dijkstra_distances"),
    }
    for name in SYNTH:
        m[f"surfaces.{name}.self_s"] = s(f"surfaces.{name}")
    m.update({
        "surfaces.tree_edges": sum(attr[(f"surfaces.{n}", "tree_edges")] for n in SYNTH),
        "surfaces.seam_mismatch.self_s": s("surfaces.seam_mismatch"),
        "surfaces.checks.self_s": s("surfaces.immersion_check", "surfaces.gauss_normal_check"),
        "surfaces.singular_locus.self_s": s("surfaces.singular_locus"),
        "surfaces.period_residuals.self_s": s("surfaces.period_residuals"),
        "quadrature.simpson.self_s": s(simpson),
        "quadrature.simpson.segments": attr[(simpson, "segments")],
        "quadrature.simpson.sample_ratio": ratio(attr[(simpson, "points")],
                                                 5 * attr[(simpson, "segments")]),
        "surfaces.export.self_s": s("surfaces.export_mesh"),
        "surfaces.export.bytes": attr[("surfaces.export_mesh", "bytes")],
        "geodesy.csv_export.self_s": s("geodesy.write_nodes_csv", "geodesy.write_edges_csv"),
        "expr.eval_array.self_s": s("expr.eval_array"),
        "expr.eval_array.points": attr[("expr.eval_array", "points")],
        "expr.derivative.calls": calls["expr.derivative"],
        "expr.parse_mero.self_s": s("expr.parse_mero"),
        "expr.eval_ext.self_s": s("expr.eval_ext"),
        "expr.eval_ext.calls": calls["expr.eval_ext"],
        "mtriple.scalar_repair.calls": repairs,
        "mtriple.check_regularity.self_s": s("mtriple.check_regularity"),
        "mtriple.regularity.candidates": attr[("mtriple.check_regularity", "candidates")],
        "mtriple.curvature_fd.self_s": s("mtriple.curvature_fd"),
        "estimates.verify_estimate.self_s": s("estimates.verify_estimate"),
        "estimates.property_check.self_s": s("estimates.property_check"),
        "estimates.probes.self_s": s("estimates.marty_sup", "estimates.zalcman_rescale",
                                     "estimates.fujimoto_ratio"),
        "geodesy.completeness.self_s": s("geodesy.completeness_probe"),
        "cli.main.self_s": s("cli.main"),
        "reporting.canonical_json.self_s": s("reporting.canonical_json"),
        "reporting.report.bytes": attr[("reporting.emit_report", "bytes")],
    })
    for module in MODULES + ("bench",):
        m[f"{module}.self_s"] = float(module_self[module])
    sizes = {k: dict(v) for k, v in jobs.items() if k >= 0}
    return m, sizes
